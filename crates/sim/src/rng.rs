//! Deterministic pseudo-random number generation.
//!
//! All nondeterminism in a simulation (think times, backoff jitter,
//! workload shapes) is drawn from a single seeded xorshift64* stream so
//! that runs are exactly reproducible. The lock service draws its
//! workloads from the same generator; every generator owns its own
//! stream, so adding a tenant never perturbs another tenant's draws.

/// xorshift64* step. A zero state is replaced by a fixed non-zero
/// constant, so a zero seed is valid and deterministic.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform value in `[0, bound)`; `bound == 0` yields 0.
#[inline]
pub fn below(state: &mut u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    next(state) % bound
}

/// Uniform value in `[0, 1)` with 53 bits of precision (IEEE-exact, so
/// runs are reproducible across hosts).
pub fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform value in `(0, 1]` with 53 bits of precision: never 0, so
/// `ln` of it is always finite (exponential and Poisson draws).
#[inline]
pub fn unit_nonzero(state: &mut u64) -> f64 {
    let bits = next(state) >> 11; // 53 significant bits
    (bits + 1) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = 42;
        let mut b = 42;
        let xs: Vec<u64> = (0..8).map(|_| next(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| next(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn zero_seed_recovers() {
        let mut s = 0;
        let v = next(&mut s);
        assert_ne!(v, 0);
        assert_ne!(s, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut s = 7;
        for bound in [1u64, 2, 3, 10, 501] {
            for _ in 0..100 {
                assert!(below(&mut s, bound) < bound);
            }
        }
        assert_eq!(below(&mut s, 0), 0);
    }

    #[test]
    fn unit_is_in_half_open_range() {
        let (mut a, mut b) = (9, 9);
        for _ in 0..1_000 {
            let u = unit(&mut a);
            assert!((0.0..1.0).contains(&u));
            let v = unit_nonzero(&mut b);
            assert!(v > 0.0 && v <= 1.0);
            // Same draw, shifted by one ulp of 2^-53.
            assert_eq!(v, u + 1.0 / (1u64 << 53) as f64);
        }
    }

    #[test]
    fn unit_nonzero_values_are_pinned() {
        // The lock service's workload streams are built on these exact
        // values; a change here moves every seeded service result.
        let mut s = 9;
        let got: Vec<u64> = (0..3).map(|_| unit_nonzero(&mut s).to_bits()).collect();
        assert_eq!(got, PINNED_UNIT_NONZERO_SEED_9);
        let mut z = 0;
        assert_eq!(unit_nonzero(&mut z).to_bits(), PINNED_UNIT_NONZERO_SEED_0);
    }

    /// `to_bits` of 0.8187128180758717, 0.06095991238464049 and
    /// 0.547055458830859.
    const PINNED_UNIT_NONZERO_SEED_9: [u64; 3] = [
        0x3fea_32e5_394e_75b1,
        0x3faf_3623_3c1e_3ca0,
        0x3fe1_817a_7318_dba9,
    ];
    /// `to_bits` of 0.052790873358508295.
    const PINNED_UNIT_NONZERO_SEED_0: u64 = 0x3fab_0767_c534_42a0;

    #[test]
    fn streams_are_independent_and_deterministic() {
        let (mut a, mut b, mut c) = (5u64, 5u64, 6u64);
        let xs: Vec<u64> = (0..16).map(|_| next(&mut a)).collect();
        let ys: Vec<u64> = (0..16).map(|_| next(&mut b)).collect();
        let zs: Vec<u64> = (0..16).map(|_| next(&mut c)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
