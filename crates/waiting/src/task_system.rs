//! On-line task systems (Chapter 2, §3.4).
//!
//! A task system has `n` states, a state-transition cost matrix `D`, and
//! a task-cost matrix `C`; an on-line algorithm chooses which state
//! services each request (with lookahead one). Protocol selection maps
//! onto a task system whose states are protocols and whose tasks are
//! synchronization requests under given run-time conditions (Fig 3.13).
//!
//! This module provides the exact off-line optimum (dynamic
//! programming), the model's monitor, a driver that runs the policies
//! reactive objects ship (`reactive_api::Competitive3` with threshold
//! `d_ab + d_ba` is the 3-competitive rule of §3.4.1), and the
//! worst-case adversary of Figure 3.14.

use reactive_api::{Decision, Observation, Policy, ProtocolId};

/// A task system with `n` states and `m` task types.
#[derive(Clone, Debug)]
pub struct TaskSystem {
    /// `d[i][j]`: cost of switching from state `i` to state `j`.
    pub d: Vec<Vec<f64>>,
    /// `c[i][t]`: cost of serving task type `t` in state `i`.
    pub c: Vec<Vec<f64>>,
}

impl TaskSystem {
    /// Build a task system; validates matrix shapes and that switching
    /// costs have zero diagonal.
    pub fn new(d: Vec<Vec<f64>>, c: Vec<Vec<f64>>) -> TaskSystem {
        let n = d.len();
        assert!(n > 0, "task system needs at least one state");
        assert!(n <= 256, "states are named by a u8 ProtocolId");
        assert!(d.iter().all(|r| r.len() == n), "D must be square");
        assert_eq!(c.len(), n, "C must have one row per state");
        let m = c[0].len();
        assert!(c.iter().all(|r| r.len() == m), "C rows must agree");
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0.0, "self-transition must be free");
        }
        TaskSystem { d, c }
    }

    /// The two-protocol system of Figure 3.13: protocol A is optimal
    /// under low contention, B under high contention; `c_a_high` is A's
    /// residual cost on a high-contention request and `c_b_low` B's on a
    /// low-contention one.
    pub fn two_protocol(d_ab: f64, d_ba: f64, c_a_high: f64, c_b_low: f64) -> TaskSystem {
        TaskSystem::new(
            vec![vec![0.0, d_ab], vec![d_ba, 0.0]],
            // task 0 = low contention, task 1 = high contention
            vec![vec![0.0, c_a_high], vec![c_b_low, 0.0]],
        )
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.d.len()
    }

    /// Exact off-line optimal cost for a request sequence (lookahead-one
    /// dynamic programming over end states), starting in state 0.
    pub fn offline_opt(&self, reqs: &[usize]) -> f64 {
        let n = self.states();
        let mut cost = vec![f64::INFINITY; n];
        cost[0] = 0.0;
        for &t in reqs {
            let mut next = vec![f64::INFINITY; n];
            for (j, nj) in next.iter_mut().enumerate() {
                for (i, ci) in cost.iter().enumerate() {
                    let via = ci + self.d[i][j] + self.c[j][t];
                    if via < *nj {
                        *nj = via;
                    }
                }
            }
            cost = next;
        }
        cost.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The model's monitor: the verdict on serving task `t` in `state`.
    /// The cheapest state for `t` is `better` and the cost gap is the
    /// `residual`; a zero gap (including a tie) is optimal.
    pub fn observe(&self, state: usize, t: usize) -> Observation {
        let best = (0..self.states())
            .min_by(|&a, &b| self.c[a][t].total_cmp(&self.c[b][t]))
            .unwrap();
        let residual = self.c[state][t] - self.c[best][t];
        let current = ProtocolId(state as u8);
        if residual > 0.0 {
            Observation::suboptimal(current, ProtocolId(best as u8), residual)
        } else {
            Observation::optimal(current)
        }
    }

    /// Run a switching policy over the request sequence; returns its
    /// total cost (tasks + transitions), starting in state 0.
    ///
    /// Lookahead one: the policy decides on each request's observation
    /// before it is served, and an approved switch pays its transition,
    /// resets the policy, then serves the request in the new state.
    pub fn run_online(&self, policy: &mut dyn Policy, reqs: &[usize]) -> f64 {
        let mut state = 0usize;
        let mut total = 0.0;
        for &t in reqs {
            if let Decision::SwitchTo(target) = policy.decide(&self.observe(state, t)) {
                let j = target.index();
                if j != state {
                    total += self.d[state][j];
                    state = j;
                    policy.reset();
                }
            }
            total += self.c[state][t];
        }
        total
    }
}

/// Never switch: serve everything in the initial state. The model's
/// static baseline; `reactive_api` ships no such policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverSwitch;

impl Policy for NeverSwitch {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}

/// Generate the Figure 3.14 worst case for the two-protocol system: the
/// adversary flips the contention level exactly when the 3-competitive
/// policy switches, for `cycles` rounds. Returns the request sequence.
pub fn worst_case_sequence(ts: &TaskSystem, cycles: usize) -> Vec<usize> {
    let round_trip = ts.d[0][1] + ts.d[1][0];
    // In state 0, high-contention tasks (t=1) cost c[0][1] each; the
    // policy flips after ceil(round_trip / c[0][1]) of them; then the
    // adversary feeds low-contention tasks, and so on.
    let per_phase_high = (round_trip / ts.c[0][1]).ceil() as usize + 1;
    let per_phase_low = (round_trip / ts.c[1][0]).ceil() as usize + 1;
    let mut reqs = Vec::new();
    for _ in 0..cycles {
        reqs.extend(std::iter::repeat_n(1, per_phase_high));
        reqs.extend(std::iter::repeat_n(0, per_phase_low));
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use reactive_api::{Always, Competitive3, Hysteresis};

    fn paper_system() -> TaskSystem {
        // §3.5.5 empirical numbers: TTS→MCS costs ~8000 cycles, MCS→TTS
        // ~800; TTS under high contention wastes ~150/req, MCS under low
        // contention ~15/req.
        TaskSystem::two_protocol(8_000.0, 800.0, 150.0, 15.0)
    }

    /// The 3-competitive policy at the paper system's round trip.
    fn competitive3() -> Competitive3 {
        Competitive3::new(8_000.0 + 800.0)
    }

    #[test]
    fn offline_opt_never_switches_on_uniform_load() {
        let ts = paper_system();
        let reqs = vec![0; 1000];
        assert_eq!(ts.offline_opt(&reqs), 0.0);
    }

    #[test]
    fn offline_opt_switches_when_worth_it() {
        let ts = paper_system();
        // 1000 high-contention requests: staying costs 150k; switching
        // costs 8000. Opt switches once.
        let reqs = vec![1; 1000];
        assert_eq!(ts.offline_opt(&reqs), 8_000.0);
    }

    #[test]
    fn online_policies_serve_all_requests() {
        let ts = paper_system();
        let reqs: Vec<usize> = (0..500).map(|i| (i / 50) % 2).collect();
        for cost in [
            ts.run_online(&mut NeverSwitch, &reqs),
            ts.run_online(&mut Always, &reqs),
            ts.run_online(&mut competitive3(), &reqs),
            ts.run_online(&mut Hysteresis::new(20, 55), &reqs),
        ] {
            assert!(cost.is_finite() && cost >= 0.0);
        }
    }

    #[test]
    fn competitive3_is_3_competitive_on_worst_case() {
        let ts = paper_system();
        let reqs = worst_case_sequence(&ts, 10);
        let online = ts.run_online(&mut competitive3(), &reqs);
        let opt = ts.offline_opt(&reqs);
        assert!(opt > 0.0);
        let ratio = online / opt;
        assert!(
            ratio <= 3.0 + 1e-9,
            "competitive ratio {ratio} exceeds 3 on the worst case"
        );
        // And the worst case should actually be bad (close to 3, > 2).
        assert!(ratio > 2.0, "adversary too weak: ratio {ratio}");
    }

    #[test]
    fn always_switch_thrashes_on_alternating_load() {
        // The adversary alternates every request: Always pays a
        // transition per request while Competitive3 stays put mostly.
        let ts = paper_system();
        let reqs: Vec<usize> = (0..1000).map(|i| i % 2).collect();
        let always = ts.run_online(&mut Always, &reqs);
        let comp = ts.run_online(&mut competitive3(), &reqs);
        assert!(
            always > comp,
            "always-switch ({always}) should lose to 3-competitive ({comp})"
        );
    }

    #[test]
    fn competitive3_adapts_to_sustained_change() {
        // A long block of high contention: the policy should switch and
        // end up near opt (within the 3x bound, and way below staying).
        let ts = paper_system();
        let reqs = vec![1usize; 2_000];
        let comp = ts.run_online(&mut competitive3(), &reqs);
        let never = ts.run_online(&mut NeverSwitch, &reqs);
        let opt = ts.offline_opt(&reqs);
        assert!(
            comp < never / 10.0,
            "policy failed to adapt: {comp} vs {never}"
        );
        assert!(comp <= 3.0 * opt + ts.d[0][1] + 1.0);
    }

    #[test]
    fn hysteresis_resists_brief_fluctuations() {
        // A single high-contention blip must not flip Hysteresis(20, _).
        let ts = paper_system();
        let mut reqs = vec![0usize; 100];
        reqs[50] = 1;
        let mut pol = Hysteresis::new(20, 55);
        let cost = ts.run_online(&mut pol, &reqs);
        // Only the blip's residual cost, no transitions.
        assert_eq!(cost, 150.0);
    }

    /// Three states: task 0 favours state 0, task 1 ties states 1 and
    /// 2, task 2 favours state 2.
    fn three_state_system() -> TaskSystem {
        let d = vec![
            vec![0.0, 10.0, 20.0],
            vec![10.0, 0.0, 10.0],
            vec![20.0, 10.0, 0.0],
        ];
        let c = vec![
            vec![0.0, 8.0, 9.0],
            vec![5.0, 2.0, 4.0],
            vec![5.0, 2.0, 1.0],
        ];
        TaskSystem::new(d, c)
    }

    #[test]
    fn observe_picks_cheapest_state_and_ties_are_optimal() {
        let ts = three_state_system();
        let p = ProtocolId;
        assert_eq!(ts.observe(0, 0), Observation::optimal(p(0)));
        assert_eq!(ts.observe(1, 0), Observation::suboptimal(p(1), p(0), 5.0));
        assert_eq!(ts.observe(0, 2), Observation::suboptimal(p(0), p(2), 8.0));
        assert_eq!(ts.observe(1, 2), Observation::suboptimal(p(1), p(2), 3.0));
        // Task 1 ties states 1 and 2: either is optimal, and state 0
        // is pointed at the first of them.
        assert_eq!(ts.observe(1, 1), Observation::optimal(p(1)));
        assert_eq!(ts.observe(2, 1), Observation::optimal(p(2)));
        assert_eq!(ts.observe(0, 1), Observation::suboptimal(p(0), p(1), 6.0));
    }

    #[test]
    fn run_online_matches_hand_totals_on_three_states() {
        let ts = three_state_system();
        let reqs = [1, 2, 1, 0, 0];
        // Always: 0→1 (10) serve 2; 1→2 (10) serve 1; tie, stay, serve
        // 2; 2→0 (20) serve 0; serve 0.
        assert_eq!(ts.run_online(&mut Always, &reqs), 45.0);
        // NeverSwitch serves everything in state 0: 8 + 9 + 8 + 0 + 0.
        assert_eq!(ts.run_online(&mut NeverSwitch, &reqs), 25.0);
    }

    #[test]
    #[should_panic(expected = "self-transition")]
    fn rejects_nonzero_diagonal() {
        TaskSystem::new(vec![vec![1.0]], vec![vec![0.0]]);
    }
}
