//! The native lock-service workloads: closed-loop client threads
//! calling `NativeService::acquire` and dropping the `NativeGuard`.
//! `native_hot` drives one hot object through inflation, the limiter
//! and deflation; `native_spread` spreads requests over a million flat
//! objects and never inflates.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lock_service::{LimiterConfig, NativeService, SwitchRecord};

use crate::trace::Tracer;
use crate::{median_setup, run_rounds, Args, Outcome, Round, CAL_REF_S};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Spread,
}

/// The fixed shape of a native workload.
struct Shape {
    objects: u64,
    shards: u32,
    /// Critical-section length in `hold` iterations.
    hold: u32,
    /// Acquires per client per round.
    round_ops: u64,
    /// Pre-generated keys per client (a power of two; the stream
    /// cycles).
    keys: usize,
    /// Set-up repetitions for `setup_s`.
    setups: usize,
    /// Every `lat_every`-th acquire is timed.
    lat_every: u64,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::Hot => Shape {
            objects: 4096,
            shards: 16,
            hold: 200,
            round_ops: 100_000,
            keys: 1 << 16,
            setups: 21,
            lat_every: 16,
        },
        Kind::Spread => Shape {
            objects: 1_000_000,
            shards: 16,
            hold: 0,
            round_ops: 400_000,
            keys: 1 << 22,
            setups: 5,
            lat_every: 64,
        },
    }
}

/// In `native_hot`, one request in `COLD_EVERY` goes to a uniformly
/// chosen object other than the hot object 0.
const COLD_EVERY: u64 = 8;
/// The generous deadline every acquire carries.
const DEADLINE: Duration = Duration::from_secs(1);
/// Latency samples kept per client (sampling stops past this),
/// allocated and touched at set-up so the memory metric does not track
/// throughput.
const LAT_CAP: usize = 1 << 21;
/// Every `SPAN_EVERY`-th acquire of a traced round records spans.
const SPAN_EVERY: u64 = 4096;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `0..n` from the high bits of `r`.
fn below(r: u64, n: u64) -> u64 {
    ((u128::from(r) * u128::from(n)) >> 64) as u64
}

/// Client `client`'s key stream (of `clients`), generated from the
/// workload seed. In `native_spread` each client draws uniformly from
/// its own residue class of objects, so the clients never meet on one
/// object: a rare collision whose holder the host preempted would trip
/// the long-wait inflation rule (seen once in 18 runs with shared keys)
/// and the control workload would no longer be flat.
fn keys(kind: Kind, sh: &Shape, seed: u64, client: u64, clients: u64) -> Vec<u32> {
    let mut s = seed ^ client.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    (0..sh.keys)
        .map(|_| {
            let r = splitmix(&mut s);
            let k = match kind {
                Kind::Hot if r.is_multiple_of(COLD_EVERY) => 1 + below(r, sh.objects - 1),
                Kind::Hot => 0,
                Kind::Spread => client + clients * below(r, sh.objects / clients),
            };
            k as u32
        })
        .collect()
}

/// The critical section's work: a short dependent multiply chain.
fn hold(iters: u32) {
    let mut x = 1u64;
    for _ in 0..iters {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    black_box(x);
}

/// One closed-loop client: its keys, counters and latency samples.
struct Client {
    keys: Vec<u32>,
    pos: usize,
    attempts: u64,
    grants: u64,
    aborts: u64,
    overlaps: u64,
    hot_grants: u64,
    /// The hot object, in `native_hot`.
    hot: Option<u32>,
    lat: Vec<u32>,
    lat_len: usize,
    /// `lat_len` at the start of each round.
    marks: Vec<usize>,
}

impl Client {
    fn new(keys: Vec<u32>, hot: Option<u32>) -> Client {
        Client {
            keys,
            pos: 0,
            attempts: 0,
            grants: 0,
            aborts: 0,
            overlaps: 0,
            hot_grants: 0,
            hot,
            // Written, not zero-allocated, so the pages are resident.
            lat: vec![u32::MAX; LAT_CAP],
            lat_len: 0,
            marks: Vec::new(),
        }
    }

    /// `ops` acquire / hold / release requests.
    fn round(
        &mut self,
        svc: &NativeService,
        cs: &[AtomicU32],
        sh: &Shape,
        traced: bool,
        tr: &mut Tracer,
    ) {
        self.marks.push(self.lat_len);
        let mask = self.keys.len() - 1;
        for _ in 0..sh.round_ops {
            let key = self.keys[self.pos];
            self.pos = (self.pos + 1) & mask;
            let n = self.attempts;
            self.attempts += 1;
            let span = traced && n.is_multiple_of(SPAN_EVERY);
            // Traced rounds sample too, so the traced-minus-untraced overhead
            // is the spans' alone; only untraced rounds' samples are reported.
            let sample = n.is_multiple_of(sh.lat_every) && self.lat_len < LAT_CAP;
            let (req, t_req) = if span { (tr.open(), tr.now()) } else { (0, 0) };
            let t0 = sample.then(Instant::now);
            let g = svc.acquire(u64::from(key), Some(DEADLINE));
            if let Some(t0) = t0 {
                self.lat[self.lat_len] = t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
                self.lat_len += 1;
            }
            if span {
                let id = tr.open();
                tr.close(id, req, req, "service.acquire", t_req);
            }
            let Some(g) = g else {
                self.aborts += 1;
                continue;
            };
            // The protected data: an even word while free, odd while
            // held. An odd word on entry means two holders overlap; a
            // lost increment shows in the final sum.
            let w = &cs[key as usize];
            // order: Relaxed — ordered by the lock under test.
            let v = w.load(Ordering::Relaxed);
            if v & 1 != 0 {
                self.overlaps += 1;
            }
            w.store(v.wrapping_add(1), Ordering::Relaxed);
            hold(sh.hold);
            w.store(v.wrapping_add(2), Ordering::Relaxed);
            self.grants += 1;
            if Some(key) == self.hot {
                self.hot_grants += 1;
            }
            if span {
                let t = tr.now();
                drop(g);
                let id = tr.open();
                tr.close(id, req, req, "service.release", t);
                tr.close(req, 0, req, "client.request", t_req);
            } else {
                drop(g);
            }
        }
    }
}

/// The service, protected words and clients of one set-up.
struct Setup {
    svc: NativeService,
    cs: Vec<AtomicU32>,
    clients: Vec<Client>,
}

fn build(kind: Kind, sh: &Shape, seed: u64, clients: usize) -> Setup {
    Setup {
        svc: NativeService::new(sh.objects, sh.shards, Some(LimiterConfig::default())),
        cs: (0..sh.objects).map(|_| AtomicU32::new(0)).collect(),
        clients: (0..clients as u64)
            .map(|c| {
                let hot = (kind == Kind::Hot).then_some(0);
                Client::new(keys(kind, sh, seed, c, clients as u64), hot)
            })
            .collect(),
    }
}

/// Run a native workload: `min(2, host_cores)` closed-loop clients, the
/// calling thread being client 0.
pub fn run(args: &Args, kind: Kind, epoch: Instant, tracer: &mut Tracer) -> Outcome {
    let sh = shape(kind);
    let nclients = args.host_cores.min(2);
    let mut kept = None;
    let setup_s = median_setup(sh.setups, || {
        kept = None;
        let t0 = Instant::now();
        let s = build(kind, &sh, args.seed, nclients);
        let dt = t0.elapsed().as_secs_f64();
        kept = Some(s);
        dt
    });
    let Setup {
        svc,
        cs,
        clients: mut all,
    } = kept.expect("set-up ran at least once");
    let mut leader = all.remove(0);
    let barrier = Barrier::new(nclients);
    let stop = AtomicBool::new(false);
    let traced_flag = AtomicBool::new(false);
    let (rounds, others) = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                let (svc, cs, barrier, stop, traced_flag) =
                    (&svc, &cs, &barrier, &stop, &traced_flag);
                let sh = &sh;
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, i as u64 + 1);
                    loop {
                        barrier.wait();
                        // order: SeqCst — published before the barrier.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let traced = traced_flag.load(Ordering::SeqCst);
                        c.round(svc, cs, sh, traced, &mut tr);
                        barrier.wait();
                    }
                    (c, tr)
                })
            })
            .collect();
        let rounds = run_rounds(args, 3, nclients, tracer, |traced, tr| {
            // order: SeqCst — read by the other clients after the barrier.
            traced_flag.store(traced, Ordering::SeqCst);
            barrier.wait();
            let t0 = Instant::now();
            leader.round(&svc, &cs, &sh, traced, tr);
            barrier.wait();
            Round {
                wall_s: t0.elapsed().as_secs_f64(),
                cal_s: 0.0,
                grants: sh.round_ops * nclients as u64,
                traced,
            }
        });
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        let others: Vec<(Client, Tracer)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (rounds, others)
    });

    let mut out = Outcome::new(setup_s, nclients);
    let mut clients = vec![leader];
    for (c, mut tr) in others {
        out.spans.append(&mut tr.spans);
        clients.push(c);
    }
    let sum = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>();
    let (attempts, grants, aborts, overlaps, hot) = (
        sum(|c| c.attempts),
        sum(|c| c.grants),
        sum(|c| c.aborts),
        sum(|c| c.overlaps),
        sum(|c| c.hot_grants),
    );
    // order: Relaxed — every client has joined.
    let words: u64 = cs
        .iter()
        .map(|w| u64::from(w.load(Ordering::Relaxed)))
        .sum();
    let inflations = svc.inflations();
    let lost = words != 2 * grants;
    out.attempted = attempts;
    out.failed = aborts + overlaps + u64::from(lost);
    out.check(format!("deadline aborts {aborts} = 0"), aborts == 0);
    out.check(
        format!("critical-section overlaps {overlaps} = 0"),
        overlaps == 0,
    );
    out.check(
        format!("protected words sum {words} = 2 x grants {grants}"),
        !lost,
    );
    let guard = match kind {
        Kind::Hot => ("native_hot inflates at least once", inflations >= 1),
        Kind::Spread => ("native_spread never inflates", inflations == 0),
    };
    out.check(format!("{} (inflations {inflations})", guard.0), guard.1);
    if !guard.1 {
        out.attempted += 1;
        out.failed += 1;
    }
    // Each round's samples at the reference host speed, like its wall.
    for c in &clients {
        for (i, r) in rounds.iter().enumerate().filter(|(_, r)| !r.traced) {
            let end = c.marks.get(i + 1).copied().unwrap_or(c.lat_len);
            let scale = CAL_REF_S / r.cal_s;
            out.latencies_ns
                .extend(c.lat[c.marks[i]..end].iter().map(|&x| f64::from(x) * scale));
        }
    }
    let n_rounds = rounds.len().max(1) as f64;
    let fp = svc.footprint();
    let footprint = (fp.slot_bytes + fp.shard_bytes + fp.hot_bytes) as f64;
    // The switch log grows with every inflation and deflation, and how
    // many there are follows host timing (the log moved the footprint's
    // IQR to 28% of its median on native_hot), so the bounded metric
    // leaves it out; it is reported on its own below.
    let log_bytes = (svc.switch_log().len() * std::mem::size_of::<SwitchRecord>()) as f64;
    out.mem_bytes = Some(footprint - log_bytes);
    let layer: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("service.inflations", inflations as f64),
        ("service.deflations", svc.deflations() as f64),
        ("service.live_inflated", svc.live_inflated() as f64),
        ("service.slab_entries", svc.slab_entries() as f64),
        ("native.lock_switches", svc.lock_switches() as f64),
        (
            "service.useful_ratio",
            grants as f64 / attempts.max(1) as f64,
        ),
        ("arena.footprint_bytes", footprint),
        ("service.switch_log_bytes", log_bytes),
        ("service.attempts", attempts as f64 / n_rounds),
        ("service.hot_object_grants", hot as f64 / n_rounds),
        (
            "service.cold_object_grants",
            (grants - hot) as f64 / n_rounds,
        ),
    ]);
    out.layer = layer;
    out.rounds = rounds;
    out
}
