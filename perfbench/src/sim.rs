//! The simulator workloads: `sim_two_phase` (serial `Machine`, Ch. 4's
//! two-phase waiting) and `sim_cluster` (sharded `Cluster`, Ch. 3's
//! reactive lock plus cross-tile mail).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alewife_sim::parallel::{Cluster, ClusterReport, ParallelConfig, ShardCtx};
use alewife_sim::{Config, CostModel, Machine, Port, Stats};
use sim_apps::alg::{AnyLock, LockAlg, WaitAlg, WaitLock};
use sim_apps::mutex_app::{self, MutexConfig};

use crate::trace::Tracer;
use crate::{median_setup, quantile, run_rounds, Args, Outcome, Round, CAL_REF_S};

/// Processors in `sim_two_phase`.
const TP_PROCS: usize = 64;
/// Acquisitions per processor in `sim_two_phase`.
const TP_OPS: u64 = 3_000;
/// Critical section and mean think time (cycles) in `sim_two_phase`:
/// long enough holds that most waiters outlast the polling phase and
/// block.
const TP_CS: u64 = 150;
const TP_THINK: u64 = 500;

/// A simulator set-up takes microseconds, so each `setup_s` sample
/// times this many and reports the mean.
const SETUP_BATCH: usize = 200;
/// `setup_s` samples per run.
const SETUP_SAMPLES: usize = 31;

/// Simulated nodes and tiles (shards, one thread each) in `sim_cluster`.
const CL_NODES: usize = 256;
const CL_TILES: usize = 2;
/// Nodes sharing one reactive lock: 16 independent storms, 8 per tile.
/// With 64 nodes per lock the pooled p99 acquire latency split across
/// seeds into two modes (about 100 µs and 150 µs modelled), set by when
/// one lock happened to switch protocols; sixteen smaller storms average
/// that history out (p99 within ±1% across seeds).
const CL_GROUP: usize = 16;
/// Lock acquisitions per node in `sim_cluster` (about 20 M events).
const CL_ITERS: u64 = 1_900;
/// Cross-tile traffic: every node launches `CL_TOKENS` tokens that hop
/// between the tiles `CL_HOPS` times each, every hop a `RemoteMail` post
/// from the receiving node's handler (230,400 messages per round). A
/// hop takes at least one epoch window, so a tile posts at most one
/// message per token per epoch: at most 1,536 per lane, well below the
/// HEAD lane capacity of 4,096. The hops (about 9 M cycles) end before
/// the lock storms (about 11 M).
const CL_TOKENS: u64 = 6;
const CL_HOPS: u64 = 150;
/// Declared cross-tile latency (cycles); see `sim_throughput`.
const CL_EPOCH_WINDOW: u64 = 60_000;
const CL_PORT: Port = Port(61);
/// The `sim_throughput` cluster rows' heartbeat ring sends about 50
/// cross-tile messages in 37 M events; this workload must post at a
/// higher rate than that, or delivery would be invisible.
const RING_MSGS: u64 = 50;
const RING_EVENTS: u64 = 37_000_000;

/// Clock of the NWO machine both simulator workloads model (the
/// default `CostModel::nwo`): simulated acquire latencies are reported
/// in modelled nanoseconds.
const NWO_HZ: f64 = 33e6;

fn cycles_to_ns(cycles: &[u64]) -> Vec<f64> {
    cycles.iter().map(|&c| c as f64 * 1e9 / NWO_HZ).collect()
}

/// Everything the stats-equality checks compare, folded into one hash.
fn fingerprint(elapsed: u64, s: &Stats) -> u64 {
    let mut h = DefaultHasher::new();
    (
        elapsed,
        s.net_msgs,
        s.remote_misses,
        s.invalidations,
        s.limitless_traps,
        s.dir_requests,
        s.active_msgs,
        s.sim_events,
    )
        .hash(&mut h);
    s.rmr_cc.hash(&mut h);
    s.rmr_dsm.hash(&mut h);
    s.counters.hash(&mut h);
    for (k, w) in &s.waits {
        (k, w.count, w.sum, w.max, &w.buckets).hash(&mut h);
    }
    h.finish()
}

/// Layer counts the simulator's `Stats` reports for one round (every
/// round of a seed reports the same counts; the checks verify it).
fn add_stats(layer: &mut BTreeMap<&'static str, f64>, s: &Stats) {
    let waits: u64 = s.waits.values().map(|w| w.count).sum();
    let bumps: u64 = s.counters.values().sum();
    for (k, v) in [
        ("sim.events", s.sim_events),
        ("coherence.dir_requests", s.dir_requests),
        ("coherence.remote_misses", s.remote_misses),
        ("coherence.invalidations", s.invalidations),
        ("net.msgs", s.net_msgs),
        ("stats.waits_recorded", waits),
        ("stats.bumps", bumps),
    ] {
        layer.insert(k, v as f64);
    }
}

fn two_phase_config(seed: u64) -> MutexConfig {
    MutexConfig {
        procs: TP_PROCS,
        ops: TP_OPS,
        cs: TP_CS,
        think: TP_THINK,
        wait: WaitAlg::TwoPhase(CostModel::nwo().block_cost()),
        seed,
    }
}

/// `sim_two_phase`: `mutex_app::run` on the serial machine, 64
/// processors waiting two-phase with `Lpoll` = the NWO blocking cost.
pub fn two_phase(args: &Args, tracer: &mut Tracer) -> Outcome {
    let cfg = two_phase_config(args.seed);
    let lpoll = CostModel::nwo().block_cost();
    // Set-up: the machine `mutex_app::run` builds before it runs, with
    // its lock and counter.
    let setup_s = median_setup(SETUP_SAMPLES, || {
        let t0 = Instant::now();
        let built: Vec<Machine> = (0..SETUP_BATCH)
            .map(|_| {
                let m = Machine::new(Config::default().nodes(TP_PROCS).seed(args.seed));
                let _lock = WaitLock::new(&m, 0);
                let _counter = m.alloc_on(1, 1);
                m
            })
            .collect();
        let dt = t0.elapsed().as_secs_f64();
        drop(built);
        dt / SETUP_BATCH as f64
    });
    let mut out = Outcome::new(setup_s, 1);
    let mut first: Option<(u64, u64, u64, u64)> = None;
    let mut latencies = Vec::new();
    let (mut panicked, mut bad_waits, mut diverged) = (0u64, 0u64, 0u64);
    let mut blocks = 0u64;
    let mut cycles = 0u64;
    let grants = TP_PROCS as u64 * TP_OPS;
    let rounds = run_rounds(args, 3, 1, tracer, |traced, tr| {
        let id = tr.open();
        let t0 = tr.now();
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            let t = tr.now();
            let r = mutex_app::run(&cfg);
            if traced {
                let sid = tr.open();
                tr.close(sid, id, id, "sim.run", t);
            }
            r
        }));
        let wall_s = start.elapsed().as_secs_f64();
        out.attempted += 1;
        match res {
            Err(_) => {
                out.failed += 1;
                panicked += 1;
            }
            Ok(r) => {
                let s = &r.stats;
                let waits = s.waits.get("mutex").map_or(0, |w| w.count);
                let key = (
                    r.elapsed,
                    s.sim_events,
                    s.dir_requests,
                    fingerprint(r.elapsed, s),
                );
                if first.is_none() {
                    // Every round repeats the same waits; keep one copy.
                    let raw = s.waits.get("mutex").map_or(&[][..], |w| &w.raw[..]);
                    latencies = cycles_to_ns(raw);
                }
                let same = *first.get_or_insert(key) == key;
                bad_waits += u64::from(waits != grants);
                diverged += u64::from(!same);
                if waits != grants || !same {
                    out.failed += 1;
                }
                if !traced {
                    add_stats(&mut out.layer, s);
                    blocks = s.waits.get("mutex").map_or(0, |w| {
                        (w.count as f64 * (1.0 - w.frac_below(lpoll + 1))).round() as u64
                    });
                    cycles = r.elapsed;
                }
            }
        }
        if traced {
            tr.close(id, 0, id, "bench.round", t0);
        }
        Round {
            wall_s,
            cal_s: 0.0,
            grants,
            traced,
        }
    });
    out.rounds = rounds;
    out.latencies_ns = latencies;
    out.check(
        format!("mutex_app::run's counter and deadlock asserts held ({panicked} panics)"),
        panicked == 0,
    );
    out.check(
        format!("waits recorded = procs x ops = {grants} ({bad_waits} rounds off)"),
        bad_waits == 0,
    );
    if let Some((c, ev, dr, _)) = first {
        out.check(
            format!(
                "cycles {c}, events {ev}, dir_requests {dr}, stats repeat ({diverged} diverged)"
            ),
            diverged == 0,
        );
        out.extra.push(("sim_cycles", c as f64, "cycles"));
    }
    out.extra
        .push(("sim_wall_s", median_wall(&out.rounds), "s"));
    out.layer.insert("thread.blocks", blocks as f64);
    out.layer.insert("sim.cycles", cycles as f64);
    finish_sim_layers(&mut out);
    out
}

/// Median calibrated wall of the untraced rounds.
fn median_wall(rounds: &[Round]) -> f64 {
    let mut w: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(Round::norm_s)
        .collect();
    quantile(&mut w, 0.5)
}

/// `sim.events_per_s`: one round's events over the median round wall.
fn finish_sim_layers(out: &mut Outcome) {
    let ev = out.layer.get("sim.events").copied().unwrap_or(0.0);
    out.layer
        .insert("sim.events_per_s", ev / median_wall(&out.rounds));
}

fn cluster_config(seed: u64) -> Cluster {
    Cluster::new(
        CL_NODES,
        Config::default().cost(CostModel::nwo()).seed(seed),
        ParallelConfig {
            workers: CL_TILES,
            epoch_window: CL_EPOCH_WINDOW,
        },
    )
}

/// The node of the other tile a token visits next (a fixed hash of the
/// token and hop, so both run modes route identically).
fn next_hop(token: u64, hop: u64, base: usize, n: usize, total: usize) -> usize {
    let mut x = token.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hop;
    x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let other = (x >> 32) as usize % (total - n);
    (base + n + other) % total
}

/// One tile of `sim_cluster`: each group of `CL_GROUP` nodes storms its
/// own reactive lock (CS 5, no think time), while tokens hop between
/// the tiles (see `CL_HOPS`). `delivered` counts the mail that arrives;
/// `waits`, when given, collects every acquire's simulated latency.
fn cluster_tile(ctx: &ShardCtx<'_>, delivered: &Arc<AtomicU64>, waits: Option<&Waits>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let (base, total) = (ctx.node_base, ctx.total_nodes);
    let locks: Vec<AnyLock> = (0..n / CL_GROUP)
        .map(|g| AnyLock::make(m, g * CL_GROUP, LockAlg::Reactive, CL_GROUP))
        .collect();
    for p in 0..n {
        let d = Arc::clone(delivered);
        let mail = ctx.mail();
        m.register_handler(p, CL_PORT, move |h, [token, hop, _, _]| {
            // order: Relaxed — a count read after the run joins.
            d.fetch_add(1, Ordering::Relaxed);
            if hop < CL_HOPS {
                let dest = next_hop(token, hop, base, n, total);
                mail.post(h.now(), base + p, dest, CL_PORT, [token, hop + 1, 0, 0]);
            }
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let lock = locks[p / CL_GROUP].clone();
        let mail = ctx.mail();
        let waits = waits.cloned();
        m.spawn(p, async move {
            for k in 0..CL_TOKENS {
                let token = (base + p) as u64 * CL_TOKENS + k;
                let dest = next_hop(token, 0, base, n, total);
                mail.post(cpu.now(), base + p, dest, CL_PORT, [token, 1, 0, 0]);
            }
            let mut mine = Vec::new();
            for _ in 0..CL_ITERS {
                let t0 = cpu.now();
                let t = lock.acquire(&cpu).await;
                if waits.is_some() {
                    mine.push(cpu.now() - t0);
                }
                cpu.work(5).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(1)).await;
            }
            if let Some(w) = waits {
                w.lock().expect("wait list poisoned").extend(mine);
            }
        });
    }
}

/// Simulated acquire latencies (cycles) collected across tiles.
type Waits = Arc<Mutex<Vec<u64>>>;

/// `sim_cluster`: `Cluster::run_parallel` over 256 nodes in 2 tiles,
/// checked against `Cluster::run_serial` on the same seed.
pub fn cluster(args: &Args, tracer: &mut Tracer) -> Outcome {
    let setup_s = median_setup(SETUP_SAMPLES, || {
        let t0 = Instant::now();
        let built: Vec<Cluster> = (0..SETUP_BATCH)
            .map(|_| cluster_config(args.seed))
            .collect();
        let dt = t0.elapsed().as_secs_f64();
        drop(built);
        dt / SETUP_BATCH as f64
    });
    let mut out = Outcome::new(setup_s, CL_TILES);
    // The serial reference, outside the timed rounds.
    let delivered = Arc::new(AtomicU64::new(0));
    let waits: Waits = Arc::default();
    let reference: ClusterReport = {
        let (d, w) = (Arc::clone(&delivered), Arc::clone(&waits));
        cluster_config(args.seed).run_serial(move |ctx| cluster_tile(ctx, &d, Some(&w)))
    };
    // Tiles finish in a host-dependent order; sorting makes the list
    // deterministic.
    let mut cycles = std::mem::take(&mut *waits.lock().expect("wait list poisoned"));
    cycles.sort_unstable();
    out.latencies_ns = cycles_to_ns(&cycles);
    let ref_fp = fingerprint(reference.elapsed, &reference.stats);
    out.attempted += 1;
    let ref_ok = reference.causality_violations == 0
        && reference.live_tasks == 0
        && delivered.load(Ordering::Relaxed) == reference.remote_msgs;
    out.check(
        format!(
            "serial reference: 0 causality violations ({}), no deadlock, mail delivered",
            reference.causality_violations
        ),
        ref_ok,
    );
    if !ref_ok {
        out.failed += 1;
    }
    let busy = |r: &ClusterReport| {
        let mean = r.busy_secs.iter().sum::<f64>() / r.busy_secs.len().max(1) as f64;
        let max = r.busy_secs.iter().copied().fold(0.0, f64::max);
        (mean, max)
    };
    // Per untraced round: (round index, mean busy s, sync s, balance).
    let mut par: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut index = 0;
    let mut mismatches = 0u64;
    let grants = CL_NODES as u64 * CL_ITERS;
    let rounds = run_rounds(args, 3, CL_TILES, tracer, |traced, tr| {
        delivered.store(0, Ordering::Relaxed);
        let id = tr.open();
        let t0 = tr.now();
        let cluster = cluster_config(args.seed);
        let d = Arc::clone(&delivered);
        let start = Instant::now();
        let t = tr.now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            cluster.run_parallel(move |ctx| cluster_tile(ctx, &d, None))
        }));
        let wall_s = start.elapsed().as_secs_f64();
        if traced {
            let sid = tr.open();
            tr.close(sid, id, id, "sim.run", t);
        }
        out.attempted += 1;
        match res {
            Err(_) => {
                out.failed += 1;
                mismatches += 1;
            }
            Ok(r) => {
                let ok = fingerprint(r.elapsed, &r.stats) == ref_fp
                    && r.remote_msgs == reference.remote_msgs
                    && r.epochs == reference.epochs
                    && r.causality_violations == 0
                    && r.live_tasks == 0
                    && delivered.load(Ordering::Relaxed) == r.remote_msgs;
                if !ok {
                    out.failed += 1;
                    mismatches += 1;
                }
                if !traced {
                    add_stats(&mut out.layer, &r.stats);
                    let (mean, max) = busy(&r);
                    par.push((index, mean, r.wall_secs - mean, mean / max));
                }
            }
        }
        if traced {
            tr.close(id, 0, id, "bench.round", t0);
        }
        index += 1;
        Round {
            wall_s,
            cal_s: 0.0,
            grants,
            traced,
        }
    });
    // Busy and sync seconds at the reference host speed, like the walls.
    let scale = |i: usize| CAL_REF_S / rounds[i].cal_s;
    let mut busy_s: Vec<f64> = par.iter().map(|p| p.1 * scale(p.0)).collect();
    let mut sync_s: Vec<f64> = par.iter().map(|p| p.2 * scale(p.0)).collect();
    let mut balance: Vec<f64> = par.iter().map(|p| p.3).collect();
    out.rounds = rounds;
    out.check(
        format!("every round's stats equal the serial reference ({mismatches} mismatches)"),
        mismatches == 0,
    );
    let ev = reference.stats.sim_events;
    let above_ring = reference.remote_msgs * RING_EVENTS > RING_MSGS * ev;
    out.check(
        format!(
            "cross-tile mail {} per {} events is above the sim_throughput ring's {RING_MSGS} per {RING_EVENTS}",
            reference.remote_msgs, ev
        ),
        above_ring,
    );
    out.attempted += 1;
    if !above_ring {
        out.failed += 1;
    }
    out.extra
        .push(("sim_cycles", reference.elapsed as f64, "cycles"));
    out.extra
        .push(("sim_wall_s", median_wall(&out.rounds), "s"));
    out.layer.insert("sim.cycles", reference.elapsed as f64);
    out.layer.insert("parallel.epochs", reference.epochs as f64);
    out.layer
        .insert("parallel.remote_msgs", reference.remote_msgs as f64);
    out.layer
        .insert("parallel.busy_s", quantile(&mut busy_s, 0.5));
    out.layer
        .insert("parallel.sync_s", quantile(&mut sync_s, 0.5));
    out.layer
        .insert("parallel.balance", quantile(&mut balance, 0.5));
    finish_sim_layers(&mut out);
    out
}
