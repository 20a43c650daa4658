//! Cross-mode conformance: for the same sharded workload,
//! [`Cluster::run_serial`] and [`Cluster::run_parallel`] must produce
//! **identical** statistics — same event counts, same message counts,
//! same per-node RMR vectors, same named counters, same wait-histogram
//! contents down to the raw reservoirs. Per-shard execution is
//! deterministic and the epoch protocol fixes the cross-shard injection
//! order, so nothing may depend on thread interleaving.
//!
//! Four seeded workloads cover the surface: shard-local reactive locks
//! with a cross-shard message ring, an all-to-all message storm with
//! handler-originated replies, an unevenly-sharded mixed run with a
//! widened epoch window, and a dense burst that puts thousands of
//! messages into one lane in one epoch. A last test checks that a
//! panicking shard fails the threaded run instead of hanging it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use alewife_sim::parallel::{Cluster, ClusterReport, ParallelConfig, ShardCtx};
use alewife_sim::{Config, Port, Stats};
use sim_apps::alg::{AnyLock, LockAlg};

/// Field-by-field equality over [`Stats`], including histogram raw
/// reservoirs (both modes merge shards in the same order with the same
/// seeds, so even the sampled state must match bit-for-bit).
fn assert_stats_identical(a: &Stats, b: &Stats, workload: &str) {
    assert_eq!(a.net_msgs, b.net_msgs, "{workload}: net_msgs");
    assert_eq!(
        a.remote_misses, b.remote_misses,
        "{workload}: remote_misses"
    );
    assert_eq!(
        a.invalidations, b.invalidations,
        "{workload}: invalidations"
    );
    assert_eq!(
        a.limitless_traps, b.limitless_traps,
        "{workload}: limitless_traps"
    );
    assert_eq!(a.dir_requests, b.dir_requests, "{workload}: dir_requests");
    assert_eq!(a.active_msgs, b.active_msgs, "{workload}: active_msgs");
    assert_eq!(a.sim_events, b.sim_events, "{workload}: sim_events");
    assert_eq!(a.rmr_cc, b.rmr_cc, "{workload}: rmr_cc");
    assert_eq!(a.rmr_dsm, b.rmr_dsm, "{workload}: rmr_dsm");
    assert_eq!(a.counters, b.counters, "{workload}: counters");
    assert_eq!(
        a.waits.keys().collect::<Vec<_>>(),
        b.waits.keys().collect::<Vec<_>>(),
        "{workload}: wait histogram names"
    );
    for (name, wa) in &a.waits {
        let wb = &b.waits[name];
        assert_eq!(wa.count, wb.count, "{workload}: waits[{name}].count");
        assert_eq!(wa.sum, wb.sum, "{workload}: waits[{name}].sum");
        assert_eq!(wa.max, wb.max, "{workload}: waits[{name}].max");
        assert_eq!(wa.buckets, wb.buckets, "{workload}: waits[{name}].buckets");
        assert_eq!(wa.raw, wb.raw, "{workload}: waits[{name}].raw");
    }
}

fn check_both_modes(
    name: &str,
    nodes: usize,
    pcfg: ParallelConfig,
    seed: u64,
    setup: impl Fn(&ShardCtx<'_>) + Send + Sync + Copy,
) -> ClusterReport {
    let mk = || Cluster::new(nodes, Config::default().seed(seed), pcfg.clone());
    let serial = mk().run_serial(setup);
    let parallel = mk().run_parallel(setup);
    assert_eq!(serial.live_tasks, 0, "{name}: serial deadlocked");
    assert_eq!(parallel.live_tasks, 0, "{name}: parallel deadlocked");
    assert_eq!(serial.causality_violations, 0, "{name}: serial causality");
    assert_eq!(
        parallel.causality_violations, 0,
        "{name}: parallel causality"
    );
    assert_eq!(serial.elapsed, parallel.elapsed, "{name}: elapsed");
    assert_eq!(serial.epochs, parallel.epochs, "{name}: epoch count");
    assert_eq!(
        serial.remote_msgs, parallel.remote_msgs,
        "{name}: remote deliveries"
    );
    assert_stats_identical(&serial.stats, &parallel.stats, name);
    assert!(serial.stats.sim_events > 0, "{name}: trivially empty run");
    serial
}

/// Workload 1: every shard hammers a shard-local reactive lock while
/// shard node 0 sends a message ring around the shards; the receiving
/// handler bumps a counter and records the hop arrival time.
fn lock_ring(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let lock = AnyLock::make(m, 0, LockAlg::Reactive, n);
    let counter = m.alloc_on(0, 1);
    for local in 0..n {
        m.register_handler(local, Port(40), |hctx, args| {
            hctx.bump("ring_hops", 1);
            let hop = hctx.now().saturating_sub(args[0]);
            hctx.record_wait("ring_hop_latency", hop);
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let mail = ctx.mail();
        let (base, total) = (ctx.node_base, ctx.total_nodes);
        m.spawn(p, async move {
            for _ in 0..8u64 {
                let t = lock.acquire(&cpu).await;
                cpu.fetch_and_add(counter, 1).await;
                cpu.work(cpu.rand_below(60)).await;
                lock.release(&cpu, t).await;
                if p == 0 {
                    let dest = (base + cpu.rand_below(3) as usize + n) % total;
                    let dest = if dest >= base && dest < base + n {
                        (base + n) % total
                    } else {
                        dest
                    };
                    mail.post(cpu.now(), base, dest, Port(40), [cpu.now(), 0, 0, 0]);
                }
            }
        });
    }
}

/// Workload 2: all-to-all storm — every node posts to a strided remote
/// destination, and the destination's handler posts a cross-shard reply
/// back (handler-originated mail).
fn storm(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let (base, total) = (ctx.node_base, ctx.total_nodes);
    for local in 0..n {
        let mail = ctx.mail();
        let me = base + local;
        m.register_handler(local, Port(41), move |hctx, args| {
            hctx.bump("storm_recv", 1);
            if args[1] == 0 {
                // Reply once; args[1] = 1 marks a reply so it stops.
                let sender = hctx.sender();
                hctx.bump("storm_reply", 1);
                let now = hctx.now();
                mail.post(now, me, sender, Port(41), [now, 1, 0, 0]);
            }
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let mail = ctx.mail();
        m.spawn(p, async move {
            let me = base + p;
            for i in 1..5u64 {
                cpu.work(20 + cpu.rand_below(50)).await;
                let dest = (me + i as usize * 7) % total;
                if dest < base || dest >= base + n {
                    mail.post(cpu.now(), me, dest, Port(41), [cpu.now(), 0, 0, 0]);
                }
            }
        });
    }
}

/// Workload 3: shard-local counter mix, uneven shard split, widened
/// epoch window (coarser lookahead must not change the results of
/// either mode relative to the other).
fn mixed_uneven(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let counter = m.alloc_on(n / 2, 1);
    m.register_handler(0, Port(42), |hctx, _| {
        hctx.bump("mixed_msgs", 1);
    });
    for p in 0..n {
        let cpu = m.cpu(p);
        let mail = ctx.mail();
        let (base, total) = (ctx.node_base, ctx.total_nodes);
        m.spawn(p, async move {
            for _ in 0..10u64 {
                cpu.fetch_and_add(counter, 1).await;
                cpu.work(cpu.rand_below(30)).await;
            }
            if p + 1 == n {
                // Last node of the shard pokes the next shard once.
                let dest = (base + n) % total;
                mail.post(cpu.now(), base + p, dest, Port(42), [0; 4]);
            }
        });
    }
}

/// Posts per node in each of [`dense_burst`]'s two bursts.
const BURST: u64 = 1_500;

/// Workload 4: every node posts two bursts of [`BURST`] messages to the
/// next shard. With 4 nodes per shard, the first epoch puts 6,000
/// messages into one lane: a lane must not cap an epoch's traffic.
fn dense_burst(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let (n, base, total) = (ctx.shard_nodes, ctx.node_base, ctx.total_nodes);
    for local in 0..n {
        m.register_handler(local, Port(43), |hctx, _| hctx.bump("dense_recv", 1));
    }
    for p in 0..n {
        let (cpu, mail) = (m.cpu(p), ctx.mail());
        m.spawn(p, async move {
            for round in 0..2 {
                for i in 0..BURST {
                    let dest = (base + p + n) % total;
                    mail.post(cpu.now(), base + p, dest, Port(43), [round, i, 0, 0]);
                }
                cpu.work(100 + cpu.rand_below(100)).await;
            }
        });
    }
}

#[test]
fn conformance_lock_ring() {
    check_both_modes(
        "lock_ring",
        32,
        ParallelConfig {
            workers: 4,
            epoch_window: 0,
        },
        0xC0FF_EE01,
        lock_ring,
    );
}

#[test]
fn conformance_storm() {
    check_both_modes(
        "storm",
        24,
        ParallelConfig {
            workers: 6,
            epoch_window: 0,
        },
        0xC0FF_EE02,
        storm,
    );
}

#[test]
fn conformance_mixed_uneven() {
    check_both_modes(
        "mixed_uneven",
        22,
        ParallelConfig {
            workers: 5,
            epoch_window: 400,
        },
        0xC0FF_EE03,
        mixed_uneven,
    );
}

#[test]
fn conformance_dense_burst() {
    let pcfg = ParallelConfig {
        workers: 2,
        epoch_window: 0,
    };
    let r = check_both_modes("dense_burst", 8, pcfg, 0xC0FF_EE04, dense_burst);
    assert_eq!(r.stats.counter("dense_recv"), 8 * 2 * BURST);
}

/// A shard whose setup or workload panics fails `run_parallel` with its
/// own panic instead of leaving its peers parked at an epoch barrier.
/// The run sits on a helper thread so that a hang fails at the timeout.
#[test]
fn shard_panic_fails_the_parallel_run() {
    for mid_run in [false, true] {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pcfg = ParallelConfig {
                workers: 4,
                epoch_window: 0,
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                Cluster::new(16, Config::default(), pcfg).run_parallel(|ctx| {
                    lock_ring(ctx);
                    if ctx.shard == 2 {
                        assert!(mid_run, "deliberate setup failure");
                        let cpu = ctx.machine.cpu(0);
                        ctx.machine.spawn(0, async move {
                            cpu.work(500).await;
                            panic!("deliberate workload failure");
                        });
                    }
                })
            }));
            let _ = tx.send(run.err().and_then(|p| p.downcast_ref::<&str>().copied()));
        });
        let msg = rx.recv_timeout(Duration::from_secs(30));
        let want = if mid_run { "workload" } else { "setup" };
        let expected = format!("deliberate {want} failure");
        assert_eq!(msg, Ok(Some(expected.as_str())), "no prompt shard panic");
        helper.join().expect("helper thread panicked");
    }
}
