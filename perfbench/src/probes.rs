//! Isolated probe loops, one per layer operation, reported as host ns
//! per operation. The first five are the `examples/profile_hotpath.rs`
//! loops; the rest time the stats, parallel, limiter and native-service
//! operations directly. Each probe runs `REPEATS` times and reports the
//! median.

use std::hint::black_box;
use std::time::{Duration, Instant};

use alewife_sim::parallel::{Cluster, ParallelConfig};
use alewife_sim::{Config, CostModel, Cpu, Machine, Port, Stats};
use lock_service::{ArenaMode, LimiterConfig, NativeService, TokenBucket};
use reactive_api::{Decision, Observation, Policy, ProtocolId};

use crate::quantile;

const REPEATS: usize = 3;

/// The per-layer counts a workload reports (zero where it does not
/// reach the layer), with their units.
pub const LAYER_COUNTS: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.cycles", "cycles"),
    ("coherence.dir_requests", "count"),
    ("coherence.remote_misses", "count"),
    ("coherence.invalidations", "count"),
    ("net.msgs", "count"),
    ("stats.waits_recorded", "count"),
    ("stats.bumps", "count"),
    ("thread.blocks", "count"),
    ("parallel.epochs", "count"),
    ("parallel.remote_msgs", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.sync_s", "s"),
    ("parallel.balance", "ratio"),
    ("service.inflations", "count"),
    ("service.deflations", "count"),
    ("service.live_inflated", "count"),
    ("service.slab_entries", "count"),
    ("native.lock_switches", "count"),
    ("service.useful_ratio", "ratio"),
    ("arena.footprint_bytes", "bytes"),
    ("service.switch_log_bytes", "bytes"),
    ("service.attempts", "count"),
    ("service.hot_object_grants", "count"),
    ("service.cold_object_grants", "count"),
];

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    quantile(&mut v, 0.5)
}

/// Run a built machine; host ns per executor event.
fn ns_per_event(m: &Machine) -> f64 {
    let t0 = Instant::now();
    m.run();
    t0.elapsed().as_nanos() as f64 / m.stats().sim_events as f64
}

async fn deep8(cpu: &Cpu, n: u64) {
    async fn d1(cpu: &Cpu) {
        cpu.work(3).await
    }
    async fn d2(cpu: &Cpu) {
        d1(cpu).await
    }
    async fn d3(cpu: &Cpu) {
        d2(cpu).await
    }
    async fn d4(cpu: &Cpu) {
        d3(cpu).await
    }
    async fn d5(cpu: &Cpu) {
        d4(cpu).await
    }
    async fn d6(cpu: &Cpu) {
        d5(cpu).await
    }
    async fn d7(cpu: &Cpu) {
        d6(cpu).await
    }
    for _ in 0..n {
        d7(cpu).await;
    }
}

/// Executor only: one task, `work` events.
fn exec_work() -> f64 {
    let m = Machine::new(Config::default().nodes(1));
    let cpu = m.cpu(0);
    m.spawn(0, async move {
        for _ in 0..500_000u64 {
            cpu.work(3).await;
        }
    });
    ns_per_event(&m)
}

/// Future polling: 64 tasks, an 8-deep await chain per event.
fn poll_chain() -> f64 {
    let m = Machine::new(Config::default().nodes(64));
    for p in 0..64 {
        let cpu = m.cpu(p);
        m.spawn(p, async move { deep8(&cpu, 8_000).await });
    }
    ns_per_event(&m)
}

/// Cache-hit reads: 64 tasks.
fn cached_read() -> f64 {
    let m = Machine::new(Config::default().nodes(64));
    for p in 0..64 {
        let a = m.alloc_on(p, 1);
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            for _ in 0..8_000u64 {
                cpu.read(a).await;
            }
        });
    }
    ns_per_event(&m)
}

/// Watcher wakes: 32 pairs ping-pong through `poll_until`; host ns per
/// wake (two per round trip).
fn pingpong() -> f64 {
    const TRIPS: u64 = 4_000;
    let m = Machine::new(Config::default().nodes(64));
    for pair in 0..32usize {
        let a = m.alloc_on(2 * pair, 1);
        let b = m.alloc_on(2 * pair + 1, 1);
        let c0 = m.cpu(2 * pair);
        let c1 = m.cpu(2 * pair + 1);
        m.spawn(2 * pair, async move {
            for i in 1..=TRIPS {
                c0.write(a, i).await;
                c0.poll_until(b, move |v| v >= i).await;
            }
        });
        m.spawn(2 * pair + 1, async move {
            for i in 1..=TRIPS {
                c1.poll_until(a, move |v| v >= i).await;
                c1.write(b, i).await;
            }
        });
    }
    let t0 = Instant::now();
    m.run();
    t0.elapsed().as_nanos() as f64 / (32 * 2 * TRIPS) as f64
}

/// Directory path: 64 tasks contend on one `fetch_and_add` word; host
/// ns per directory request.
fn contended_faa() -> f64 {
    let m = Machine::new(Config::default().nodes(64));
    let a = m.alloc_on(0, 1);
    for p in 0..64 {
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            for _ in 0..2_000u64 {
                cpu.fetch_and_add(a, 1).await;
            }
        });
    }
    let t0 = Instant::now();
    m.run();
    t0.elapsed().as_nanos() as f64 / m.stats().dir_requests as f64
}

fn stats_record_wait() -> f64 {
    const N: u64 = 1_000_000;
    let mut s = Stats::default();
    let t0 = Instant::now();
    for i in 0..N {
        s.record_wait(black_box("mutex"), i & 1023);
    }
    let dt = t0.elapsed().as_nanos() as f64;
    black_box(&s);
    dt / N as f64
}

fn stats_bump() -> f64 {
    const N: u64 = 2_000_000;
    let mut s = Stats::default();
    let t0 = Instant::now();
    for _ in 0..N {
        s.bump(black_box("mutex"), 1);
    }
    let dt = t0.elapsed().as_nanos() as f64;
    black_box(&s);
    dt / N as f64
}

/// A 4-node, 2-tile cluster on `run_parallel` whose node 0 of each tile
/// does `steps` steps of `step` cycles and posts `posts` cross-tile
/// messages per step. Returns (wall ns, epochs, messages).
fn small_cluster(steps: u64, step: u64, posts: u64, window: u64) -> (f64, u64, u64) {
    let c = Cluster::new(
        4,
        Config::default().cost(CostModel::nwo()),
        ParallelConfig {
            workers: 2,
            epoch_window: window,
        },
    );
    let step = if step == 0 { c.lookahead() } else { step };
    let r = c.run_parallel(move |ctx| {
        let m = ctx.machine;
        for p in 0..ctx.shard_nodes {
            m.register_handler(p, Port(62), |_, _| {});
        }
        let cpu = m.cpu(0);
        let mail = ctx.mail();
        let (base, total, n) = (ctx.node_base, ctx.total_nodes, ctx.shard_nodes);
        m.spawn(0, async move {
            for i in 0..steps {
                cpu.work(step).await;
                for _ in 0..posts {
                    mail.post(cpu.now(), base, (base + n) % total, Port(62), [i, 0, 0, 0]);
                }
            }
        });
    });
    (r.wall_secs * 1e9, r.epochs, r.remote_msgs)
}

/// Per-epoch cost of a near-empty cluster: one event per tile per
/// epoch.
fn parallel_epoch() -> f64 {
    let (ns, epochs, _) = small_cluster(10_000, 0, 0, 0);
    ns / epochs.max(1) as f64
}

/// Per-message post + routing + delivery: the same cluster with and
/// without 4 posts per step.
fn parallel_post() -> f64 {
    let (with, _, msgs) = small_cluster(40_000, 100, 4, 60_000);
    let (without, _, _) = small_cluster(40_000, 100, 0, 60_000);
    (with - without) / msgs.max(1) as f64
}

fn acquire_drop(svc: &NativeService, deadline: Option<Duration>) -> f64 {
    const N: u64 = 1_000_000;
    for _ in 0..1_000 {
        drop(svc.acquire(0, deadline));
    }
    let t0 = Instant::now();
    for _ in 0..N {
        let g = svc.acquire(black_box(0), deadline);
        drop(black_box(g));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

fn flat_service() -> NativeService {
    NativeService::new(1024, 16, Some(LimiterConfig::default()))
}

/// Uncontended flat acquire + drop.
fn flat_acquire() -> f64 {
    acquire_drop(&flat_service(), None)
}

/// The deadline's cost: the flat probe with a deadline minus without.
fn deadline_cost() -> f64 {
    let svc = flat_service();
    let with = acquire_drop(&svc, Some(Duration::from_secs(1)));
    let without = acquire_drop(&svc, None);
    with - without
}

/// Uncontended acquire + drop of an inflated object (`StaticQueue`
/// inflates on the first release): slab lookup, `Arc` clone, kernel.
fn inflated_acquire() -> f64 {
    let svc = NativeService::with_mode(
        1024,
        16,
        Some(LimiterConfig::default()),
        ArenaMode::StaticQueue,
    );
    let ns = acquire_drop(&svc, None);
    assert!(svc.inflations() >= 1, "StaticQueue probe never inflated");
    ns
}

fn limiter_try_acquire() -> f64 {
    const N: u64 = 5_000_000;
    let mut b = TokenBucket::new(LimiterConfig::default());
    let t0 = Instant::now();
    for i in 0..N {
        black_box(b.try_acquire(black_box(i * 7)));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// A policy that asks for a switch on every observation.
struct FlipFlop;

impl Policy for FlipFlop {
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision::SwitchTo(ProtocolId(1 - obs.current.0))
    }
}

/// A policy that never switches.
struct Stay;

impl Policy for Stay {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}

/// Native release cost under `policy`, ns per acquire + release.
fn native_release(policy: impl Policy + Send + 'static) -> f64 {
    const N: u64 = 200_000;
    let lock = reactive_native::ReactiveLock::builder()
        .policy(policy)
        .build();
    for _ in 0..64 {
        let h = lock.acquire();
        lock.release(h);
    }
    let t0 = Instant::now();
    for _ in 0..N {
        let h = lock.acquire();
        lock.release(h);
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// The `switch_cost` method: every release of a flip-flopping lock
/// switches, so twice (flip − stay) is one round trip.
fn switch_round_trip() -> f64 {
    2.0 * (native_release(FlipFlop) - native_release(Stay))
}

/// A probe's metric name and its loop.
type Probe = (&'static str, fn() -> f64);

/// Every probe, in report order.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let probes: [Probe; 14] = [
        ("exec.work_ns", exec_work),
        ("exec.poll_chain_ns", poll_chain),
        ("cpu.cached_read_ns", cached_read),
        ("thread.pingpong_ns", pingpong),
        ("coherence.faa_ns", contended_faa),
        ("stats.record_wait_ns", stats_record_wait),
        ("stats.bump_ns", stats_bump),
        ("parallel.epoch_ns", parallel_epoch),
        ("parallel.post_ns", parallel_post),
        ("service.flat_acquire_ns", flat_acquire),
        ("service.deadline_ns", deadline_cost),
        ("service.inflated_acquire_ns", inflated_acquire),
        ("limiter.try_acquire_ns", limiter_try_acquire),
        ("native.switch_round_trip_ns", switch_round_trip),
    ];
    probes.iter().map(|&(n, f)| (n, median_of(f))).collect()
}
