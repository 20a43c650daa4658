//! Conservative parallel discrete-event simulation: the machine sharded
//! by node.
//!
//! A [`Cluster`] partitions a large simulated machine into `workers`
//! contiguous node ranges (*shards*). Each shard is a complete
//! [`Machine`] — its own calendar queue, directory, handler tables, and
//! thread runtime — so all PR-2 hot-path structure carries over
//! unchanged. Shards interact only through **cross-shard active
//! messages** posted to a [`RemoteMail`] and routed by the scheduler.
//!
//! ## The conservative scheme
//!
//! Cross-shard delivery latency is bounded below by the *lookahead*
//!
//! ```text
//! L = msg_send + max(min cross-shard mesh latency, epoch_window)
//! ```
//!
//! where the mesh latency comes from the global topology (the smallest
//! square mesh over all nodes, the same `net.rs` rule every shard uses
//! internally) minimized over node pairs in different shards. Execution
//! proceeds in epochs: with `m` the minimum next-event time over all
//! shards, every event with `time < m + L` is *safe* — no message
//! posted at or after `m` can be delivered before `m + L` — so each
//! shard runs its local queue up to the horizon `m + L`, then all
//! shards exchange the messages posted during the epoch and the horizon
//! recomputes. This is the classic synchronization-window scheme of
//! conservative PDES with the lookahead derived from the mesh-hop
//! minimum latency.
//!
//! `epoch_window` (see [`ParallelConfig`]) trades cross-shard latency
//! fidelity for epoch length: raising it declares a larger minimum
//! cross-shard delivery latency, which admits proportionally more
//! events per barrier. Both execution modes honor the same declared
//! latency, so the trade is a *modeling* choice, never a divergence
//! between modes.
//!
//! ## Determinism and the two modes
//!
//! [`Cluster::run_serial`] executes the epoch algorithm on one thread —
//! shards in index order inside each epoch — and is bit-deterministic
//! like the sequential simulator. [`Cluster::run_parallel`] runs one OS
//! thread per shard. Both modes drive the *same* epoch step over the
//! same cross-shard transport: one unbounded lane per ordered shard
//! pair, appended to while the sender runs its epoch and drained in
//! sender-shard order only after the epoch's closing barrier. Per-shard
//! execution is sequential and deterministic, injection order is fixed
//! by (sender shard, post order), and horizon choices depend only on
//! exchanged next-event times — so the parallel run produces
//! **identical** [`Stats`] to the serial run regardless of thread
//! interleaving (asserted by `tests/parallel_conformance.rs`). A shard
//! that panics fails the run in either mode: the threaded mode releases
//! the peers parked at the epoch barrier and re-raises the panic.
//!
//! A causality detector guards the conservative invariant: every
//! delivery is checked against the receiving shard's executed-to
//! watermark. Debug builds panic on a violation; release builds count
//! it in [`ClusterReport::causality_violations`] (the safe-horizon
//! proptest drives random topologies through both modes and asserts the
//! count stays zero).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::machine::{Config, Machine};
use crate::msg::Port;
use crate::net;
use crate::stats::Stats;

/// Parallel-execution knobs for a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of shards — and, in [`Cluster::run_parallel`], worker
    /// threads. The serial mode shards the machine identically and
    /// executes the shards on one thread.
    pub workers: usize,
    /// Declared minimum cross-shard delivery latency in cycles (0 keeps
    /// the pure mesh-derived lookahead). Larger windows admit more
    /// events per epoch barrier at the price of coarser cross-shard
    /// latency; both modes apply the same declared latency.
    pub epoch_window: u64,
}

/// A cross-shard active message in flight between two shards.
#[derive(Clone, Copy, Debug)]
struct RemoteMsg {
    /// Absolute delivery time (post time + declared latency).
    deliver_at: u64,
    /// Global sender node.
    from: usize,
    /// Global destination node.
    dest: usize,
    port: u32,
    args: [u64; 4],
}

/// Topology and pricing shared by every shard's [`RemoteMail`].
struct MailWorld {
    /// Global mesh coordinates for all nodes.
    coords: Vec<(u16, u16)>,
    cost: CostModel,
    epoch_window: u64,
}

/// A shard's outbox for cross-shard active messages. Cheap to clone;
/// workload futures and handlers capture it and post fire-and-forget
/// messages to nodes owned by other shards (a reply travels back as
/// another posted message from the destination's handler).
#[derive(Clone)]
pub struct RemoteMail {
    world: Arc<MailWorld>,
    /// This shard's global node range.
    base: usize,
    len: usize,
    buf: Rc<RefCell<Vec<RemoteMsg>>>,
}

impl RemoteMail {
    /// Post an active message from global node `from` (owned by this
    /// shard) to global node `dest` (owned by another shard), sent at
    /// virtual time `now` (the poster's current time, e.g.
    /// `cpu.now()` or `HandlerCtx::now`). Delivery is priced at
    /// `msg_send + max(mesh latency, epoch_window)` on the global
    /// topology.
    ///
    /// # Panics
    /// If `from` is outside this shard or `dest` is inside it (local
    /// communication goes through the shard machine, whose latencies
    /// may undercut the cross-shard lookahead).
    pub fn post(&self, now: u64, from: usize, dest: usize, port: Port, args: [u64; 4]) {
        assert!(
            from >= self.base && from < self.base + self.len,
            "RemoteMail::post: sender {from} not owned by this shard"
        );
        assert!(
            dest < self.world.coords.len(),
            "RemoteMail::post: destination {dest} out of range"
        );
        assert!(
            dest < self.base || dest >= self.base + self.len,
            "RemoteMail::post: {dest} is shard-local; use the machine's own messaging"
        );
        let w = &self.world;
        let hops = net::hops_between(w.coords[from], w.coords[dest]);
        let lat = net::latency_for_hops(&w.cost, hops).max(w.epoch_window);
        self.buf.borrow_mut().push(RemoteMsg {
            deliver_at: now + w.cost.msg_send + lat,
            from,
            dest,
            port: port.0,
            args,
        });
    }
}

/// The view of one shard handed to the setup closure: the shard-local
/// [`Machine`] plus the global/local node mapping and the cross-shard
/// mail.
pub struct ShardCtx<'a> {
    /// The shard-local machine (`shard_nodes` nodes, ids `0..len`).
    pub machine: &'a Machine,
    /// Shard index.
    pub shard: usize,
    /// First global node id owned by this shard.
    pub node_base: usize,
    /// Number of nodes in this shard.
    pub shard_nodes: usize,
    /// Total nodes across the cluster.
    pub total_nodes: usize,
    mail: RemoteMail,
}

impl ShardCtx<'_> {
    /// The shard's cross-shard outbox (clone it into futures/handlers).
    pub fn mail(&self) -> RemoteMail {
        self.mail.clone()
    }
}

/// The merged result of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Shard stats folded in shard order: scalars/counters/histograms
    /// via [`Stats::absorb`], per-node RMR vectors concatenated so they
    /// are indexed by *global* node id.
    pub stats: Stats,
    /// Maximum final virtual time over the shards.
    pub elapsed: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// The lookahead `L` the horizons used (cycles).
    pub lookahead: u64,
    /// Cross-shard messages delivered.
    pub remote_msgs: u64,
    /// Unfinished tasks summed over shards (nonzero = deadlock).
    pub live_tasks: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Per-shard wall-clock seconds spent executing events (excludes
    /// barrier waits and routing).
    pub busy_secs: Vec<f64>,
    /// Sum over epochs of the *maximum* per-shard busy time — the
    /// critical path of the epoch schedule. `events / critical_path`
    /// is the aggregate event rate on a host with at least `workers`
    /// idle cores; meaningful in serial mode, where per-shard timing is
    /// not contaminated by core oversubscription.
    pub critical_path_secs: f64,
    /// The same critical path in *events*: sum over epochs of the
    /// maximum per-shard executed-event count. Deterministic and
    /// build-independent (unlike the wall-clock variant), so claims can
    /// gate on `stats.sim_events / critical_path_events` — the
    /// schedule's exposed parallelism. Measured by [`Cluster::run_serial`];
    /// the threaded mode reports 0 and defers to the serial reference.
    pub critical_path_events: u64,
    /// Deliveries that violated the safe-horizon invariant (always 0
    /// while the lookahead bound is sound; debug builds panic instead).
    pub causality_violations: u64,
}

/// The cross-shard transport both run modes share: `lanes[dst][src]`
/// holds what shard `src` posted to shard `dst` (self lanes stay empty).
/// A sender appends only while it runs an epoch and a receiver drains
/// only after that epoch's closing barrier, so no lane lock is ever
/// contended and no lane needs a capacity bound. A guard is held only
/// for a push or a take, neither of which panics, so no lane is ever
/// poisoned.
type Lanes = Vec<Vec<Mutex<Vec<RemoteMsg>>>>;

fn empty_lanes(w: usize) -> Lanes {
    (0..w)
        .map(|_| (0..w).map(|_| Mutex::default()).collect())
        .collect()
}

/// One shard's runtime while a cluster executes.
struct ShardRt {
    shard: usize,
    machine: Machine,
    mail: RemoteMail,
    /// Horizon watermark: every event up to and including this time has
    /// been executed (the causality detector's reference point).
    executed_to: u64,
    epochs: u64,
    busy: Duration,
    delivered: u64,
    violations: u64,
}

impl ShardRt {
    /// Inject last epoch's cross-shard messages, lane by lane in sender
    /// shard order and in post order within a lane — the canonical
    /// injection order — checking each against the safe-horizon
    /// watermark.
    fn deliver(&mut self, lanes: &Lanes) {
        for lane in &lanes[self.shard] {
            // horizon: a lane is drained only after the closing barrier
            // of the epoch its messages were posted in, and each carries
            // deliver_at >= the horizon that epoch executed to, so no
            // delivery lands in this shard's executed past (re-checked
            // against the watermark below).
            let msgs = std::mem::take(&mut *lane.lock().expect("lane poisoned"));
            for m in msgs {
                if m.deliver_at <= self.executed_to {
                    debug_assert!(
                        false,
                        "causality violation: delivery at {} but shard executed through {}",
                        m.deliver_at, self.executed_to
                    );
                    self.violations += 1;
                }
                self.delivered += 1;
                let local = m.dest - self.mail.base;
                self.machine
                    .inject_message(local, m.from, Port(m.port), m.args, m.deliver_at);
            }
        }
    }

    /// Run one epoch: execute every event before `horizon`, then route
    /// the epoch's posts into the outbound lanes in post order. Returns
    /// the wall time and the number of events the epoch took.
    fn advance(&mut self, horizon: u64, cluster: &Cluster, lanes: &Lanes) -> (Duration, u64) {
        let ev0 = self.machine.events_executed();
        let t0 = Instant::now();
        self.machine.run_until(horizon - 1);
        self.executed_to = horizon - 1;
        for msg in self.mail.buf.take() {
            // horizon: posts from this epoch carry deliver_at >= horizon
            // (post time >= m, latency >= lookahead), and the receiver
            // drains only after this epoch's closing barrier.
            lanes[cluster.shard_of(msg.dest)][self.shard]
                .lock()
                .expect("lane poisoned")
                .push(msg);
        }
        let dt = t0.elapsed();
        self.busy += dt;
        self.epochs += 1;
        (dt, self.machine.events_executed() - ev0)
    }

    fn finish(self) -> ShardDone {
        ShardDone {
            stats: self.machine.stats(),
            live_tasks: self.machine.live_tasks(),
            elapsed: self.machine.now(),
            busy: self.busy,
            delivered: self.delivered,
            violations: self.violations,
            epochs: self.epochs,
        }
    }
}

/// One shard's final accounting, independent of execution mode.
struct ShardDone {
    stats: Stats,
    live_tasks: usize,
    elapsed: u64,
    busy: Duration,
    delivered: u64,
    violations: u64,
    epochs: u64,
}

/// A sharded simulated machine executable serially (deterministic
/// reference) or on one thread per shard (same results, more cores).
/// See the module docs for the scheme.
pub struct Cluster {
    nodes: usize,
    base: Config,
    /// `(base, len)` per shard: contiguous, covering `0..nodes`.
    ranges: Vec<(usize, usize)>,
    world: Arc<MailWorld>,
    lookahead: u64,
}

impl Cluster {
    /// Shard a `nodes`-node machine into `pcfg.workers` contiguous
    /// ranges (near-even: the first `nodes % workers` shards get one
    /// extra node). `base` is the per-shard machine template — its
    /// `nodes` is overridden per shard, its seed is offset by the shard
    /// index so shards draw distinct deterministic streams.
    ///
    /// # Panics
    /// If `workers` is 0 or exceeds `nodes`, or the template carries a
    /// fault plan (fault injection is single-machine-only for now).
    pub fn new(nodes: usize, base: Config, pcfg: ParallelConfig) -> Cluster {
        let w = pcfg.workers;
        assert!(w > 0, "a cluster needs at least one shard");
        assert!(w <= nodes, "more shards ({w}) than nodes ({nodes})");
        assert!(
            base.faults.entries.is_empty(),
            "fault plans are not supported in sharded mode yet"
        );
        let per = nodes / w;
        let extra = nodes % w;
        let mut ranges = Vec::with_capacity(w);
        let mut at = 0;
        for s in 0..w {
            let len = per + usize::from(s < extra);
            ranges.push((at, len));
            at += len;
        }
        debug_assert_eq!(at, nodes);
        let world = Arc::new(MailWorld {
            coords: net::coords_for(nodes),
            cost: base.cost.clone(),
            epoch_window: pcfg.epoch_window,
        });
        let lookahead = Self::compute_lookahead(&world, &ranges);
        Cluster {
            nodes,
            base,
            ranges,
            world,
            lookahead,
        }
    }

    /// The epoch lookahead `L`: `msg_send` plus the declared minimum
    /// cross-shard latency (mesh-derived, floored by `epoch_window`).
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    fn compute_lookahead(world: &MailWorld, ranges: &[(usize, usize)]) -> u64 {
        // Minimum mesh distance between nodes in different shards.
        // O(n^2) scan at setup only, with an early exit at the floor.
        let mut min_hops = u64::MAX;
        'outer: for (si, &(b1, l1)) in ranges.iter().enumerate() {
            for &(b2, l2) in &ranges[si + 1..] {
                for a in b1..b1 + l1 {
                    for b in b2..b2 + l2 {
                        let h = net::hops_between(world.coords[a], world.coords[b]);
                        min_hops = min_hops.min(h);
                        if min_hops <= 1 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        let mesh_min = if min_hops == u64::MAX {
            // Single shard: no cross-shard traffic; any positive value
            // works.
            1
        } else {
            net::latency_for_hops(&world.cost, min_hops)
        };
        let l = world.cost.msg_send + mesh_min.max(world.epoch_window);
        l.max(1)
    }

    /// Build shard `s`'s machine and hand it to the setup closure.
    fn build_shard(&self, s: usize, setup: &(impl Fn(&ShardCtx<'_>) + ?Sized)) -> ShardRt {
        let (base, len) = self.ranges[s];
        let cfg = self
            .base
            .clone()
            .nodes(len)
            .seed(self.base.seed.wrapping_add(s as u64));
        let machine = Machine::new(cfg);
        let mail = RemoteMail {
            world: self.world.clone(),
            base,
            len,
            buf: Rc::new(RefCell::new(Vec::new())),
        };
        setup(&ShardCtx {
            machine: &machine,
            shard: s,
            node_base: base,
            shard_nodes: len,
            total_nodes: self.nodes,
            mail: mail.clone(),
        });
        ShardRt {
            shard: s,
            machine,
            mail,
            executed_to: 0,
            epochs: 0,
            busy: Duration::ZERO,
            delivered: 0,
            violations: 0,
        }
    }

    /// Run the sharded machine to completion on one thread: the
    /// deterministic reference execution of the epoch algorithm (shards
    /// in index order within each epoch). Also measures the per-epoch
    /// critical path, which parallel-host throughput projections are
    /// read from.
    pub fn run_serial(&self, setup: impl Fn(&ShardCtx<'_>)) -> ClusterReport {
        let t_run = Instant::now();
        let lanes = empty_lanes(self.ranges.len());
        let mut shards: Vec<ShardRt> = (0..self.ranges.len())
            .map(|s| self.build_shard(s, &setup))
            .collect();
        let mut critical_path = Duration::ZERO;
        let mut cp_events = 0u64;
        loop {
            for rt in &mut shards {
                rt.deliver(&lanes);
            }
            let Some(m) = shards
                .iter()
                .filter_map(|rt| rt.machine.next_event_time())
                .min()
            else {
                break;
            };
            let mut epoch_max = Duration::ZERO;
            let mut epoch_max_ev = 0u64;
            for rt in &mut shards {
                let (dt, ev) = rt.advance(m + self.lookahead, self, &lanes);
                epoch_max = epoch_max.max(dt);
                epoch_max_ev = epoch_max_ev.max(ev);
            }
            critical_path += epoch_max;
            cp_events += epoch_max_ev;
        }
        let done = shards.into_iter().map(ShardRt::finish).collect();
        self.report(done, critical_path, cp_events, t_run.elapsed())
    }

    /// Run the sharded machine with one OS thread per shard under the
    /// conservative epoch protocol. Produces [`Stats`] identical to
    /// [`Cluster::run_serial`] for the same setup (the cross-mode
    /// conformance contract); wall time reflects the host's real
    /// parallelism.
    ///
    /// Each worker's epoch is deliver → publish → barrier → read-all →
    /// advance → barrier. A worker republishes only after the second
    /// barrier, which every peer reaches only after reading, so two
    /// barriers per epoch suffice; the exit decision is computed from
    /// identical published values, so all workers stop together.
    ///
    /// # Panics
    /// Re-raises the panic of a shard whose setup or workload panicked,
    /// after releasing the other workers.
    pub fn run_parallel(&self, setup: impl Fn(&ShardCtx<'_>) + Send + Sync) -> ClusterReport {
        let t_run = Instant::now();
        let w = self.ranges.len();
        let lanes = empty_lanes(w);
        // next_times[s]: shard s's published next-event time (u64::MAX
        // = drained). Workers read all slots between the two barriers.
        let next_times: Vec<AtomicU64> = (0..w).map(|_| AtomicU64::new(0)).collect();
        let barrier = Barrier::new(w);
        // Barrier rounds count from 1. A worker that panics publishes the
        // round at which it meets its peers, and they stop there instead
        // of waiting for it at the next one.
        let abort_round = AtomicU64::new(0);
        let (lanes, next_times, barrier) = (&lanes, &next_times, &barrier);
        let (abort_round, setup) = (&abort_round, &setup);
        let results: Vec<_> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..w)
                .map(|s| {
                    sc.spawn(move || {
                        let round = Cell::new(0u64);
                        // Wait at the barrier; false once a peer aborted.
                        let meet = || {
                            barrier.wait();
                            round.set(round.get() + 1);
                            // order: Acquire pairs with the Release store
                            // below (the barrier already synchronizes).
                            abort_round.load(Ordering::Acquire) != round.get()
                        };
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            let mut rt = self.build_shard(s, setup);
                            loop {
                                rt.deliver(lanes);
                                let next = rt.machine.next_event_time().unwrap_or(u64::MAX);
                                // order: Release publish / Acquire read
                                // pair with the barrier; the barrier
                                // already synchronizes, the ordering just
                                // keeps the slot handoff locally obvious.
                                next_times[s].store(next, Ordering::Release);
                                if !meet() {
                                    return None;
                                }
                                let m = next_times
                                    .iter()
                                    .map(|t| t.load(Ordering::Acquire)) // order: see store above
                                    .min()
                                    .expect("at least one shard");
                                if m == u64::MAX {
                                    return Some(rt);
                                }
                                rt.advance(m + self.lookahead, self, lanes);
                                if !meet() {
                                    return None;
                                }
                            }
                        }));
                        let rt = run.unwrap_or_else(|payload| {
                            // order: Release pairs with the Acquire in
                            // `meet`, ahead of the barrier the peers are
                            // parked at (or heading to).
                            abort_round.store(round.get() + 1, Ordering::Release);
                            barrier.wait();
                            resume_unwind(payload)
                        });
                        rt.map(ShardRt::finish)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let done = match results.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(done) => done.into_iter().flatten().collect(),
            Err(payload) => resume_unwind(payload),
        };
        // Critical-path accounting is measured by the serial reference.
        self.report(done, Duration::ZERO, 0, t_run.elapsed())
    }

    /// Shard owning global node `g` (ranges are contiguous).
    fn shard_of(&self, g: usize) -> usize {
        // Near-even split: direct computation instead of binary search.
        let w = self.ranges.len();
        let per = self.nodes / w;
        let extra = self.nodes % w;
        let boundary = extra * (per + 1);
        if g < boundary {
            g / (per + 1)
        } else {
            extra + (g - boundary) / per
        }
    }

    fn report(
        &self,
        shards: Vec<ShardDone>,
        critical_path: Duration,
        cp_events: u64,
        wall: Duration,
    ) -> ClusterReport {
        let mut stats = Stats::default();
        let mut elapsed = 0;
        let mut epochs = 0;
        let mut live = 0;
        let mut remote = 0;
        let mut violations = 0;
        let mut busy_secs = Vec::with_capacity(shards.len());
        for mut d in shards {
            // Per-node vectors concatenate in shard order so the merged
            // stats index by global node id; everything else absorbs.
            stats.rmr_cc.append(&mut d.stats.rmr_cc);
            stats.rmr_dsm.append(&mut d.stats.rmr_dsm);
            stats.absorb(&d.stats);
            elapsed = elapsed.max(d.elapsed);
            epochs = d.epochs; // identical across shards by construction
            live += d.live_tasks;
            remote += d.delivered;
            violations += d.violations;
            busy_secs.push(d.busy.as_secs_f64());
        }
        ClusterReport {
            stats,
            elapsed,
            epochs,
            lookahead: self.lookahead,
            remote_msgs: remote,
            live_tasks: live,
            wall_secs: wall.as_secs_f64(),
            busy_secs,
            critical_path_secs: critical_path.as_secs_f64(),
            critical_path_events: cp_events,
            causality_violations: violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter-ring workload: every node hammers a shard-local
    /// counter, and each shard's node 0 posts a message around the
    /// shard ring; the destination handler bumps a named counter.
    fn ring_setup(ctx: &ShardCtx<'_>) {
        let m = ctx.machine;
        let counter = m.alloc_on(0, 1);
        let mail = ctx.mail();
        let total = ctx.total_nodes;
        let base = ctx.node_base;
        let len = ctx.shard_nodes;
        m.register_handler(0, Port(9), |hctx, args| {
            hctx.bump("ring_hops", 1);
            let _ = args;
        });
        for p in 0..len {
            let cpu = m.cpu(p);
            let mail = mail.clone();
            m.spawn(p, async move {
                for i in 0..6u64 {
                    cpu.fetch_and_add(counter, 1).await;
                    cpu.work(cpu.rand_below(40)).await;
                    if p == 0 {
                        // Ring: shard s's node 0 posts to the next
                        // shard's base node.
                        let dest = (base + len) % total;
                        mail.post(cpu.now(), base, dest, Port(9), [i, 0, 0, 0]);
                    }
                }
            });
        }
    }

    fn digest(r: &ClusterReport) -> (u64, u64, u64, u64, Vec<u64>) {
        (
            r.stats.sim_events,
            r.stats.net_msgs,
            r.stats.counter("ring_hops"),
            r.elapsed,
            r.stats.rmr_cc.clone(),
        )
    }

    #[test]
    fn serial_and_parallel_agree_on_ring() {
        let mk = || {
            Cluster::new(
                16,
                Config::default().seed(77),
                ParallelConfig {
                    workers: 4,
                    epoch_window: 0,
                },
            )
        };
        let a = mk().run_serial(ring_setup);
        let b = mk().run_parallel(ring_setup);
        assert_eq!(a.live_tasks, 0);
        assert_eq!(b.live_tasks, 0);
        assert_eq!(a.causality_violations, 0);
        assert_eq!(b.causality_violations, 0);
        // 4 shards x 6 ring posts each, all delivered.
        assert_eq!(a.stats.counter("ring_hops"), 24);
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn epoch_window_floors_the_lookahead() {
        let base = Config::default();
        let tight = Cluster::new(
            16,
            base.clone(),
            ParallelConfig {
                workers: 4,
                epoch_window: 0,
            },
        );
        let wide = Cluster::new(
            16,
            base,
            ParallelConfig {
                workers: 4,
                epoch_window: 5_000,
            },
        );
        assert!(tight.lookahead() < wide.lookahead());
        assert_eq!(
            wide.lookahead(),
            CostModel::nwo().msg_send + 5_000,
            "window floors the mesh latency"
        );
        // Fewer barriers with the wider window, same simulation.
        let a = tight.run_serial(ring_setup);
        let b = wide.run_serial(ring_setup);
        assert!(b.epochs < a.epochs);
        assert_eq!(a.stats.counter("ring_hops"), b.stats.counter("ring_hops"));
    }

    #[test]
    fn uneven_split_covers_all_nodes() {
        let c = Cluster::new(
            10,
            Config::default(),
            ParallelConfig {
                workers: 3,
                epoch_window: 0,
            },
        );
        assert_eq!(c.ranges, [(0, 4), (4, 3), (7, 3)]);
        for g in 0..10 {
            let s = c.shard_of(g);
            let (b, l) = c.ranges[s];
            assert!(g >= b && g < b + l, "node {g} misrouted to shard {s}");
        }
    }

    #[test]
    #[should_panic(expected = "shard-local")]
    fn mail_rejects_local_destinations() {
        let c = Cluster::new(
            8,
            Config::default(),
            ParallelConfig {
                workers: 2,
                epoch_window: 0,
            },
        );
        c.run_serial(|ctx| {
            ctx.mail()
                .post(0, ctx.node_base, ctx.node_base, Port(1), [0; 4]);
        });
    }
}
