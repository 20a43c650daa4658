//! The native threaded executor: real threads, real kernel-backed
//! reactive locks, lock inflation *and deflation*.
//!
//! Where [`crate::exec`] simulates the arena under virtual time (and
//! drives every CI-gated claim), this executor runs it for real: the
//! slot word *is* the lock in the cold path, and a hot object is
//! **inflated** — promoted to a full [`reactive_native::ReactiveLock`]
//! whose switching kernel then adapts between its TTS and queue
//! protocols on its own. The JVM's thin/fat monitor split is the same
//! shape; here the fat lock is the paper's reactive lock.
//!
//! Promotion protocol (the step that must not break mutual exclusion):
//! only the thread that currently owns the flat `HELD` bit may inflate.
//! At release time, instead of clearing `HELD`, it builds the reactive
//! lock, installs it in the slab, and publishes `INFLATED | index` in a
//! single release store, carrying the per-object bits
//! ([`slot::carry_bits`]) of the word it replaces. Flat acquisition is
//! a CAS that asserts `INFLATED` is clear in the expected word, so no
//! thread can win the flat path once the word is inflated, and the word
//! is only replaced while its owner holds it — there is never a moment
//! with two live lock identities.
//!
//! Contention evidence accrues at *release* time through the `WAITERS`
//! bit: a flat spinner CASes `WAITERS` into the word once per hold, the
//! releasing owner folds it into the contended streak, and the next
//! winner either clears it (uncontended win) or — having itself lost a
//! CAS or seen the word held — re-asserts it into its own hold.
//! Observing at release (rather than at the winner's acquire, as the
//! virtual executor can afford to) defeats the capture effect: a
//! releaser that immediately re-wins its own lock would otherwise reset
//! acquirer-observed streaks forever. The fought-win re-assert covers
//! the opposite degenerate schedule, a single core draining a backlog
//! of descheduled waiters, where no spinner is ever running *during* a
//! hold to register itself. Streaks still miss one pathology — capture
//! on an oversubscribed host, where the starved spinner runs once per
//! scheduling quantum and the captor's thousands of calm releases in
//! between wipe the streak — so a fought win whose measured spin wait
//! crossed `LONG_WAIT_SPINS` seeds the full inflation streak in its
//! winning CAS ([`slot::saturate_contended`]): the paper's reactive
//! rule, switching on observed waiting time, and the winner holds the
//! lock until its own release reads the evidence.
//!
//! Demotion (deflation) is the reverse door, and what makes the slot
//! word's `MODE`/calm-streak bits real on the native path. Inflated
//! acquirers first *register* on the slot word (a `+= REF_ONE` CAS
//! while `INFLATED` is set) before touching the slab, so the word's
//! in-flight count pins the slab entry. A releasing holder whose
//! registration is the only one (`inflight == 1`) observes a calm
//! grant; once the kernel itself has settled back into its TTS protocol
//! and the calm streak crosses `DEFLATE_STREAK`, the holder asks the
//! shard limiter for a token and attempts the demotion CAS: the exact
//! word it loaded (ref == 1, its own) against the flat
//! [`slot::deflated`] word. Registration and demotion arbitrate on the
//! same word, so a racing acquirer either registers first (the demotion
//! CAS fails, the holder releases normally) or loses its registration
//! CAS (and retries against the now-flat word). On success the holder
//! releases the kernel lock — provably uncontended: it held the lock,
//! so every earlier holder finished, and ref == 1 means no registered
//! acquirer is en route — and retires the slab entry to a free list for
//! the next inflation to reuse.
//!
//! Deadlines are honest but shallow here: a deadline is a wait budget
//! whose clock starts at the first failed attempt (a lost CAS or a held
//! word), so an uncontended acquire reads no clock. The budget bounds
//! the flat spin (checked every `DEADLINE_CHECK_SPINS` iterations, so
//! its precision is a few microseconds, not a few nanoseconds) and is
//! re-checked at inflated-path *admission*, where a zero budget aborts
//! before registering; once a thread registers, it is committed (the
//! sim's abortable queues model mid-wait abort).
//! Inflations and deflations are gated by the same per-shard
//! [`TokenBucket`] as simulated switches and logged as
//! [`SwitchRecord`]s, so the no-stampede oracle applies to native runs
//! too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use reactive_native::reactive::{PROTO_QUEUE, PROTO_TTS};
use reactive_native::ReactiveLock;

use crate::arena::{Footprint, ObjectArena};
use crate::exec::ArenaMode;
use crate::limiter::{LimiterConfig, TokenBucket};
use crate::oracle::SwitchRecord;
use crate::slot;

/// Contended flat grants (streak) after which the releasing owner
/// inflates the object.
const INFLATE_STREAK: u8 = 3;
/// Calm inflated grants (streak) after which a releasing holder — with
/// the kernel already back in its TTS protocol — deflates the object.
const DEFLATE_STREAK: u8 = 8;
/// Flat spin iterations between deadline checks / yields; a power of
/// two so the cadence test is a mask, and small enough that deadline
/// precision stays in the low microseconds.
const DEADLINE_CHECK_SPINS: u32 = 64;
/// Initial and maximum per-iteration backoff (in `spin_loop` hints) of
/// the flat spin; doubling between iterations keeps the contended CAS
/// rate — and therefore cache-line bouncing — bounded.
const BACKOFF_INIT: u32 = 4;
const BACKOFF_MAX: u32 = 256;
/// Flat spin iterations past which a wait is *pathological* and the
/// eventual winner seeds the full inflation evidence at once (the
/// paper's reactive rule applied to the arena: switch on observed
/// waiting time). Streaks alone cannot catch lock capture on an
/// oversubscribed host — a starved spinner gets scheduled roughly once
/// per quantum, so the capturing holder's thousands of uncontended
/// releases in between wipe the streak faster than the single
/// contended release per quantum can build it, while the spinner's
/// wait grows without bound. At 8 yield cadences of maximum backoff
/// this is orders of magnitude past any healthy multi-core wait for
/// the microsecond-scale holds the service targets.
const LONG_WAIT_SPINS: u32 = 8 * DEADLINE_CHECK_SPINS;

/// A wait budget whose clock starts only when the acquire first has to
/// wait, so an acquire that never waits reads no clock.
struct Deadline {
    budget: Option<Duration>,
    /// When the budget runs out; `None` until [`Deadline::start`], and
    /// after it for a budget no `Instant` can hold.
    at: Option<Instant>,
}

impl Deadline {
    /// Start the clock: called once, at the first failed attempt.
    fn start(&mut self) {
        self.at = self.budget.and_then(|b| Instant::now().checked_add(b));
    }

    /// Whether the budget is spent. Before the clock starts only a zero
    /// budget is, and deciding that reads no clock.
    fn passed(&self) -> bool {
        match (self.at, self.budget) {
            (Some(at), _) => Instant::now() >= at,
            (None, budget) => budget.is_some_and(|b| b.is_zero()),
        }
    }
}

/// Per-shard native state: the switch limiter and the inflation/
/// deflation log.
struct ShardNative {
    limiter: Option<TokenBucket>,
    log: Vec<SwitchRecord>,
}

/// The inflated-lock slab: a slot word's index field points in here.
/// Entries are retired (not popped) on deflation so live indices stay
/// stable, and retired indices are recycled through `free` — which is
/// what keeps the slab bounded by the *peak concurrent* hot set rather
/// than the total number of inflations ever.
struct Slab {
    entries: Vec<Option<Arc<ReactiveLock>>>,
    free: Vec<u32>,
    /// Kernel switch counts of retired locks, folded in at retirement
    /// so `lock_switches` survives reclamation.
    retired_switches: u64,
}

impl Slab {
    fn insert(&mut self, lock: Arc<ReactiveLock>) -> u32 {
        if let Some(idx) = self.free.pop() {
            debug_assert!(
                self.entries[idx as usize].is_none(),
                "free list pointed at a live slab entry"
            );
            self.entries[idx as usize] = Some(lock);
            idx
        } else {
            // The slot word's index field is 32 bits: a slab past 2³²
            // entries would silently alias an earlier lock. Free-list
            // reuse makes growth track the peak hot set, so this bound
            // is unreachable in practice — but assert it at the push.
            let idx = u32::try_from(self.entries.len())
                .expect("inflation slab overflow: the slot index field is 32 bits");
            self.entries.push(Some(lock));
            idx
        }
    }

    fn retire(&mut self, idx: u32) -> Arc<ReactiveLock> {
        let lock = self.entries[idx as usize]
            .take()
            .expect("retiring an already-retired slab entry");
        self.free.push(idx);
        lock
    }

    fn live(&self) -> u64 {
        self.entries.iter().filter(|e| e.is_some()).count() as u64
    }
}

/// A multi-tenant arena served by real threads.
pub struct NativeService {
    arena: ObjectArena,
    /// `RwLock` because reads (every inflated acquire) vastly outnumber
    /// writes (one per inflation or deflation).
    slab: RwLock<Slab>,
    shards: Vec<Mutex<ShardNative>>,
    mode: ArenaMode,
    epoch: Instant,
    aborts: AtomicU64,
    inflations: AtomicU64,
    deflations: AtomicU64,
}

/// Outcome of a demotion attempt (see [`NativeService::try_deflate`]).
enum Deflate {
    /// The flat word is published and the slab entry retired.
    Done,
    /// The shard limiter denied the token.
    Denied,
    /// A racing registration changed the word (carried here from the
    /// failed CAS).
    Raced(u64),
}

/// RAII guard for a native acquisition; releases on drop.
pub struct NativeGuard<'a> {
    svc: &'a NativeService,
    object: u64,
    /// `None` while the object was flat; `Some` when the acquisition
    /// went through an inflated reactive lock.
    held: Option<(Arc<ReactiveLock>, reactive_native::reactive::Held)>,
}

impl NativeService {
    /// A fresh adaptive arena of flat (deflated, TTS-mode) objects.
    pub fn new(objects: u64, shards: u32, limiter: Option<LimiterConfig>) -> Self {
        Self::with_mode(objects, shards, limiter, ArenaMode::Adaptive)
    }

    /// A fresh arena pinned to a protocol-selection regime: `Adaptive`
    /// inflates hot objects and deflates calm ones; `StaticTts` never
    /// inflates (every object stays a flat TTS-like spin word);
    /// `StaticQueue` inflates every object on its first release and
    /// never deflates.
    pub fn with_mode(
        objects: u64,
        shards: u32,
        limiter: Option<LimiterConfig>,
        mode: ArenaMode,
    ) -> Self {
        NativeService {
            arena: ObjectArena::new(objects, shards),
            slab: RwLock::new(Slab {
                entries: Vec::new(),
                free: Vec::new(),
                retired_switches: 0,
            }),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardNative {
                        limiter: limiter.map(TokenBucket::new),
                        log: Vec::new(),
                    })
                })
                .collect(),
            mode,
            epoch: Instant::now(),
            aborts: AtomicU64::new(0),
            inflations: AtomicU64::new(0),
            deflations: AtomicU64::new(0),
        }
    }

    /// Contended streak at which a releasing owner inflates, or `None`
    /// if this regime never inflates.
    fn inflate_threshold(&self) -> Option<u8> {
        match self.mode {
            ArenaMode::Adaptive => Some(INFLATE_STREAK),
            ArenaMode::StaticQueue => Some(0),
            ArenaMode::StaticTts => None,
        }
    }

    /// Nanoseconds since service start (the native switch-log clock).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Acquire `object`, optionally bounded by a deadline. The deadline
    /// is a wait budget: its clock starts at the first failed attempt
    /// (a lost CAS or a held word), so an acquire that never waits
    /// reads no clock. `None` means the budget ran out before the
    /// acquisition was admitted. The budget is checked on the flat
    /// spin's cadence and at inflated-path admission, so a zero budget
    /// is granted by a free flat word and refused by an inflated one;
    /// a budget too large for an `Instant` never runs out.
    pub fn acquire(&self, object: u64, deadline: Option<Duration>) -> Option<NativeGuard<'_>> {
        let mut deadline = Deadline {
            budget: deadline,
            at: None,
        };
        let mut spins: u32 = 0;
        let mut backoff: u32 = BACKOFF_INIT;
        // True once this call has lost a CAS or seen the word held: the
        // eventual win then pre-seeds WAITERS into its own hold, so a
        // drained backlog keeps the streak alive even when the waiters
        // behind it are descheduled (the single-core case, where no
        // spinner is running during a short hold to register itself).
        // The deadline's clock starts at the same moment.
        let mut fought = false;
        loop {
            // Acquire: pairs with the inflation publish store_release,
            // so an INFLATED word guarantees the slab entry it indexes
            // is visible, and a clear HELD bit guarantees the previous
            // holder's critical section is.
            let word = self.arena.load_acquire(object);
            if word & slot::INFLATED != 0 {
                // Admission check: registering commits us, so the
                // deadline is tested before the registration CAS.
                if deadline.passed() {
                    // order: Relaxed — statistics counter.
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                debug_assert!(
                    slot::inflight(word) < u32::from(u16::MAX),
                    "in-flight refcount saturated"
                );
                // Register before touching the slab: the in-flight
                // count pins the entry against deflation (the demotion
                // CAS requires the count to be the holder's own 1). A
                // failed CAS means the word moved — possibly deflated —
                // so reload and re-dispatch.
                if self.arena.cas(object, word, word + slot::REF_ONE).is_err() {
                    continue;
                }
                let lock = {
                    let slab = self.slab.read().expect("inflation slab poisoned");
                    Arc::clone(
                        slab.entries[slot::index(word) as usize]
                            .as_ref()
                            .expect("registered slab index was retired"),
                    )
                };
                let held = lock.acquire();
                return Some(NativeGuard {
                    svc: self,
                    object,
                    held: Some((lock, held)),
                });
            }
            if word & slot::HELD == 0 {
                // Win the flat path. An uncontended win consumes the
                // WAITERS evidence (the releaser already folded it into
                // the streaks); a fought win re-asserts it, charging
                // its own hold with the contention it just drained. A
                // win after a *pathological* wait additionally seeds
                // the full inflation streak: the winner holds the lock
                // until its own release reads that evidence, so a
                // capturing peer gets no window to wipe it.
                let next = if fought {
                    let w = if spins >= LONG_WAIT_SPINS {
                        slot::saturate_contended(word, INFLATE_STREAK)
                    } else {
                        word
                    };
                    w | slot::HELD | slot::WAITERS
                } else {
                    (word | slot::HELD) & !slot::WAITERS
                };
                if self.arena.cas(object, word, next).is_ok() {
                    return Some(NativeGuard {
                        svc: self,
                        object,
                        held: None,
                    });
                }
                if !fought {
                    fought = true;
                    deadline.start();
                }
                continue;
            }
            if !fought {
                fought = true;
                deadline.start();
            }
            // Held by someone else: register this hold's contention
            // evidence once, then spin. The releaser reads WAITERS as
            // "this grant was contended".
            if word & slot::WAITERS == 0 {
                let _ = self.arena.cas(object, word, word | slot::WAITERS);
                continue;
            }
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            backoff = (backoff * 2).min(BACKOFF_MAX);
            spins = spins.wrapping_add(1);
            if spins & (DEADLINE_CHECK_SPINS - 1) == 0 {
                // Deadline checks and yields ride the same cadence: a
                // clock read on every iteration would dominate the
                // contended fast path, and the yield keeps progress on
                // oversubscribed hosts.
                if deadline.passed() {
                    // order: Relaxed — statistics counter.
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                std::thread::yield_now();
            }
        }
    }

    /// Release a flat hold: fold this hold's `WAITERS` evidence into
    /// the streaks and clear `HELD` — or, if the object has proven hot,
    /// inflate.
    fn release_flat(&self, object: u64) {
        let mut word = self.arena.load(object);
        debug_assert!(word & slot::HELD != 0, "releasing an unheld flat object");
        // The inflation decision reads the streak as it stood when this
        // release began (the evidence that crossed the threshold), not
        // post-observation — so a streak seeded directly (tests) and
        // one accrued through WAITERS behave identically.
        if self
            .inflate_threshold()
            .is_some_and(|t| slot::contended_streak(word) >= t)
        {
            self.try_inflate(object, word);
            return;
        }
        loop {
            let contended = word & slot::WAITERS != 0;
            let next = slot::observe(word, contended) & !slot::HELD;
            match self.arena.cas(object, word, next) {
                Ok(_) => return,
                // A spinner registered WAITERS between our load and
                // CAS; retry against the updated word so the evidence
                // is not lost.
                Err(w) => word = w,
            }
        }
    }

    /// Attempt the promotion while owning `HELD`. Publishes either the
    /// inflated word (token granted) or the cleared-streak backoff word
    /// (token denied); either way the flat hold ends.
    fn try_inflate(&self, object: u64, word: u64) {
        let shard = self.arena.shard_of(object);
        let now = self.now_ns();
        let mut sh = self.shards[shard as usize].lock().expect("shard poisoned");
        let allowed = match sh.limiter.as_mut() {
            Some(b) => b.try_acquire(now),
            None => true,
        };
        if !allowed {
            // Denied: back off by clearing the evidence (and HELD). A
            // blind store may drop a concurrent WAITERS registration,
            // which only costs one hold's worth of already-discarded
            // evidence.
            self.arena
                .store_release(object, slot::clear_streaks(word) & !slot::HELD);
            return;
        }
        let lock = Arc::new(
            ReactiveLock::builder()
                // Hot from birth: start in the queue protocol; the
                // kernel will switch back if it calms down.
                .initial_protocol(PROTO_QUEUE)
                .build(),
        );
        let index = {
            let mut slab = self.slab.write().expect("inflation slab poisoned");
            slab.insert(lock)
        };
        sh.log.push(SwitchRecord {
            time_ns: now,
            shard,
            object,
            from: PROTO_TTS.0,
            to: PROTO_QUEUE.0,
        });
        drop(sh);
        // order: Relaxed — statistics counter.
        self.inflations.fetch_add(1, Ordering::Relaxed);
        // Publish the inflated identity and drop HELD in one release
        // store, carrying the per-object bits (HOT) of the word this
        // replaces; we own HELD, so the only concurrent writes are
        // conditional WAITERS CASes, which fail once this word lands,
        // and Release orders the slab insert above before the word
        // that indexes it.
        self.arena.store_release(
            object,
            slot::with_index(
                slot::with_mode(slot::carry_bits(word), slot::MODE_QUEUE),
                index,
            ),
        );
    }

    /// Release an inflated hold: sync the word's mode field to the
    /// kernel, fold in a calm/contended observation, and — when the
    /// object has proven durably calm — deflate it back to a flat word.
    fn release_inflated(
        &self,
        object: u64,
        lock: Arc<ReactiveLock>,
        held: reactive_native::reactive::Held,
    ) {
        let mut word = self.arena.load(object);
        loop {
            debug_assert!(
                word & slot::INFLATED != 0,
                "inflated release on a flat word"
            );
            debug_assert!(slot::inflight(word) >= 1, "release without a registration");
            // Calm iff our registration is the only one: no other
            // acquirer is holding, queued, or en route.
            let calm = slot::inflight(word) == 1;
            let kproto = lock.current_protocol();
            let kmode = if kproto == PROTO_TTS {
                slot::MODE_TTS
            } else {
                slot::MODE_QUEUE
            };
            let observed = if slot::mode(word) == kmode {
                slot::observe(word, !calm)
            } else {
                // The kernel switched protocols during this hold: sync
                // the word's mode field, resetting the streaks exactly
                // like the kernel's own post-commit policy reset.
                slot::with_mode(word, kmode)
            };
            if self.mode == ArenaMode::Adaptive
                && calm
                && kproto == PROTO_TTS
                && slot::calm_streak(observed) >= DEFLATE_STREAK
            {
                match self.try_deflate(object, word, &lock) {
                    // The flat word is published and the slab entry
                    // retired; finish by releasing the kernel lock —
                    // provably uncontended (we held it, and ref == 1
                    // meant no registered acquirer was en route).
                    Deflate::Done => {
                        lock.release(held);
                        return;
                    }
                    // Denied by the limiter: back off by clearing the
                    // evidence instead of observing, so the object
                    // re-accumulates calm before asking again.
                    Deflate::Denied => {
                        let next = slot::clear_streaks(word) - slot::REF_ONE;
                        match self.arena.cas(object, word, next) {
                            Ok(_) => {
                                lock.release(held);
                                return;
                            }
                            Err(w) => {
                                word = w;
                                continue;
                            }
                        }
                    }
                    // A racing registration changed the word; re-decide
                    // against it (calm is now false).
                    Deflate::Raced(w) => {
                        word = w;
                        continue;
                    }
                }
            }
            // Normal release: the deregistration rides the same CAS as
            // the streak update, so the word changes on every release
            // and a stale registration CAS can never succeed late.
            let next = observed - slot::REF_ONE;
            match self.arena.cas(object, word, next) {
                Ok(_) => {
                    lock.release(held);
                    return;
                }
                Err(w) => word = w,
            }
        }
    }

    /// Attempt the demotion CAS under a shard-limiter token. On
    /// [`Deflate::Done`] the flat word is published and the slab entry
    /// retired; the caller still holds (and must release) the kernel
    /// lock. The caller keeps sole responsibility for deregistering on
    /// the other two outcomes.
    fn try_deflate(&self, object: u64, word: u64, lock: &Arc<ReactiveLock>) -> Deflate {
        let shard = self.arena.shard_of(object);
        let now = self.now_ns();
        let mut sh = self.shards[shard as usize].lock().expect("shard poisoned");
        let allowed = match sh.limiter.as_mut() {
            Some(b) => b.try_acquire(now),
            None => true,
        };
        if !allowed {
            return Deflate::Denied;
        }
        // The demotion CAS: the exact word we based the decision on
        // (ref == 1, ours) against the flat TTS word. A racing
        // registration bumps the count first and fails this CAS — the
        // word is the arbiter.
        match self.arena.cas(object, word, slot::deflated(word)) {
            Ok(_) => {
                // The record captures the representation demotion
                // (inflated, queue-capable → flat, TTS-like), mirroring
                // the inflation record — the word's mode field already
                // reached TTS while the streak accrued.
                sh.log.push(SwitchRecord {
                    time_ns: now,
                    shard,
                    object,
                    from: PROTO_QUEUE.0,
                    to: PROTO_TTS.0,
                });
                drop(sh);
                // order: Relaxed — statistics counter.
                self.deflations.fetch_add(1, Ordering::Relaxed);
                let mut slab = self.slab.write().expect("inflation slab poisoned");
                let retired = slab.retire(slot::index(word));
                debug_assert!(Arc::ptr_eq(&retired, lock));
                slab.retired_switches += retired.switches();
                Deflate::Done
            }
            // A registration won the race; the token is burned (the
            // limiter meters attempts, and a lost demotion race is
            // rare enough not to matter for the window bound).
            Err(w) => Deflate::Raced(w),
        }
    }

    /// Total deadline aborts so far.
    pub fn aborts(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.aborts.load(Ordering::Relaxed)
    }

    /// Objects inflated so far (cumulative; reuse of a retired slab
    /// entry counts as a new inflation).
    pub fn inflations(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.inflations.load(Ordering::Relaxed)
    }

    /// Objects deflated back to a flat word so far.
    pub fn deflations(&self) -> u64 {
        // order: Relaxed — statistics counter.
        self.deflations.load(Ordering::Relaxed)
    }

    /// Currently live inflated locks (inflations minus deflations, as
    /// counted in the slab).
    pub fn live_inflated(&self) -> u64 {
        self.slab.read().expect("inflation slab poisoned").live()
    }

    /// Physical slab length including retired entries — stays at the
    /// peak live count when the free list recycles, which is how the
    /// reuse claim is tested.
    pub fn slab_entries(&self) -> u64 {
        self.slab
            .read()
            .expect("inflation slab poisoned")
            .entries
            .len() as u64
    }

    /// Kernel-internal protocol switches across all inflated locks,
    /// live and retired.
    pub fn lock_switches(&self) -> u64 {
        let slab = self.slab.read().expect("inflation slab poisoned");
        slab.retired_switches
            + slab
                .entries
                .iter()
                .flatten()
                .map(|l| l.switches())
                .sum::<u64>()
    }

    /// Drain a copy of the combined per-shard switch (inflation/
    /// deflation) log.
    pub fn switch_log(&self) -> Vec<SwitchRecord> {
        let mut out = Vec::new();
        for sh in &self.shards {
            out.extend(sh.lock().expect("shard poisoned").log.iter().copied());
        }
        out.sort_unstable_by_key(|r| (r.time_ns, r.shard, r.object));
        out
    }

    /// Measured footprint: slots + shard fixed state + live inflated
    /// locks. Deflation shrinks `hot_bytes`: a retired entry frees its
    /// lock and leaves only the 8-byte `None` slot awaiting reuse.
    pub fn footprint(&self) -> Footprint {
        let slab = self.slab.read().expect("inflation slab poisoned");
        let per_lock =
            (std::mem::size_of::<ReactiveLock>() + std::mem::size_of::<Arc<ReactiveLock>>()) as u64;
        let live = slab.live();
        let slab_slots = (slab.entries.len() * std::mem::size_of::<Option<Arc<ReactiveLock>>>()
            + slab.free.len() * std::mem::size_of::<u32>()) as u64;
        let log_bytes: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.lock().expect("shard poisoned").log.len() as u64
                    * std::mem::size_of::<SwitchRecord>() as u64
            })
            .sum();
        Footprint {
            objects: self.arena.objects(),
            slot_bytes: self.arena.resident_bytes(),
            shard_bytes: self.shards.len() as u64
                * std::mem::size_of::<Mutex<ShardNative>>() as u64,
            hot_bytes: live * per_lock + slab_slots + log_bytes,
            hot_objects: live,
        }
    }
}

impl Drop for NativeGuard<'_> {
    fn drop(&mut self) {
        match self.held.take() {
            Some((lock, held)) => self.svc.release_inflated(self.object, lock, held),
            None => self.svc.release_flat(self.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed `object`'s contended streak to the inflation threshold
    /// while holding it flat (the single-threaded stand-in for streaks
    /// accrued through real WAITERS contention — which the stress tests
    /// exercise with racing threads).
    fn seed_hot(svc: &NativeService, object: u64, extra_bits: u64) {
        let _g = svc.acquire(object, None).unwrap();
        let mut w = svc.arena.load(object) | extra_bits;
        for _ in 0..INFLATE_STREAK {
            w = slot::observe(w, true);
        }
        svc.arena.store(object, w);
    }

    #[test]
    fn flat_acquire_release_roundtrip() {
        let svc = NativeService::new(8, 2, None);
        {
            let _g = svc.acquire(3, None).unwrap();
            assert_ne!(svc.arena.load(3) & slot::HELD, 0);
        }
        assert_eq!(svc.arena.load(3) & slot::HELD, 0);
        assert_eq!(svc.inflations(), 0);
    }

    #[test]
    fn contended_object_inflates_once() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, 0);
        assert_eq!(svc.inflations(), 1);
        assert_eq!(svc.switch_log().len(), 1);
        // Subsequent acquisitions go through the reactive lock.
        let g = svc.acquire(0, None).unwrap();
        assert!(g.held.is_some());
    }

    #[test]
    fn inflation_carries_the_hot_bit() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, slot::HOT);
        let w = svc.arena.load(0);
        assert_ne!(w & slot::INFLATED, 0);
        // Regression: the publish word used to be rebuilt from 0,
        // silently dropping per-object state like the hot-stat marker.
        assert_ne!(w & slot::HOT, 0, "inflation must carry the HOT bit");
        assert_eq!(slot::mode(w), slot::MODE_QUEUE);
    }

    #[test]
    fn waiters_evidence_accrues_at_release() {
        let svc = NativeService::new(1, 1, None);
        for expected in 1..=2u8 {
            let _g = svc.acquire(0, None).unwrap();
            // A spinner would CAS WAITERS in; do it by hand (the real
            // races are covered by the stress tests).
            let w = svc.arena.load(0);
            svc.arena.store(0, w | slot::WAITERS);
            drop(_g);
            assert_eq!(slot::contended_streak(svc.arena.load(0)), expected);
        }
        // The next winner consumes the WAITERS bit...
        let w = svc.arena.load(0);
        svc.arena.store(0, w | slot::WAITERS);
        let g = svc.acquire(0, None).unwrap();
        assert_eq!(svc.arena.load(0) & slot::WAITERS, 0);
        drop(g);
        // ...so an uncontended hold resets the streak.
        assert_eq!(slot::contended_streak(svc.arena.load(0)), 0);
        assert_eq!(slot::calm_streak(svc.arena.load(0)), 1);
    }

    #[test]
    fn expired_deadline_aborts_without_acquiring() {
        let svc = NativeService::new(1, 1, None);
        let _g = svc.acquire(0, None).unwrap();
        let r = svc.acquire(0, Some(Duration::from_micros(200)));
        assert!(r.is_none());
        assert_eq!(svc.aborts(), 1);
    }

    #[test]
    fn zero_budget_on_a_free_flat_object_is_granted() {
        let svc = NativeService::new(1, 1, None);
        let g = svc.acquire(0, Some(Duration::ZERO));
        assert!(g.is_some(), "a free word is won before any wait");
        assert!(g.unwrap().held.is_none(), "granted on the flat path");
        assert_eq!(svc.aborts(), 0);
    }

    #[test]
    fn zero_budget_on_an_inflated_object_aborts_before_registering() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, 0);
        let before = svc.arena.load(0);
        assert_ne!(before & slot::INFLATED, 0);
        assert!(svc.acquire(0, Some(Duration::ZERO)).is_none());
        assert_eq!(svc.aborts(), 1);
        let after = svc.arena.load(0);
        assert_eq!(
            slot::inflight(after),
            slot::inflight(before),
            "an aborted admission must not register"
        );
    }

    #[test]
    fn budget_on_a_held_object_runs_from_the_call() {
        let svc = NativeService::new(1, 1, None);
        let _g = svc.acquire(0, None).unwrap();
        let budget = Duration::from_millis(2);
        let start = Instant::now();
        assert!(svc.acquire(0, Some(budget)).is_none());
        let waited = start.elapsed();
        assert!(
            waited >= budget,
            "aborted after {waited:?}, inside {budget:?}"
        );
        assert_eq!(svc.aborts(), 1);
    }

    #[test]
    fn budget_that_outlasts_the_holder_is_granted() {
        // `Duration::MAX` reaches past any `Instant`: it never runs out.
        for budget in [Duration::from_secs(30), Duration::MAX] {
            let svc = NativeService::new(1, 1, None);
            let g = svc.acquire(0, None).unwrap();
            std::thread::scope(|s| {
                let waiter = s.spawn(|| svc.acquire(0, Some(budget)).is_some());
                // Release only once the waiter has seen the word held
                // (its WAITERS registration), so its clock is running.
                while svc.arena.load_acquire(0) & slot::WAITERS == 0 && !waiter.is_finished() {
                    std::thread::yield_now();
                }
                drop(g);
                assert!(waiter.join().unwrap(), "{budget:?} outlasts the hold");
            });
            assert_eq!(svc.aborts(), 0);
        }
    }

    #[test]
    fn limiter_denial_defers_inflation() {
        let svc = NativeService::new(
            2,
            1,
            Some(LimiterConfig {
                burst: 1,
                period_ns: u64::MAX / 2,
            }),
        );
        for obj in [0u64, 1] {
            seed_hot(&svc, obj, 0);
        }
        // Only the first release got a token; the second backed off.
        assert_eq!(svc.inflations(), 1);
        assert_eq!(svc.arena.load(1) & slot::INFLATED, 0);
        assert_eq!(slot::contended_streak(svc.arena.load(1)), 0);
    }

    #[test]
    fn calm_inflated_object_deflates_and_slab_recycles() {
        let svc = NativeService::new(1, 1, None);
        seed_hot(&svc, 0, slot::HOT);
        assert_eq!(svc.live_inflated(), 1);
        // Solo polite traffic: the kernel settles back to TTS (empty-
        // queue acquisitions), the mode field syncs, and the calm
        // streak then walks up to the deflation threshold.
        for _ in 0..100 {
            drop(svc.acquire(0, None).unwrap());
            if svc.deflations() == 1 {
                break;
            }
        }
        assert_eq!(svc.deflations(), 1, "calm object never deflated");
        let w = svc.arena.load(0);
        assert_eq!(w & slot::INFLATED, 0);
        assert_eq!(slot::mode(w), slot::MODE_TTS);
        assert_ne!(w & slot::HOT, 0, "deflation must carry the HOT bit");
        assert_eq!(svc.live_inflated(), 0);
        assert_eq!(svc.slab_entries(), 1, "retired entry stays in the slab");
        // The flat word is a real lock again...
        drop(svc.acquire(0, None).unwrap());
        // ...and re-inflation reuses the retired entry instead of
        // growing the slab.
        seed_hot(&svc, 0, 0);
        assert_eq!(svc.inflations(), 2);
        assert_eq!(svc.live_inflated(), 1);
        assert_eq!(svc.slab_entries(), 1, "free list must recycle the entry");
        assert_eq!(
            svc.switch_log().len(),
            3,
            "inflate + deflate + re-inflate are all logged"
        );
    }

    #[test]
    fn static_tts_never_inflates() {
        let svc = NativeService::with_mode(1, 1, None, ArenaMode::StaticTts);
        seed_hot(&svc, 0, 0);
        assert_eq!(svc.inflations(), 0);
        assert_eq!(svc.arena.load(0) & slot::INFLATED, 0);
    }

    #[test]
    fn static_queue_inflates_on_first_release() {
        let svc = NativeService::with_mode(1, 1, None, ArenaMode::StaticQueue);
        drop(svc.acquire(0, None).unwrap());
        assert_eq!(svc.inflations(), 1);
        // And never deflates, however calm.
        for _ in 0..100 {
            drop(svc.acquire(0, None).unwrap());
        }
        assert_eq!(svc.deflations(), 0);
        assert_eq!(svc.live_inflated(), 1);
    }
}
