//! # reactive-core — reactive synchronization algorithms
//!
//! The paper's contribution (Lim & Agarwal, ASPLOS '94; Lim's MIT thesis,
//! 1994): synchronization algorithms that *select their protocol and
//! waiting mechanism at run time* in response to observed conditions,
//! while staying within a constant factor of the best static choice.
//!
//! * [`policy`] — when to switch protocols (§3.4): re-exports the
//!   shared [`reactive_api`] surface (the [`Policy`] trait with
//!   switch-immediately, 3-competitive, and hysteresis impls; protocol
//!   ids; switch-event instrumentation) plus the simulator-side
//!   [`policy::SimKernel`] — the switching kernel every reactive
//!   object here embeds and routes its mode changes through. All
//!   reactive objects are constructed through builders
//!   (`ReactiveLock::builder(&m, 0).policy(..).instrument(..)`).
//! * [`lock`] — the reactive spin lock (§3.3.1, Figures 3.27-3.29):
//!   dynamically selects between test-and-test-and-set and the MCS queue
//!   lock, using the lock words themselves as consensus objects (an
//!   invalid sub-lock is left permanently busy, so the mode variable is
//!   only a hint and correctness never depends on it).
//! * [`fetch_op`] — the reactive fetch-and-op (§3.3.2, Appendix C):
//!   selects among a TTS-lock-protected counter, a queue-lock-protected
//!   counter, and a software combining tree.
//!
//!   Both hold the passive `sync_protocols::spin::{TtsLock, McsLock}`
//!   as their sub-locks (built with `over` on one shared line) and add
//!   only the monitor and the switch hooks; there is no second TTS or
//!   MCS implementation on the simulator.
//! * [`framework`] — the protocol-object framework of §3.2: protocol
//!   objects, the protocol manager, and a C-serializability checker used
//!   to validate histories in tests.
//! * [`waiting`] — two-phase waiting algorithms (Chapter 4): poll up to
//!   `Lpoll`, then block; plus switch-spinning variants for
//!   multithreaded nodes.
//! * [`mp`] — reactive selection between shared-memory and
//!   message-passing protocols (§3.6); the shared-memory side is the
//!   same `TtsLock` sub-lock.
//! * [`robust`] — the robust reactive lock: run-time selection between
//!   an abortable MCS queue and a crash-recoverable Peterson tree,
//!   with crash-driven switching and journal-backed mode-change
//!   recovery (the fault-injection companion to [`lock`]).

#![deny(missing_docs)]

pub mod barrier;
pub mod fetch_op;
pub mod framework;
pub mod lock;
pub mod mp;
pub mod policy;
pub mod robust;
pub mod waiting;

pub use barrier::ReactiveBarrier;
pub use fetch_op::ReactiveFetchOp;
pub use lock::ReactiveLock;
pub use policy::{
    Always, Competitive3, Decision, Hysteresis, Instrument, Observation, Policy, ProtocolId,
    SwitchEvent, SwitchLog,
};
pub use robust::{RobustLock, RobustToken};
pub use waiting::TwoPhase;
