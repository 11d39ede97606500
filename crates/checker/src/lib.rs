//! # iotsan-checker
//!
//! A from-scratch explicit-state model checker, the Spin substitute used by
//! IotSan-rs (the Rust reproduction of *IotSan: Fortifying the Safety of IoT
//! Systems*, CoNEXT 2018, §2.3 and §8).
//!
//! The paper uses Spin in verification mode with BITSTATE hashing as a
//! falsifier: explore the bounded state space of the generated IoT-system
//! model, check safety properties, and produce counterexamples.  This crate
//! provides the same capabilities without shelling out to Spin:
//!
//! * [`transition`] — the [`TransitionSystem`] abstraction the model generator
//!   implements (sequential and strict-concurrent designs);
//! * [`store`] — exhaustive, hash-compact and BITSTATE (Bloom filter) visited
//!   state storage, plus a sharded concurrent store for multi-core search;
//! * [`search`] — bounded level-order (breadth-first) search that stores and
//!   expands each state once, with shortest per-property counterexamples and
//!   search statistics;
//! * [`parallel`] — the multi-core engine: `std::thread` workers expanding
//!   each level over a sharded visited set, deterministically merged (Spin's
//!   multi-core / swarm verification in spirit);
//! * [`trace`] — Spin-style violation logs (Figure 7).
//!
//! The checker is completely independent of IoT semantics, which keeps it
//! reusable and testable in isolation (its unit tests run it over a toy
//! counter model).

#![deny(missing_docs)]

pub mod parallel;
pub mod search;
pub mod store;
pub mod trace;
pub mod transition;

pub use parallel::ParallelChecker;
pub use search::{CancelToken, Checker, FoundViolation, SearchConfig, SearchReport, SearchStats};
pub use store::{
    fnv1a, BitstateStore, ExactStore, HashCompactStore, ShardedStore, StateStore, StoreKind,
};
pub use trace::{LogLine, Trace, TraceStep};
pub use transition::{StepLog, StepOutcome, TransitionSystem, Violation};
