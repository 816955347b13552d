//! # safeflow-util
//!
//! Dependency-free shared infrastructure for the SafeFlow workspace:
//!
//! * [`rng`] — a small, fast, deterministic PRNG (SplitMix64) used by the
//!   corpus generators and the Simplex simulation, so results are
//!   bit-reproducible across platforms and runs;
//! * [`hash`] — a stable 64-bit word-at-a-time hasher used for
//!   content-addressed summary caching, store checksums and replay keys
//!   (stability across processes matters, which rules out the
//!   randomly-keyed std hasher);
//! * [`arena`] — a hand-rolled bump arena for string storage (backs the
//!   interner; chunks never move, so handed-out slices are stable);
//! * [`intern`] — `Symbol(u32)` string interning for the zero-copy
//!   frontend (owned deterministic [`intern::Interner`] plus a
//!   process-global instance behind [`intern::Symbol::intern`]);
//! * [`pool`] — a thread pool with dependency-DAG scheduling over one
//!   shared ready queue, used by the parallel analysis engine to run
//!   call-graph SCCs concurrently; a panicking task is contained as a
//!   [`pool::TaskPanic`] in its result slot;
//! * [`prop`] — a miniature deterministic property-test harness
//!   (seeded-case loops with seed reporting on failure);
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) for
//!   exercising the analyzer's degradation paths;
//! * [`metrics`] — a lock-cheap metrics registry (counters, histograms,
//!   wall-clock spans) whose entries are classified by determinism, so
//!   observability output can participate in the byte-identity contract;
//! * [`json`] — a minimal JSON document model + deterministic pretty
//!   printer backing `--format json` and `--metrics=json`;
//! * [`wire`] — little-endian binary encoding helpers with a panic-free
//!   bounded reader, shared by the persistent summary store and the
//!   `safeflow serve` socket protocol.
//!
//! Everything here is built on `std` only: the workspace builds and tests
//! fully offline.

#![warn(missing_docs)]

pub mod arena;
pub mod fault;
pub mod hash;
pub mod intern;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod wire;

pub use arena::Bump;
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use hash::StableHasher;
pub use intern::{Interner, Symbol};
pub use json::Json;
pub use metrics::{Class, Histogram, Metrics, MetricsSnapshot};
pub use pool::{lock_recover, run_dag, run_map, PoolStats, TaskPanic};
pub use rng::SplitMix64;
