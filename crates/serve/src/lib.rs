//! `safeflow-serve` — the resident analysis daemon behind `safeflow serve`.
//!
//! A long-lived process keeps [`safeflow::AnalysisSession`]s warm per
//! analyzed root and answers check requests over a loopback socket,
//! turning the CLI's cold-start cost into a per-request cache lookup.
//! The crate is std-only like the rest of the workspace.
//!
//! Three layers:
//!
//! * [`proto`] — the versioned, length-prefixed frame protocol. Response
//!   statuses 0–4 mirror the CLI exit-code contract exactly; 5–8 are
//!   service-level outcomes (timeout, overload, bad request, draining).
//! * [`daemon`] — the server: checks run on their connection's thread
//!   behind one bounded admission gate, with per-request deadlines and
//!   panic containment, request coalescing, graceful drain,
//!   optional mtime watching, and deterministic protocol-level fault
//!   injection for the recovery drills.
//! * [`client`] — a minimal blocking client used by the CLI and tests.
//!
//! The robustness contract in one line: under overload the daemon sheds
//! (`Overloaded`), past a deadline it degrades (`Timeout` or the engine's
//! exit-4 budget path), across a panic it answers status 3 and rebuilds
//! the session from the crash-safe store — it never hangs, never serves
//! stale results, and never leaves torn state behind.

pub mod client;
pub mod daemon;
pub mod proto;

pub use client::Client;
pub use daemon::{inline_key, paths_key, Daemon, DaemonHandle, ServeOptions};
pub use proto::{Request, Response, RunKind, Status, PROTO_VERSION};
