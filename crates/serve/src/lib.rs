//! `spo-serve`: the resident oracle daemon.
//!
//! One-shot `spo analyze`/`spo diff` invocations pay program parsing,
//! call-graph construction, and full interprocedural analysis on every
//! run. This crate keeps the results **resident**: a long-running daemon
//! holds loaded programs and their finished policy analyses in memory, and
//! serves repeat queries over a Unix socket (optionally TCP) in the
//! line-delimited JSON protocol `spo-rpc/1` ([`proto`]). A cold analysis
//! runs the engine with a summary store of its own, dropped with the run;
//! only the persistent [`spo_cache::PolicyCache`], when attached, carries
//! per-root results from one run to the next.
//!
//! The three load-bearing properties, in decreasing order of subtlety:
//!
//! 1. **Byte identity.** A `query` or `diff` response embeds exactly the
//!    bytes the one-shot CLI would print for the same inputs, regardless
//!    of how many clients interleave: reports are rendered once through
//!    [`spo_core::render_analysis`]/[`spo_core::render_reports`] and the
//!    stored result is immutable.
//! 2. **Admission control.** Every request runs under its own
//!    [`spo_guard::GuardConfig`] derived via `for_request`: a cancel
//!    token linked to the daemon's shutdown token, plus the request's
//!    `timeout_ms` tightened onto the operator's base budget. Over-budget
//!    work returns a typed `degraded` response and never poisons the warm
//!    state other sessions read.
//! 3. **Warm invalidation.** `reload` re-parses a program's sources and
//!    re-analyzes previously-warm option sets through the persistent
//!    [`spo_cache::PolicyCache`], so only roots whose dependence cone the
//!    edit invalidated are recomputed.
//!
//! The CLI front end is `spo serve` (daemon) and `spo rpc` (one-line
//! client); see the repository README for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod proto;
pub mod registry;

pub use daemon::{run, DrainReport, ServeConfig};
pub use proto::{ErrorKind, Method, OptionsSpec, Request, RequestError, RequestId};
pub use registry::{Analysis, DiffOutcome, LoadSummary, ProgramEntry, Registry, ReloadSummary};
