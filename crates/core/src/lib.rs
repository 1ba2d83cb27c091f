//! # spo-core — the security policy oracle
//!
//! Reproduction of *"A Security Policy Oracle: Detecting Security Holes
//! Using Multiple API Implementations"* (Srivastava, Bond, McKinley,
//! Shmatikov; PLDI 2011).
//!
//! The crate computes, for every API entry point of a
//! [`spo_jir::Program`], the security policies its implementation enforces
//! — which of the 31 [`Check`]s **may** and **must** precede each
//! security-sensitive [`EventKey`] (native calls, API returns, and
//! optionally private-data accesses) — and then **differences** those
//! policies across independent implementations of the same API. Any
//! difference is at least an interoperability bug, and possibly an
//! exploitable vulnerability: implementations of the same API must enforce
//! the same policy, or at least one of them is wrong.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod checks;
mod diff;
mod events;
mod html;
mod ispa;
mod policy;
mod report;
mod store;
mod throws;

pub use baseline::{
    mine_rules, mining_deviations, verify_mediation, MediationPolicy, MediationViolation,
    MinedRule, MiningDeviation,
};
pub use checks::{check_of_call, Check, CheckSet, ALL_CHECKS, SECURITY_MANAGER_CLASS};
pub use diff::{
    diff_entry, diff_entry_with, diff_libraries, diff_libraries_with, DiffMode, DiffResult,
    DifferenceKind, PolicyDifference, Side, SideEvidence,
};
pub use events::{EventDef, EventKey, Name};
pub use html::render_html;
pub use ispa::{AnalysisOptions, Analyzer, MemoScope};
pub use policy::{
    render_dnf, AnalysisStats, EntryPolicy, EventPolicy, LibraryPolicies, Origins, SortedMap,
};
pub use report::{
    ablation_demand, diff_pair, group_by_ablation, group_differences, render_analysis,
    render_entry, render_reports, root_keys, ReportGroup, ReportTally, RootCause,
};
pub use store::{
    FrameCost, LocalStore, MemoKey, ShardStats, SharedStore, Summary, SummaryStore, WriteBehind,
    WriteBehindStats,
};
pub use throws::{diff_throws, LibraryThrows, ThrowSet, ThrowsAnalyzer, ThrowsDifference};
