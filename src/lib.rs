//! # security-policy-oracle
//!
//! A reproduction of *"A Security Policy Oracle: Detecting Security Holes
//! Using Multiple API Implementations"* (Srivastava, Bond, McKinley,
//! Shmatikov; PLDI 2011) as a Rust library suite.
//!
//! The oracle's idea: many APIs have multiple, independent implementations
//! that must enforce the same security policy. Extract each
//! implementation's policy — which `SecurityManager` checks *may* and
//! *must* precede each security-sensitive event — with a flow- and
//! context-sensitive interprocedural analysis, then **difference** the
//! policies. Any difference is at least an interoperability bug, and
//! possibly an exploitable vulnerability.
//!
//! This facade re-exports the constituent crates and offers the one-call
//! [`compare_implementations`] pipeline.
//!
//! * [`jir`] — the Jimple-like IR, builder, and `.jir` textual frontend;
//! * [`resolve`] — class hierarchy, devirtualization, call graphs;
//! * [`dataflow`] — the worklist engine, lattices, constant propagation;
//! * [`core`] — SPDA/ISPA policy extraction and policy differencing;
//! * [`engine`] — the parallel per-entry-point analysis driver;
//! * [`obs`] — std-only observability: spans, counters, histograms, and
//!   the versioned `spo-stats/1` JSON snapshot behind the CLI's
//!   `--stats`/`--stats-json`;
//! * [`corpus`] — the paper-figure scenarios and the synthetic
//!   three-implementation corpus.
//!
//! All analyses run through the [`engine`]'s work-stealing worker pool;
//! its merge is deterministic, so results are byte-identical to a serial
//! run regardless of worker count.
//!
//! # Examples
//!
//! Run the oracle on the paper's Figure 1 (Harmony's `DatagramSocket.
//! connect` missing `checkAccept`):
//!
//! ```
//! use security_policy_oracle::{compare_implementations, corpus, core};
//!
//! let fig = corpus::figures::FIGURE1;
//! let jdk = fig.program(corpus::Lib::Jdk);
//! let harmony = fig.program(corpus::Lib::Harmony);
//! let report = compare_implementations(
//!     &jdk,
//!     "jdk",
//!     &harmony,
//!     "harmony",
//!     core::AnalysisOptions::default(),
//! );
//! assert_eq!(report.groups.len(), 1);
//! assert!(report.groups[0]
//!     .representative
//!     .delta
//!     .contains(core::Check::Accept));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use spo_core as core;
pub use spo_corpus as corpus;
pub use spo_dataflow as dataflow;
pub use spo_engine as engine;
pub use spo_guard as guard;
pub use spo_jir as jir;
pub use spo_obs as obs;
pub use spo_resolve as resolve;
pub use spo_serve as serve;

use spo_core::{AnalysisOptions, DiffResult, LibraryPolicies, ReportGroup};
use spo_engine::AnalysisEngine;
use spo_jir::Program;

/// The complete output of one pairwise comparison.
#[derive(Debug)]
pub struct PairingReport {
    /// Policies of the first implementation.
    pub left: LibraryPolicies,
    /// Policies of the second implementation.
    pub right: LibraryPolicies,
    /// Raw differencing output.
    pub diff: DiffResult,
    /// Differences grouped by root cause and classified
    /// (intraprocedural / interprocedural / MUST-MAY).
    pub groups: Vec<ReportGroup>,
}

impl PairingReport {
    /// Renders the report as the human-readable listing.
    pub fn render(&self) -> String {
        spo_core::render_reports(&self.diff, &self.groups)
    }
}

/// Runs the full oracle pipeline over two implementations of the same API:
/// policy extraction on each, policy differencing, an
/// intraprocedural-only ablation for root-cause classification, and
/// root-cause grouping.
///
/// # Examples
///
/// See the crate-level example.
pub fn compare_implementations(
    left: &Program,
    left_name: &str,
    right: &Program,
    right_name: &str,
    options: AnalysisOptions,
) -> PairingReport {
    compare_implementations_with(
        left,
        left_name,
        right,
        right_name,
        options,
        &AnalysisEngine::default(),
    )
}

/// [`compare_implementations`] against a caller-configured
/// [`AnalysisEngine`] (e.g. the CLI's `--jobs N`).
pub fn compare_implementations_with(
    left: &Program,
    left_name: &str,
    right: &Program,
    right_name: &str,
    options: AnalysisOptions,
    engine: &AnalysisEngine,
) -> PairingReport {
    let set = engine.compare_all(&[(left_name, left), (right_name, right)], options);
    let mut libraries = set.libraries.into_iter();
    let comparison = set
        .comparisons
        .into_iter()
        .next()
        .expect("two implementations always yield one pairing");
    PairingReport {
        left: libraries.next().expect("left analysis"),
        right: libraries.next().expect("right analysis"),
        diff: comparison.diff,
        groups: comparison.groups,
    }
}
