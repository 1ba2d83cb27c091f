//! # spo-dataflow — lattices, worklist engine, constant propagation
//!
//! The dataflow substrate of the security policy oracle. The paper's SPDA
//! (Algorithm 1) is "essentially a reaching definitions analysis where the
//! definitions are security checks and the uses are security-sensitive
//! events", over "the power set of the 31 security-checking methods",
//! enhanced with Wegman–Zadeck-style conditional constant propagation.
//! This crate supplies those pieces generically:
//!
//! * [`BitSet32`] — the 31-check powerset; [`MustSet`] — the ∩-joined MUST
//!   value with ⊤; [`Dnf`] — the disjunctive MAY value of Figure 2;
//! * [`ConstEnv`]/[`AbsVal`] — conditional constant propagation with `null`
//!   tracking and branch folding (Figure 4's `handler != null`);
//! * [`run_forward`] — the worklist engine with dead-edge suppression.
//!
//! # Examples
//!
//! ```
//! use spo_dataflow::{BitSet32, Dnf, JoinLattice};
//!
//! // The Figure 2 may-policy: {{checkMulticast}, {checkConnect, checkAccept}}.
//! let mut multicast_path = Dnf::empty_path();
//! multicast_path.gen(0);
//! let mut connect_path = Dnf::empty_path();
//! connect_path.gen(1);
//! connect_path.gen(2);
//! let mut policy = multicast_path;
//! policy.join(&connect_path);
//! assert_eq!(policy.disjuncts().len(), 2);
//! assert_eq!(policy.must_view(), BitSet32::empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constprop;
mod engine;
mod lattice;

pub use constprop::{AbsVal, ConstEnv};
pub use engine::{run_forward, DataflowResults, FixpointStats, Flow, ForwardAnalysis};
pub use lattice::{dnf_widenings, BitSet32, Dnf, JoinLattice, MustSet, DNF_WIDTH};
