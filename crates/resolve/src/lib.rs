//! # spo-resolve — hierarchy, devirtualization, and call graphs
//!
//! This crate reproduces the method-resolution substrate the paper borrows
//! from Soot (§4 "Call graph"): a class-hierarchy analysis over
//! [`spo_jir::Program`]s, unique-target call-site resolution (with
//! `final`-method/class devirtualization — the coding convention the paper
//! credits for the JCL's 97% resolution rate), API entry-point enumeration
//! (public *and* protected methods), and on-the-fly call graphs rooted at
//! every entry point.
//!
//! Call sites that do not resolve to a unique target are skipped by the
//! downstream security analysis, exactly as in the paper ("If Soot does not
//! resolve a method invocation, our implementation does not analyze it").
//!
//! # Examples
//!
//! ```
//! use spo_resolve::{entry_points, CallGraph, Hierarchy};
//!
//! let program = spo_jir::parse_program(
//!     "class C { method public void api() { return; } }",
//! )?;
//! let hierarchy = Hierarchy::new(&program);
//! let roots = entry_points(&program);
//! assert_eq!(roots.len(), 1);
//! let cg = CallGraph::build(&hierarchy, roots);
//! assert_eq!(cg.reachable_count(), 1);
//! # Ok::<(), spo_jir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod callgraph;
mod hierarchy;
mod lint;
mod resolver;

pub use callgraph::{entry_points, CallGraph};
pub use hierarchy::Hierarchy;
pub use lint::{lint_program, Lint, LintKind};
pub use resolver::{Resolution, ResolutionStats, Resolver};
