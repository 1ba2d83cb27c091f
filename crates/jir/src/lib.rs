//! # spo-jir — a Jimple-like IR for Java-style programs
//!
//! This crate is the program-representation substrate of the
//! *security policy oracle* (PLDI 2011 reproduction). The paper's analysis
//! runs on Soot's Jimple, a typed three-address IR for JVM bytecode; `spo-jir`
//! provides the equivalent from scratch:
//!
//! * an interned, arena-based [`Program`] of classes, fields, and methods;
//! * three-address [`Stmt`]s with index-based branch targets and per-body
//!   [`Cfg`] construction;
//! * a textual format (`.jir`) with a [`parse_program`] frontend and a
//!   round-tripping [`print_program`] pretty-printer.
//!
//! The IR deliberately models the parts of Java the security analysis
//! observes: virtual/special/static/interface dispatch, `native` (JNI)
//! methods, field accesses, constants feeding conditional branches, and
//! privileged regions (`AccessController.doPrivileged`).
//!
//! # Examples
//!
//! Parse a class and inspect it:
//!
//! ```
//! let src = r#"
//! class java.net.Socket {
//!   method public void connect(java.net.SocketAddress endpoint, int timeout) {
//!     local java.lang.SecurityManager sm;
//!     sm = staticinvoke java.lang.System.getSecurityManager();
//!     if sm == null goto skip;
//!     virtualinvoke sm.checkConnect(endpoint, timeout);
//!   skip:
//!     return;
//!   }
//! }
//! "#;
//! let program = spo_jir::parse_program(src)?;
//! let socket = program.class_by_str("java.net.Socket").unwrap();
//! assert_eq!(program.class(socket).methods.len(), 1);
//! # Ok::<(), spo_jir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod body;
mod dominators;
mod flags;
mod hash;
mod intern;
mod parse;
mod printer;
mod program;
mod stmt;
mod types;

pub use body::{Body, Cfg, LocalDecl};
pub use dominators::Dominators;
pub use flags::{ClassFlags, FieldFlags, MethodFlags};
pub use hash::{method_content_hash, method_identity_hash, structure_hash, Fnv64};
pub use intern::{Interner, Symbol};
pub use parse::{
    parse_into, parse_into_recovering, parse_program, ParseDiagnostic, ParseError, Recovery,
};
pub use printer::{print_class, print_method, print_program};
pub use program::{Class, ClassId, Field, FieldId, Method, MethodId, Program, ProgramError};
pub use stmt::{
    BinOp, Call, CmpOp, Cond, Const, Expr, FieldRef, FieldTarget, InvokeKind, LocalId, MethodRef,
    Operand, Stmt, UnOp,
};
pub use types::{Type, TypeDisplay};
