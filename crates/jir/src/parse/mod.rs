//! The `.jir` textual frontend: lexer and parser.
//!
//! The lexer is internal: its tokens borrow the source text, and its errors
//! reach callers as [`ParseError`]s and [`ParseDiagnostic`]s.

mod lexer;
mod parser;

pub use parser::{
    parse_into, parse_into_recovering, parse_program, ParseDiagnostic, ParseError, Recovery,
};
