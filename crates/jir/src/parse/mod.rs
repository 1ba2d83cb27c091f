//! The `.jir` textual frontend: lexer and parser.

mod lexer;
mod parser;

pub use lexer::{lex, LexError, Spanned, Tok};
pub use parser::{
    parse_into, parse_into_recovering, parse_into_recovering_traced, parse_program,
    ParseDiagnostic, ParseError, Recovery,
};
