//! Lexer for the `.jir` textual format.
//!
//! Tokens borrow the source text: an identifier is a slice of it, and a
//! string literal is one too unless it contains an escape sequence, so a
//! clean file lexes into one token vector and no other allocation.

use std::borrow::Cow;
use std::fmt;

/// A lexical token kind, borrowing from the source text `'a`.
#[derive(Clone, PartialEq, Debug)]
pub(super) enum Tok<'a> {
    /// Identifier or keyword (keywords are recognized by the parser).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped); owned only when it had an escape.
    Str(Cow<'a, str>),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Assign => f.write_str("`=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::NotEq => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Percent => f.write_str("`%`"),
            Tok::Amp => f.write_str("`&`"),
            Tok::Pipe => f.write_str("`|`"),
            Tok::Caret => f.write_str("`^`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token plus its source position.
#[derive(Clone, Debug)]
pub(super) struct Spanned<'a> {
    /// The token.
    pub(super) tok: Tok<'a>,
    /// 1-based line.
    pub(super) line: u32,
    /// 1-based column, counted in bytes.
    pub(super) col: u32,
}

/// A lexical error with position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(super) struct LexError {
    /// Description of the problem.
    pub(super) message: String,
    /// 1-based line.
    pub(super) line: u32,
    /// 1-based column, counted in bytes.
    pub(super) col: u32,
}

/// Tokenizes a `.jir` source string.
///
/// Supports `//` line comments and `/* ... */` block comments. The output
/// always ends with a [`Tok::Eof`] token. Columns count bytes from the
/// start of the line.
///
/// # Errors
///
/// Returns [`LexError`] on unterminated strings/comments, malformed escape
/// sequences, integer overflow, or unexpected characters.
pub(super) fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let bytes = src.as_bytes();
    // Generated `.jir` averages over three bytes per token, so this
    // capacity is rarely outgrown; pages never written cost no memory.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    // Byte offset where the current line starts: a column is the distance
    // from it, so only newlines need tracking.
    let mut line_start = 0usize;
    let col = |i: usize, line_start: usize| (i - line_start + 1) as u32;
    macro_rules! err {
        ($l:expr, $c:expr, $($arg:tt)*) => {
            return Err(LexError { message: format!($($arg)*), line: $l, col: $c })
        };
    }
    while i < bytes.len() {
        let b = bytes[i];
        let (tl, tc) = (line, col(i, line_start));
        let tok = match b {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += bytes[i..]
                    .iter()
                    .take_while(|&&c| matches!(c, b' ' | b'\t' | b'\r'))
                    .count();
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // The newline itself is left for the arm above.
                i += bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .unwrap_or(bytes.len() - i);
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let Some(len) = src[i + 2..].find("*/") else {
                    err!(tl, tc, "unterminated block comment");
                };
                let comment = &bytes[i..i + 2 + len + 2];
                if let Some(last) = comment.iter().rposition(|&c| c == b'\n') {
                    line += comment.iter().filter(|&&c| c == b'\n').count() as u32;
                    line_start = i + last + 1;
                }
                i += comment.len();
                continue;
            }
            b'"' => {
                // The unescaped text is built only once an escape shows up;
                // `run` starts the source text not yet copied into it.
                let mut unescaped: Option<String> = None;
                let mut run = i + 1;
                let mut j = run;
                loop {
                    match bytes.get(j) {
                        None | Some(b'\n') => err!(tl, tc, "unterminated string literal"),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            let ch = match bytes.get(j + 1) {
                                None => err!(tl, tc, "unterminated string literal"),
                                Some(b'n') => '\n',
                                Some(b't') => '\t',
                                Some(b'\\') => '\\',
                                Some(b'"') => '"',
                                Some(&other) => err!(
                                    line,
                                    col(j + 1, line_start),
                                    "bad escape `\\{}`",
                                    other as char
                                ),
                            };
                            let buf = unescaped.get_or_insert_with(String::new);
                            buf.push_str(&src[run..j]);
                            buf.push(ch);
                            j += 2;
                            run = j;
                        }
                        Some(_) => j += 1,
                    }
                }
                let text = match unescaped {
                    None => Cow::Borrowed(&src[run..j]),
                    Some(mut buf) => {
                        buf.push_str(&src[run..j]);
                        Cow::Owned(buf)
                    }
                };
                i = j + 1;
                Tok::Str(text)
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let Ok(v) = text.parse::<i64>() else {
                    err!(tl, tc, "integer `{text}` out of range");
                };
                Tok::Int(v)
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b'$' => {
                let start = i;
                i += bytes[i..]
                    .iter()
                    .take_while(|&&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$')
                    .count();
                Tok::Ident(&src[start..i])
            }
            _ => {
                let two = |b2: u8| bytes.get(i + 1) == Some(&b2);
                let (tok, len) = match b {
                    b'=' if two(b'=') => (Tok::EqEq, 2),
                    b'!' if two(b'=') => (Tok::NotEq, 2),
                    b'<' if two(b'=') => (Tok::Le, 2),
                    b'>' if two(b'=') => (Tok::Ge, 2),
                    b'{' => (Tok::LBrace, 1),
                    b'}' => (Tok::RBrace, 1),
                    b'(' => (Tok::LParen, 1),
                    b')' => (Tok::RParen, 1),
                    b'[' => (Tok::LBracket, 1),
                    b']' => (Tok::RBracket, 1),
                    b';' => (Tok::Semi, 1),
                    b':' => (Tok::Colon, 1),
                    b',' => (Tok::Comma, 1),
                    b'.' => (Tok::Dot, 1),
                    b'=' => (Tok::Assign, 1),
                    b'<' => (Tok::Lt, 1),
                    b'>' => (Tok::Gt, 1),
                    b'+' => (Tok::Plus, 1),
                    b'-' => (Tok::Minus, 1),
                    b'*' => (Tok::Star, 1),
                    b'/' => (Tok::Slash, 1),
                    b'%' => (Tok::Percent, 1),
                    b'&' => (Tok::Amp, 1),
                    b'|' => (Tok::Pipe, 1),
                    b'^' => (Tok::Caret, 1),
                    b'!' => (Tok::Bang, 1),
                    other => err!(tl, tc, "unexpected character `{}`", other as char),
                };
                i += len;
                tok
            }
        };
        out.push(Spanned {
            tok,
            line: tl,
            col: tc,
        });
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col: col(i, line_start),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("class Foo { }"),
            vec![
                Tok::Ident("class"),
                Tok::Ident("Foo"),
                Tok::LBrace,
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != <= >= < > = ! + - * / % & | ^"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Bang,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Amp,
                Tok::Pipe,
                Tok::Caret,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n b /* block\n spanning */ c"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""a\nb\"c\\""#),
            vec![Tok::Str("a\nb\"c\\".into()), Tok::Eof]
        );
    }

    #[test]
    fn only_escaped_string_literals_are_copied() {
        let ts = lex(r#""plain" "esc\tx""#).unwrap();
        assert!(matches!(&ts[0].tok, Tok::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&ts[1].tok, Tok::Str(Cow::Owned(s)) if s == "esc\tx"));
    }

    #[test]
    fn numbers_and_idents_with_dollar() {
        assert_eq!(
            toks("x1 $tmp 42"),
            vec![Tok::Ident("x1"), Tok::Ident("$tmp"), Tok::Int(42), Tok::Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn bad_escape_errors() {
        assert!(lex(r#""\q""#).is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("#").is_err());
    }

    #[test]
    fn huge_integer_errors() {
        assert!(lex("999999999999999999999999999").is_err());
    }
}
