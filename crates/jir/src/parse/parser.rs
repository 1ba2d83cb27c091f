//! Recursive-descent parser for the `.jir` textual format.
//!
//! The grammar mirrors Jimple where practical. See the crate-level docs for
//! a walkthrough and `printer.rs` for the exact concrete syntax (the printer
//! and parser round-trip).
//!
//! The parser walks the lexer's borrowed tokens by reference: names reach
//! the [`Program`] interner as slices of the source text, and the only
//! strings it builds are dotted names and error messages.

use super::lexer::{lex, Spanned, Tok};
use crate::body::{Body, LocalDecl};
use crate::flags::{ClassFlags, FieldFlags, MethodFlags};
use crate::hash::FxHashMap;
use crate::program::{Class, Field, Method, Program};
use crate::stmt::{
    Call, CmpOp, Cond, Const, Expr, FieldRef, FieldTarget, InvokeKind, LocalId, MethodRef, Operand,
    Stmt,
};
use crate::types::Type;
use crate::Symbol;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;

/// A parse error with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `.jir` source text into a fresh [`Program`].
///
/// # Errors
///
/// Returns the first problem [`parse_into_recovering`] reports, as a
/// [`ParseError`]: a lexical or syntactic problem, or a semantic one caught
/// at assembly time (duplicate classes/members, malformed bodies), with the
/// position of the offending construct where available.
///
/// # Examples
///
/// ```
/// let src = r#"
/// class demo.C {
///   method public static int answer() {
///     local int x;
///     x = 42;
///     return x;
///   }
/// }
/// "#;
/// let program = spo_jir::parse_program(src)?;
/// assert_eq!(program.class_count(), 1);
/// # Ok::<(), spo_jir::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut program = Program::new();
    parse_into(src, &mut program)?;
    Ok(program)
}

/// Parses `.jir` source text, adding its classes to an existing program.
///
/// Used to layer a library implementation on top of a shared runtime
/// prelude. This is [`parse_into_recovering`] made strict: the error is
/// the first diagnostic, and on error `program` holds whatever the
/// recovering parse added.
///
/// # Errors
///
/// See [`parse_program`].
pub fn parse_into(src: &str, program: &mut Program) -> Result<(), ParseError> {
    match parse_into_recovering(src, program)
        .diagnostics
        .into_iter()
        .next()
    {
        None => Ok(()),
        Some(d) => Err(ParseError {
            message: d.message,
            line: d.line,
            col: d.col,
        }),
    }
}

/// One recovered-from parse problem: what went wrong, where, and which
/// syntactic unit was dropped to move past it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseDiagnostic {
    /// Description of the problem.
    pub message: String,
    /// 1-based line of the offending construct.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The unit dropped to recover: `field`, `method`, `class`,
    /// `` class `N` ``, or `file`.
    pub dropped: String,
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} (dropped {})",
            self.line, self.col, self.message, self.dropped
        )
    }
}

/// The outcome of a recovering parse: every problem encountered, in source
/// order. Empty means the input parsed cleanly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Recovery {
    /// Recovered-from problems, in source order.
    pub diagnostics: Vec<ParseDiagnostic>,
}

impl Recovery {
    /// Returns `true` if the input parsed without dropping anything.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Parses `.jir` source with error recovery, adding what parses to
/// `program` and collecting a [`ParseDiagnostic`] per problem instead of
/// bailing on the first error.
///
/// Recovery granularity: a malformed field or method body drops only that
/// member (resynchronizing on `;` / balanced braces); a malformed class
/// header, duplicate class, or unclosed class body drops that class
/// (resynchronizing on the next top-level `class`/`interface`); a lexical
/// error drops the whole file. Everything that does parse is added, so one
/// corrupt file in a library-scale corpus degrades — never aborts — the
/// load.
pub fn parse_into_recovering(src: &str, program: &mut Program) -> Recovery {
    let mut recovery = Recovery::default();
    let tokens = match lex(src) {
        Ok(t) => t,
        Err(e) => {
            recovery.diagnostics.push(ParseDiagnostic {
                message: e.message,
                line: e.line,
                col: e.col,
                dropped: "file".to_owned(),
            });
            return recovery;
        }
    };
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        program,
    };
    while !p.at_eof() {
        let start = p.pos;
        match p.parse_class_with(&mut recovery) {
            Ok(class) => {
                let name = class.name;
                let (line, col) = p.here();
                if let Err(e) = p.program.add_class(class) {
                    recovery.diagnostics.push(ParseDiagnostic {
                        message: e.to_string(),
                        line,
                        col,
                        dropped: format!("class `{}`", p.program.str(name)),
                    });
                }
            }
            Err(e) => {
                recovery.diagnostics.push(ParseDiagnostic {
                    message: e.message,
                    line: e.line,
                    col: e.col,
                    dropped: "class".to_owned(),
                });
                p.recover_to_class(start);
            }
        }
    }
    recovery
}

/// Parser state over the tokens `'t` of source text `'a`. Tokens are read
/// in place: [`Parser::peek`] hands out references that outlive the
/// `&self` borrow, so a token's text can go straight into `program`.
struct Parser<'t, 'a> {
    tokens: &'t [Spanned<'a>],
    pos: usize,
    program: &'t mut Program,
}

/// The parameters and locals of one method body, by source name.
struct LocalScope<'a> {
    by_name: FxHashMap<&'a str, LocalId>,
    decls: Vec<LocalDecl>,
}

impl<'a> LocalScope<'a> {
    fn new() -> Self {
        LocalScope {
            by_name: FxHashMap::default(),
            decls: Vec::new(),
        }
    }

    /// Declares `name`, or returns `None` if it is already declared.
    fn add(&mut self, name: &'a str, sym: Symbol, ty: Type) -> Option<LocalId> {
        let Entry::Vacant(slot) = self.by_name.entry(name) else {
            return None;
        };
        let id = *slot.insert(LocalId(self.decls.len() as u32));
        self.decls.push(LocalDecl { name: sym, ty });
        Some(id)
    }

    fn get(&self, name: &str) -> Option<(LocalId, &Type)> {
        let &id = self.by_name.get(name)?;
        Some((id, &self.decls[id.0 as usize].ty))
    }
}

impl<'t, 'a> Parser<'t, 'a> {
    fn here(&self) -> (u32, u32) {
        let s = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        (s.line, s.col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            message: msg.into(),
            line,
            col,
        })
    }

    fn peek(&self) -> &'t Tok<'a> {
        let tokens = self.tokens;
        &tokens[self.pos].tok
    }

    fn peek2(&self) -> &'t Tok<'a> {
        let tokens = self.tokens;
        &tokens[(self.pos + 1).min(tokens.len() - 1)].tok
    }

    /// Steps past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn expect(&mut self, tok: &Tok<'_>) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if *s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if *s == kw)
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            &Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Dotted qualified name: `ident (. ident)*`. Borrowed from the source
    /// when it is a single identifier.
    fn qname(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let first = self.ident()?;
        if !matches!(self.peek(), Tok::Dot) {
            return Ok(Cow::Borrowed(first));
        }
        // Size the name from the tokens ahead so it is allocated once.
        let mut len = first.len();
        let mut ahead = self.tokens[self.pos..].chunks_exact(2);
        while let Some(
            [Spanned { tok: Tok::Dot, .. }, Spanned {
                tok: Tok::Ident(s), ..
            }],
        ) = ahead.next()
        {
            len += 1 + s.len();
        }
        let mut name = String::with_capacity(len);
        name.push_str(first);
        while matches!(self.peek(), Tok::Dot) {
            self.bump();
            name.push('.');
            name.push_str(self.ident()?);
        }
        Ok(Cow::Owned(name))
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let base = match self.peek() {
            &Tok::Ident(s) => match s {
                "void" => {
                    self.bump();
                    Type::Void
                }
                "bool" | "boolean" => {
                    self.bump();
                    Type::Bool
                }
                "int" | "byte" | "short" | "char" => {
                    self.bump();
                    Type::Int
                }
                "long" => {
                    self.bump();
                    Type::Long
                }
                "float" => {
                    self.bump();
                    Type::Float
                }
                "double" => {
                    self.bump();
                    Type::Double
                }
                _ => {
                    let name = self.qname()?;
                    Type::Ref(self.program.intern(&name))
                }
            },
            other => return self.err(format!("expected type, found {other}")),
        };
        let mut ty = base;
        while matches!(self.peek(), Tok::LBracket) && matches!(self.peek2(), Tok::RBracket) {
            self.bump();
            self.bump();
            ty = Type::Array(Box::new(ty));
        }
        Ok(ty)
    }

    /// Skips past a malformed class member, leaving the class's own closing
    /// `}` unconsumed. The member ends at a `;` at brace depth 0 (field or
    /// abstract method), or at the `}` that closes the member's first brace
    /// block (method body). Always consumes at least one token unless at
    /// end of input, so recovery makes progress on arbitrary garbage.
    fn skip_member(&mut self) {
        let mut depth = 0usize;
        let mut consumed = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                Tok::LBrace => {
                    depth += 1;
                    self.bump();
                    consumed += 1;
                }
                Tok::RBrace => {
                    if depth == 0 {
                        // The class's closing brace; leave it for the
                        // member loop. `consumed` is always >= 1 here
                        // because the loop guard excludes `}` as a
                        // member's first token.
                        debug_assert!(consumed >= 1);
                        return;
                    }
                    depth -= 1;
                    self.bump();
                    consumed += 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                    consumed += 1;
                }
            }
        }
    }

    /// Resynchronizes after a failed class parse: rewinds to `start` and
    /// skips forward to the next top-level `class`/`interface` keyword
    /// (brace depth 0) or end of input, consuming at least one token.
    fn recover_to_class(&mut self, start: usize) {
        self.pos = start;
        let mut depth = 0usize;
        let mut first = true;
        loop {
            if self.at_eof() {
                return;
            }
            if !first && depth == 0 && (self.at_kw("class") || self.at_kw("interface")) {
                return;
            }
            match self.peek() {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.bump();
            first = false;
        }
    }

    /// Parses one class. A malformed member records a diagnostic in
    /// `recovery` and drops only that member (resynchronizing on `;` /
    /// balanced braces); header and class-assembly errors propagate so the
    /// caller can drop the whole class.
    fn parse_class_with(&mut self, recovery: &mut Recovery) -> Result<Class, ParseError> {
        let is_interface = if self.at_kw("class") {
            self.bump();
            false
        } else if self.at_kw("interface") {
            self.bump();
            true
        } else {
            return self.err(format!(
                "expected `class` or `interface`, found {}",
                self.peek()
            ));
        };
        let mut flags = ClassFlags::PUBLIC;
        if is_interface {
            flags |= ClassFlags::INTERFACE | ClassFlags::ABSTRACT;
        }
        // Optional modifiers between keyword and name.
        loop {
            if self.at_kw("final") {
                self.bump();
                flags |= ClassFlags::FINAL;
            } else if self.at_kw("abstract") {
                self.bump();
                flags |= ClassFlags::ABSTRACT;
            } else {
                break;
            }
        }
        let name_str = self.qname()?;
        let name = self.program.intern(&name_str);
        let mut superclass = if is_interface || name_str == "java.lang.Object" {
            None
        } else {
            Some(self.program.intern("java.lang.Object"))
        };
        let mut interfaces = Vec::new();
        if self.at_kw("extends") {
            self.bump();
            if is_interface {
                loop {
                    let n = self.qname()?;
                    interfaces.push(self.program.intern(&n));
                    if matches!(self.peek(), Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else {
                let n = self.qname()?;
                superclass = Some(self.program.intern(&n));
            }
        }
        if self.at_kw("implements") {
            self.bump();
            loop {
                let n = self.qname()?;
                interfaces.push(self.program.intern(&n));
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            let member_start = self.pos;
            let outcome = if self.at_kw("field") {
                self.parse_field().map(|f| fields.push(f))
            } else if self.at_kw("method") {
                self.parse_method(name).map(|m| methods.push(m))
            } else {
                self.err(format!(
                    "expected `field` or `method`, found {}",
                    self.peek()
                ))
            };
            if let Err(e) = outcome {
                let dropped = match self.tokens[member_start].tok {
                    Tok::Ident("field") => "field",
                    Tok::Ident("method") => "method",
                    _ => "member",
                };
                recovery.diagnostics.push(ParseDiagnostic {
                    message: e.message,
                    line: e.line,
                    col: e.col,
                    dropped: dropped.to_owned(),
                });
                self.pos = member_start;
                self.skip_member();
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(Class {
            name,
            superclass,
            interfaces,
            flags,
            fields,
            methods,
        })
    }

    #[allow(clippy::while_let_loop)] // the loop exits from two depths; while-let obscures that
    fn parse_field(&mut self) -> Result<Field, ParseError> {
        self.expect_kw("field")?;
        let mut flags = FieldFlags::empty();
        loop {
            match self.peek() {
                &Tok::Ident(s) => match s {
                    "public" => flags |= FieldFlags::PUBLIC,
                    "protected" => flags |= FieldFlags::PROTECTED,
                    "private" => flags |= FieldFlags::PRIVATE,
                    "static" => flags |= FieldFlags::STATIC,
                    "final" => flags |= FieldFlags::FINAL,
                    _ => break,
                },
                _ => break,
            }
            self.bump();
        }
        let ty = self.parse_type()?;
        let name = self.ident()?;
        let name = self.program.intern(name);
        self.expect(&Tok::Semi)?;
        Ok(Field { name, ty, flags })
    }

    #[allow(clippy::while_let_loop)] // same shape as parse_field
    fn parse_method(&mut self, class_name: Symbol) -> Result<Method, ParseError> {
        self.expect_kw("method")?;
        let mut flags = MethodFlags::empty();
        loop {
            match self.peek() {
                &Tok::Ident(s) => match s {
                    "public" => flags |= MethodFlags::PUBLIC,
                    "protected" => flags |= MethodFlags::PROTECTED,
                    "private" => flags |= MethodFlags::PRIVATE,
                    "static" => flags |= MethodFlags::STATIC,
                    "final" => flags |= MethodFlags::FINAL,
                    "native" => flags |= MethodFlags::NATIVE,
                    "abstract" => flags |= MethodFlags::ABSTRACT,
                    "synchronized" => flags |= MethodFlags::SYNCHRONIZED,
                    _ => break,
                },
                _ => break,
            }
            self.bump();
        }
        let ret = self.parse_type()?;
        let name = self.ident()?;
        let name = self.program.intern(name);
        self.expect(&Tok::LParen)?;
        let mut scope = LocalScope::new();
        if !flags.contains(MethodFlags::STATIC) {
            let this = self.program.intern("this");
            scope.add("this", this, Type::Ref(class_name));
        }
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                let ty = self.parse_type()?;
                let pname = self.ident()?;
                let sym = self.program.intern(pname);
                params.push(ty.clone());
                if scope.add(pname, sym, ty).is_none() {
                    return self.err(format!("duplicate parameter `{pname}`"));
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let n_params = scope.decls.len();
        if matches!(self.peek(), Tok::Semi) {
            self.bump();
            if !flags.contains(MethodFlags::NATIVE) && !flags.contains(MethodFlags::ABSTRACT) {
                return self.err("body-less method must be `native` or `abstract`");
            }
            return Ok(Method {
                name,
                params,
                ret,
                flags,
                body: None,
            });
        }
        let body = self.parse_body(scope, n_params)?;
        Ok(Method {
            name,
            params,
            ret,
            flags,
            body: Some(body),
        })
    }

    fn parse_body(
        &mut self,
        mut scope: LocalScope<'a>,
        n_params: usize,
    ) -> Result<Body, ParseError> {
        self.expect(&Tok::LBrace)?;
        // Local declarations first.
        while self.at_kw("local") {
            self.bump();
            let ty = self.parse_type()?;
            loop {
                let lname = self.ident()?;
                let sym = self.program.intern(lname);
                if scope.add(lname, sym, ty.clone()).is_none() {
                    return self.err(format!("duplicate local `{lname}`"));
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&Tok::Semi)?;
        }
        let mut st = StmtParser {
            stmts: Vec::new(),
            labels: FxHashMap::default(),
            fixups: Vec::new(),
        };
        while !matches!(self.peek(), Tok::RBrace) {
            self.parse_stmt(&scope, &mut st)?;
        }
        self.expect(&Tok::RBrace)?;
        // Resolve label fixups.
        for (idx, lname, line, col) in st.fixups {
            let Some(&target) = st.labels.get(lname) else {
                return Err(ParseError {
                    message: format!("undefined label `{lname}`"),
                    line,
                    col,
                });
            };
            match &mut st.stmts[idx] {
                Stmt::If { target: t, .. } | Stmt::Goto { target: t } => *t = target,
                other => unreachable!("fixup on {other:?}"),
            }
        }
        // Pad for labels bound at end-of-body and for implicit void return.
        let end = st.stmts.len();
        let needs_pad = st.stmts.iter().any(
            |s| matches!(s, Stmt::If { target, .. } | Stmt::Goto { target } if *target == end),
        ) || st.stmts.last().is_none_or(|s| !s.is_terminator());
        if needs_pad {
            st.stmts.push(Stmt::Return { value: None });
        }
        Ok(Body {
            locals: scope.decls,
            n_params,
            stmts: st.stmts,
        })
    }

    fn parse_stmt(
        &mut self,
        scope: &LocalScope<'a>,
        st: &mut StmtParser<'a>,
    ) -> Result<(), ParseError> {
        // Label binding: IDENT ':'
        if matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Colon) {
            let lname = self.ident()?;
            self.bump(); // colon
            if st.labels.insert(lname, st.stmts.len()).is_some() {
                return self.err(format!("label `{lname}` bound twice"));
            }
            return Ok(());
        }
        if self.at_kw("privileged") {
            self.bump();
            self.expect(&Tok::LBrace)?;
            st.stmts.push(Stmt::EnterPriv);
            while !matches!(self.peek(), Tok::RBrace) {
                self.parse_stmt(scope, st)?;
            }
            self.expect(&Tok::RBrace)?;
            st.stmts.push(Stmt::ExitPriv);
            return Ok(());
        }
        if self.at_kw("nop") {
            self.bump();
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::Nop);
            return Ok(());
        }
        if self.at_kw("enterpriv") {
            self.bump();
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::EnterPriv);
            return Ok(());
        }
        if self.at_kw("exitpriv") {
            self.bump();
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::ExitPriv);
            return Ok(());
        }
        if self.at_kw("goto") {
            self.bump();
            let lname = self.ident()?;
            let (line, col) = self.here();
            st.fixups.push((st.stmts.len(), lname, line, col));
            st.stmts.push(Stmt::Goto { target: usize::MAX });
            self.expect(&Tok::Semi)?;
            return Ok(());
        }
        if self.at_kw("return") {
            self.bump();
            let value = if matches!(self.peek(), Tok::Semi) {
                None
            } else {
                Some(self.parse_operand(scope)?)
            };
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::Return { value });
            return Ok(());
        }
        if self.at_kw("throw") {
            self.bump();
            let value = self.parse_operand(scope)?;
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::Throw { value });
            return Ok(());
        }
        if self.at_kw("if") {
            self.bump();
            let cond = self.parse_cond(scope)?;
            self.expect_kw("goto")?;
            let lname = self.ident()?;
            let (line, col) = self.here();
            st.fixups.push((st.stmts.len(), lname, line, col));
            st.stmts.push(Stmt::If {
                cond,
                target: usize::MAX,
            });
            self.expect(&Tok::Semi)?;
            return Ok(());
        }
        if self.at_invoke_kw() {
            let (dst, call) = (None, self.parse_invoke(scope)?);
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::Invoke { dst, call });
            return Ok(());
        }
        // Remaining forms start with an identifier chain:
        //   x = expr;              (x local)
        //   recv.f = op;           (recv local)
        //   pkg.Class.f = op;      (static store)
        //   x[i] = op;             (array store)
        let first = self.ident()?;
        if matches!(self.peek(), Tok::LBracket) {
            // array store
            let Some((array, _)) = scope.get(first) else {
                return self.err(format!("unknown local `{first}`"));
            };
            self.bump();
            let index = self.parse_operand(scope)?;
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::Assign)?;
            let value = self.parse_operand(scope)?;
            self.expect(&Tok::Semi)?;
            st.stmts.push(Stmt::ArrayStore {
                array,
                index,
                value,
            });
            return Ok(());
        }
        if matches!(self.peek(), Tok::Assign) {
            // simple assignment to local
            let Some((dst, _)) = scope.get(first) else {
                return self.err(format!("unknown local `{first}`"));
            };
            self.bump();
            let value = self.parse_expr(scope)?;
            self.expect(&Tok::Semi)?;
            match value {
                ParsedExpr::Plain(e) => st.stmts.push(Stmt::Assign { dst, value: e }),
                ParsedExpr::Invoke(call) => st.stmts.push(Stmt::Invoke {
                    dst: Some(dst),
                    call,
                }),
            }
            return Ok(());
        }
        if matches!(self.peek(), Tok::Dot) {
            // field store (instance or static)
            let mut segs = vec![first];
            while matches!(self.peek(), Tok::Dot) {
                self.bump();
                segs.push(self.ident()?);
            }
            self.expect(&Tok::Assign)?;
            let value = self.parse_operand(scope)?;
            self.expect(&Tok::Semi)?;
            let target = self.field_target(scope, &segs)?;
            st.stmts.push(Stmt::FieldStore { target, value });
            return Ok(());
        }
        self.err(format!("unexpected token {} in statement", self.peek()))
    }

    /// Builds a [`FieldTarget`] from a dotted segment chain.
    fn field_target(
        &mut self,
        scope: &LocalScope<'a>,
        segs: &[&'a str],
    ) -> Result<FieldTarget, ParseError> {
        if segs.len() == 2 {
            if let Some((recv, ty)) = scope.get(segs[0]) {
                let Some(class) = ty.class_name() else {
                    return self.err(format!(
                        "field access on local `{}` of non-class type",
                        segs[0]
                    ));
                };
                let name = self.program.intern(segs[1]);
                return Ok(FieldTarget::Instance(recv, FieldRef { class, name }));
            }
        }
        if segs.len() >= 2 && scope.get(segs[0]).is_none() {
            let class_str = segs[..segs.len() - 1].join(".");
            let class = self.program.intern(&class_str);
            let name = self.program.intern(segs[segs.len() - 1]);
            return Ok(FieldTarget::Static(FieldRef { class, name }));
        }
        self.err(format!("cannot resolve field access `{}`", segs.join(".")))
    }

    fn at_invoke_kw(&self) -> bool {
        self.at_kw("virtualinvoke")
            || self.at_kw("specialinvoke")
            || self.at_kw("staticinvoke")
            || self.at_kw("interfaceinvoke")
    }

    fn parse_invoke(&mut self, scope: &LocalScope<'a>) -> Result<Call, ParseError> {
        let kind = match self.ident()? {
            "virtualinvoke" => InvokeKind::Virtual,
            "specialinvoke" => InvokeKind::Special,
            "staticinvoke" => InvokeKind::Static,
            "interfaceinvoke" => InvokeKind::Interface,
            other => return self.err(format!("unknown invoke kind `{other}`")),
        };
        if kind == InvokeKind::Static {
            // staticinvoke pkg.Class.name(args)
            let qn = self.qname()?;
            let Some(dot) = qn.rfind('.') else {
                return self.err("static invoke needs `Class.method`");
            };
            let class = self.program.intern(&qn[..dot]);
            let name = self.program.intern(&qn[dot + 1..]);
            let args = self.parse_args(scope)?;
            return Ok(Call {
                kind,
                receiver: None,
                callee: MethodRef {
                    class,
                    name,
                    argc: args.len() as u32,
                },
                args,
            });
        }
        // recv.name(args); callee class = receiver's declared type.
        let recv_name = self.ident()?;
        let Some((recv, ty)) = scope.get(recv_name) else {
            return self.err(format!("unknown receiver local `{recv_name}`"));
        };
        let Some(class) = ty.class_name() else {
            return self.err(format!("receiver `{recv_name}` has non-class type"));
        };
        self.expect(&Tok::Dot)?;
        let mname = self.ident()?;
        let name = self.program.intern(mname);
        let args = self.parse_args(scope)?;
        Ok(Call {
            kind,
            receiver: Some(recv),
            callee: MethodRef {
                class,
                name,
                argc: args.len() as u32,
            },
            args,
        })
    }

    fn parse_args(&mut self, scope: &LocalScope<'a>) -> Result<Vec<Operand>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            loop {
                args.push(self.parse_operand(scope)?);
                if matches!(self.peek(), Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    fn parse_operand(&mut self, scope: &LocalScope<'a>) -> Result<Operand, ParseError> {
        match self.peek() {
            &Tok::Int(v) => {
                self.bump();
                Ok(Operand::Const(Const::Int(v)))
            }
            Tok::Minus => {
                self.bump();
                match self.peek() {
                    &Tok::Int(v) => {
                        self.bump();
                        Ok(Operand::Const(Const::Int(-v)))
                    }
                    other => self.err(format!("expected integer after `-`, found {other}")),
                }
            }
            Tok::Str(s) => {
                self.bump();
                let sym = self.program.intern(s);
                Ok(Operand::Const(Const::Str(sym)))
            }
            &Tok::Ident(s) => match s {
                "null" => {
                    self.bump();
                    Ok(Operand::Const(Const::Null))
                }
                "true" => {
                    self.bump();
                    Ok(Operand::Const(Const::Bool(true)))
                }
                "false" => {
                    self.bump();
                    Ok(Operand::Const(Const::Bool(false)))
                }
                _ => {
                    // Could be a local or a class literal `pkg.Class.class`.
                    // A local followed by a dot is still consumed as the
                    // local; the caller errors on the stray dot.
                    if let Some((id, _)) = scope.get(s) {
                        self.bump();
                        return Ok(Operand::Local(id));
                    }
                    let qn = self.qname()?;
                    if let Some(stripped) = qn.strip_suffix(".class") {
                        let sym = self.program.intern(stripped);
                        Ok(Operand::Const(Const::Class(sym)))
                    } else {
                        self.err(format!("unknown operand `{qn}`"))
                    }
                }
            },
            other => self.err(format!("expected operand, found {other}")),
        }
    }

    fn parse_cond(&mut self, scope: &LocalScope<'a>) -> Result<Cond, ParseError> {
        if matches!(self.peek(), Tok::Bang) {
            self.bump();
            let op = self.parse_operand(scope)?;
            return Ok(Cond::Falsy(op));
        }
        let lhs = self.parse_operand(scope)?;
        let cmp = match self.peek() {
            Tok::EqEq => Some(CmpOp::Eq),
            Tok::NotEq => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        match cmp {
            Some(op) => {
                self.bump();
                let rhs = self.parse_operand(scope)?;
                Ok(Cond::Cmp { op, lhs, rhs })
            }
            None => Ok(Cond::Truthy(lhs)),
        }
    }

    fn parse_expr(&mut self, scope: &LocalScope<'a>) -> Result<ParsedExpr, ParseError> {
        if self.at_invoke_kw() {
            return Ok(ParsedExpr::Invoke(self.parse_invoke(scope)?));
        }
        if self.at_kw("new") {
            self.bump();
            let qn = self.qname()?;
            let sym = self.program.intern(&qn);
            return Ok(ParsedExpr::Plain(Expr::New(sym)));
        }
        if self.at_kw("newarray") {
            self.bump();
            let elem = self.parse_type()?;
            self.expect(&Tok::LBracket)?;
            let len = self.parse_operand(scope)?;
            self.expect(&Tok::RBracket)?;
            return Ok(ParsedExpr::Plain(Expr::NewArray { elem, len }));
        }
        if matches!(self.peek(), Tok::LParen) {
            // cast: (type) operand
            self.bump();
            let ty = self.parse_type()?;
            self.expect(&Tok::RParen)?;
            let operand = self.parse_operand(scope)?;
            return Ok(ParsedExpr::Plain(Expr::Cast { ty, operand }));
        }
        if matches!(self.peek(), Tok::Bang) {
            self.bump();
            let operand = self.parse_operand(scope)?;
            return Ok(ParsedExpr::Plain(Expr::Unary {
                op: crate::UnOp::Not,
                operand,
            }));
        }
        if matches!(self.peek(), Tok::Minus) && matches!(self.peek2(), Tok::Ident(_)) {
            self.bump();
            let operand = self.parse_operand(scope)?;
            return Ok(ParsedExpr::Plain(Expr::Unary {
                op: crate::UnOp::Neg,
                operand,
            }));
        }
        // Identifier chains: field load / array load / plain operand ± binop.
        if let &Tok::Ident(first) = self.peek() {
            let next_is_dot = matches!(self.peek2(), Tok::Dot);
            let keyword_const = matches!(first, "null" | "true" | "false");
            if !keyword_const && next_is_dot {
                // Dotted chain: instance or static field load, or class literal.
                let mut segs = vec![self.ident()?];
                while matches!(self.peek(), Tok::Dot) {
                    self.bump();
                    segs.push(self.ident()?);
                }
                if segs.last() == Some(&"class") {
                    let cls = segs[..segs.len() - 1].join(".");
                    let sym = self.program.intern(&cls);
                    return self
                        .finish_binary(scope, Expr::Operand(Operand::Const(Const::Class(sym))));
                }
                let target = self.field_target(scope, &segs)?;
                return Ok(ParsedExpr::Plain(Expr::FieldLoad(target)));
            }
            if matches!(self.peek2(), Tok::LBracket) {
                if let Some((array, _)) = scope.get(first) {
                    self.bump(); // ident
                    self.bump(); // [
                    let index = self.parse_operand(scope)?;
                    self.expect(&Tok::RBracket)?;
                    return Ok(ParsedExpr::Plain(Expr::ArrayLoad { array, index }));
                }
            }
        }
        let lhs = self.parse_operand(scope)?;
        if self.at_kw("instanceof") {
            self.bump();
            let ty = self.parse_type()?;
            return Ok(ParsedExpr::Plain(Expr::InstanceOf { ty, operand: lhs }));
        }
        self.finish_binary(scope, Expr::Operand(lhs))
    }

    /// After a leading operand expression, parse an optional binary operator
    /// and right operand.
    fn finish_binary(
        &mut self,
        scope: &LocalScope<'a>,
        lhs_expr: Expr,
    ) -> Result<ParsedExpr, ParseError> {
        let op = match self.peek() {
            Tok::Plus => Some(crate::BinOp::Add),
            Tok::Minus => Some(crate::BinOp::Sub),
            Tok::Star => Some(crate::BinOp::Mul),
            Tok::Slash => Some(crate::BinOp::Div),
            Tok::Percent => Some(crate::BinOp::Rem),
            Tok::Amp => Some(crate::BinOp::And),
            Tok::Pipe => Some(crate::BinOp::Or),
            Tok::Caret => Some(crate::BinOp::Xor),
            _ => None,
        };
        let Some(op) = op else {
            return Ok(ParsedExpr::Plain(lhs_expr));
        };
        let Expr::Operand(lhs) = lhs_expr else {
            return self.err("binary operators require simple operands (three-address form)");
        };
        self.bump();
        let rhs = self.parse_operand(scope)?;
        Ok(ParsedExpr::Plain(Expr::Binary { op, lhs, rhs }))
    }
}

enum ParsedExpr {
    Plain(Expr),
    Invoke(Call),
}

/// The statements of one body under construction, with its label table
/// and the forward branches waiting for their targets.
struct StmtParser<'a> {
    stmts: Vec<Stmt>,
    labels: FxHashMap<&'a str, usize>,
    fixups: Vec<(usize, &'a str, u32, u32)>,
}
