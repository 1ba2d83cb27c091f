//! Deterministic content hashing of JIR programs.
//!
//! The persistent summary cache (`spo-cache`) keys each entry point by the
//! *content* of the methods its analysis can observe. That key must be
//! stable across processes, platforms, and parses — interned [`Symbol`]
//! values are none of those, so hashing resolves every symbol to its
//! string and streams the structural representation directly into the
//! hasher (no printing, no allocation: the keyer runs on the warm path of
//! every cached invocation).
//!
//! Two hashes are exposed:
//!
//! * [`method_content_hash`] — a method's signature, flags, and body
//!   structure. Any edit the analysis could observe changes it;
//!   re-parsing the same text reproduces it. Local variable *names* are
//!   deliberately excluded: the analysis never reads them, so two bodies
//!   differing only in local names produce identical policies and may
//!   share a cache entry.
//! * [`structure_hash`] — every class *declaration* in the program (names,
//!   superclasses, interfaces, flags, field declarations, and method
//!   signatures — no bodies). Any edit that can change hierarchy-based
//!   resolution or private-field classification changes it.
//!
//! Both build on [`Fnv64`], a 64-bit FNV-1a hasher chosen because it is
//! fully specified (no per-process seed, unlike `DefaultHasher`) and
//! allocation-free.
//!
//! The in-memory name tables (the [`Interner`], the parser's scopes and
//! [`Program`]'s class table) use a third hasher, the crate-private
//! `FxHasher`: unkeyed like [`Fnv64`], but a word at a time, and not a
//! stable format.
//!
//! [`Symbol`]: crate::Symbol

use crate::intern::Interner;
use crate::program::{MethodId, Program};
use crate::stmt::{Call, Cond, Const, Expr, FieldTarget, Operand, Stmt};
use crate::types::Type;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// An Fx-style hasher for in-memory tables keyed by program names: one
/// rotate, xor and multiply per 8-byte word, no per-process key. It is
/// not `HashDoS`-resistant, which a table of the input's own identifiers
/// does not need, and its values are not a stable format (that is what
/// [`Fnv64`] is for).
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

const FX_MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    /// The multiply mixes upward, so the well-mixed middle bits are
    /// rotated down to where the table takes its bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A 64-bit FNV-1a hasher with a fully deterministic, seedless state.
///
/// ```
/// use spo_jir::Fnv64;
/// let mut h = Fnv64::new();
/// h.write(b"abc");
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write(b"abc");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string plus a terminator byte, so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Absorbs a 64-bit value (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_type(h: &mut Fnv64, interner: &Interner, ty: &Type) {
    match ty {
        Type::Void => h.write(&[0]),
        Type::Bool => h.write(&[1]),
        Type::Int => h.write(&[2]),
        Type::Long => h.write(&[3]),
        Type::Float => h.write(&[4]),
        Type::Double => h.write(&[5]),
        Type::Ref(s) => {
            h.write(&[6]);
            h.write_str(interner.resolve(*s));
        }
        Type::Array(inner) => {
            h.write(&[7]);
            hash_type(h, interner, inner);
        }
    }
}

fn hash_const(h: &mut Fnv64, interner: &Interner, c: &Const) {
    match c {
        Const::Int(v) => {
            h.write(&[0]);
            h.write_u64(*v as u64);
        }
        Const::Bool(b) => h.write(&[1, *b as u8]),
        Const::Str(s) => {
            h.write(&[2]);
            h.write_str(interner.resolve(*s));
        }
        Const::Null => h.write(&[3]),
        Const::Class(s) => {
            h.write(&[4]);
            h.write_str(interner.resolve(*s));
        }
    }
}

fn hash_operand(h: &mut Fnv64, interner: &Interner, o: &Operand) {
    match o {
        Operand::Local(l) => {
            h.write(&[0]);
            h.write_u64(l.0 as u64);
        }
        Operand::Const(c) => {
            h.write(&[1]);
            hash_const(h, interner, c);
        }
    }
}

fn hash_field_target(h: &mut Fnv64, interner: &Interner, t: &FieldTarget) {
    match t {
        FieldTarget::Instance(recv, f) => {
            h.write(&[0]);
            h.write_u64(recv.0 as u64);
            h.write_str(interner.resolve(f.class));
            h.write_str(interner.resolve(f.name));
        }
        FieldTarget::Static(f) => {
            h.write(&[1]);
            h.write_str(interner.resolve(f.class));
            h.write_str(interner.resolve(f.name));
        }
    }
}

fn hash_call(h: &mut Fnv64, interner: &Interner, call: &Call) {
    h.write(&[call.kind as u8]);
    match call.receiver {
        Some(r) => {
            h.write(&[1]);
            h.write_u64(r.0 as u64);
        }
        None => h.write(&[0]),
    }
    h.write_str(interner.resolve(call.callee.class));
    h.write_str(interner.resolve(call.callee.name));
    h.write_u64(call.callee.argc as u64);
    h.write_u64(call.args.len() as u64);
    for a in &call.args {
        hash_operand(h, interner, a);
    }
}

fn hash_expr(h: &mut Fnv64, interner: &Interner, e: &Expr) {
    match e {
        Expr::Operand(o) => {
            h.write(&[0]);
            hash_operand(h, interner, o);
        }
        Expr::Unary { op, operand } => {
            h.write(&[1, *op as u8]);
            hash_operand(h, interner, operand);
        }
        Expr::Binary { op, lhs, rhs } => {
            h.write(&[2, *op as u8]);
            hash_operand(h, interner, lhs);
            hash_operand(h, interner, rhs);
        }
        Expr::FieldLoad(t) => {
            h.write(&[3]);
            hash_field_target(h, interner, t);
        }
        Expr::New(c) => {
            h.write(&[4]);
            h.write_str(interner.resolve(*c));
        }
        Expr::NewArray { elem, len } => {
            h.write(&[5]);
            hash_type(h, interner, elem);
            hash_operand(h, interner, len);
        }
        Expr::ArrayLoad { array, index } => {
            h.write(&[6]);
            h.write_u64(array.0 as u64);
            hash_operand(h, interner, index);
        }
        Expr::Cast { ty, operand } => {
            h.write(&[7]);
            hash_type(h, interner, ty);
            hash_operand(h, interner, operand);
        }
        Expr::InstanceOf { ty, operand } => {
            h.write(&[8]);
            hash_type(h, interner, ty);
            hash_operand(h, interner, operand);
        }
    }
}

fn hash_stmt(h: &mut Fnv64, interner: &Interner, s: &Stmt) {
    match s {
        Stmt::Assign { dst, value } => {
            h.write(&[0]);
            h.write_u64(dst.0 as u64);
            hash_expr(h, interner, value);
        }
        Stmt::FieldStore { target, value } => {
            h.write(&[1]);
            hash_field_target(h, interner, target);
            hash_operand(h, interner, value);
        }
        Stmt::ArrayStore {
            array,
            index,
            value,
        } => {
            h.write(&[2]);
            h.write_u64(array.0 as u64);
            hash_operand(h, interner, index);
            hash_operand(h, interner, value);
        }
        Stmt::Invoke { dst, call } => {
            h.write(&[3]);
            match dst {
                Some(d) => {
                    h.write(&[1]);
                    h.write_u64(d.0 as u64);
                }
                None => h.write(&[0]),
            }
            hash_call(h, interner, call);
        }
        Stmt::If { cond, target } => {
            h.write(&[4]);
            match cond {
                Cond::Truthy(o) => {
                    h.write(&[0]);
                    hash_operand(h, interner, o);
                }
                Cond::Falsy(o) => {
                    h.write(&[1]);
                    hash_operand(h, interner, o);
                }
                Cond::Cmp { op, lhs, rhs } => {
                    h.write(&[2, *op as u8]);
                    hash_operand(h, interner, lhs);
                    hash_operand(h, interner, rhs);
                }
            }
            h.write_u64(*target as u64);
        }
        Stmt::Goto { target } => {
            h.write(&[5]);
            h.write_u64(*target as u64);
        }
        Stmt::Return { value } => {
            h.write(&[6]);
            match value {
                Some(v) => {
                    h.write(&[1]);
                    hash_operand(h, interner, v);
                }
                None => h.write(&[0]),
            }
        }
        Stmt::Throw { value } => {
            h.write(&[7]);
            hash_operand(h, interner, value);
        }
        Stmt::EnterPriv => h.write(&[8]),
        Stmt::ExitPriv => h.write(&[9]),
        Stmt::Nop => h.write(&[10]),
    }
}

/// Deterministic content hash of one method: declaring class, name, flags,
/// signature types, and full body structure with every symbol resolved to
/// its string.
///
/// Stable across save/load round-trips and process restarts (nothing
/// process-local is hashed). Local variable names are excluded — the
/// analysis never reads them — so a rename-only edit keeps the hash,
/// which is sound: the cached policy is still exactly what re-analysis
/// would produce.
pub fn method_content_hash(program: &Program, id: MethodId) -> u64 {
    let interner = program.interner();
    let method = program.method(id);
    let mut h = Fnv64::new();
    h.write_str(program.str(program.class(id.class).name));
    h.write_str(program.str(method.name));
    h.write_u64(method.flags.bits() as u64);
    hash_type(&mut h, interner, &method.ret);
    h.write_u64(method.params.len() as u64);
    for p in &method.params {
        hash_type(&mut h, interner, p);
    }
    match &method.body {
        None => h.write(&[0]),
        Some(body) => {
            h.write(&[1]);
            h.write_u64(body.n_params as u64);
            h.write_u64(body.locals.len() as u64);
            for l in &body.locals {
                hash_type(&mut h, interner, &l.ty);
            }
            h.write_u64(body.stmts.len() as u64);
            for s in &body.stmts {
                hash_stmt(&mut h, interner, s);
            }
        }
    }
    h.finish()
}

/// Deterministic identity hash of one method *declaration slot*: declaring
/// class, name, return type, and parameter types — no flags, no body.
///
/// Two parses of the same program always agree on it, and no two methods
/// of one program share it (Java bytecode distinguishes overloads by full
/// descriptor, which is exactly what is hashed). The persistent cache uses
/// it as a compact cross-process method name: stable under body and flag
/// edits, which the content hash ([`method_content_hash`]) catches
/// instead.
pub fn method_identity_hash(program: &Program, id: MethodId) -> u64 {
    let interner = program.interner();
    let method = program.method(id);
    let mut h = Fnv64::new();
    h.write_str(program.str(program.class(id.class).name));
    h.write_str(program.str(method.name));
    hash_type(&mut h, interner, &method.ret);
    h.write_u64(method.params.len() as u64);
    for p in &method.params {
        hash_type(&mut h, interner, p);
    }
    h.finish()
}

/// Deterministic hash of the program's *declaration structure*: for every
/// class (in name order) its name, kind, superclass, interfaces, flags,
/// field declarations, and method signatures with flags — no bodies.
///
/// Class-hierarchy analysis, devirtualization, and private-field
/// classification read exactly this declaration surface, so any edit that
/// could change how a call site or field access resolves changes the hash,
/// while body-only edits leave it untouched.
pub fn structure_hash(program: &Program) -> u64 {
    // Name order, not declaration order: layering the same files in a
    // different order must not look like a structural edit.
    let mut classes: Vec<_> = program.classes().map(|(_, c)| c).collect();
    classes.sort_by_key(|c| program.str(c.name));
    let interner = program.interner();
    let mut h = Fnv64::new();
    for class in classes {
        h.write_str(program.str(class.name));
        h.write_u64(class.flags.bits() as u64);
        match class.superclass {
            Some(sup) => h.write_str(program.str(sup)),
            None => h.write_str(""),
        }
        for i in &class.interfaces {
            h.write_str(program.str(*i));
        }
        h.write_u64(class.fields.len() as u64);
        for field in &class.fields {
            h.write_str(program.str(field.name));
            hash_type(&mut h, interner, &field.ty);
            h.write_u64(field.flags.bits() as u64);
        }
        h.write_u64(class.methods.len() as u64);
        for method in &class.methods {
            h.write_str(program.str(method.name));
            for p in &method.params {
                hash_type(&mut h, interner, p);
            }
            hash_type(&mut h, interner, &method.ret);
            h.write_u64(method.flags.bits() as u64);
            h.write_u64(method.body.is_some() as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const SRC: &str = r#"
class a.Base {
  field static int counter;
  method public void api() {
    local int x;
    x = 1;
    staticinvoke a.Util.helper();
    return;
  }
}
class a.Util {
  method public static void helper() {
    local int y;
    y = 2;
    return;
  }
}
"#;

    fn method(p: &Program, class: &str, name: &str) -> MethodId {
        let cid = p.class_by_str(class).unwrap();
        let sym = p.interner().get(name).unwrap();
        p.find_method(cid, sym, 0).unwrap()
    }

    #[test]
    fn hashes_stable_across_reparses() {
        let p1 = parse_program(SRC).unwrap();
        let p2 = parse_program(SRC).unwrap();
        assert_eq!(structure_hash(&p1), structure_hash(&p2));
        assert_eq!(
            method_content_hash(&p1, method(&p1, "a.Base", "api")),
            method_content_hash(&p2, method(&p2, "a.Base", "api")),
        );
    }

    #[test]
    fn body_edit_changes_method_hash_not_structure() {
        let p1 = parse_program(SRC).unwrap();
        let edited = SRC.replace("y = 2;", "y = 3;");
        let p2 = parse_program(&edited).unwrap();
        assert_eq!(structure_hash(&p1), structure_hash(&p2));
        assert_ne!(
            method_content_hash(&p1, method(&p1, "a.Util", "helper")),
            method_content_hash(&p2, method(&p2, "a.Util", "helper")),
        );
        // The untouched method's hash is unchanged.
        assert_eq!(
            method_content_hash(&p1, method(&p1, "a.Base", "api")),
            method_content_hash(&p2, method(&p2, "a.Base", "api")),
        );
    }

    #[test]
    fn local_rename_keeps_method_hash() {
        // Names of locals are not analysis inputs, so a rename-only edit
        // keeps the content hash (and may legitimately share a cache
        // entry).
        let p1 = parse_program(SRC).unwrap();
        let renamed = SRC.replace("int y;", "int z;").replace("y = 2;", "z = 2;");
        let p2 = parse_program(&renamed).unwrap();
        assert_eq!(
            method_content_hash(&p1, method(&p1, "a.Util", "helper")),
            method_content_hash(&p2, method(&p2, "a.Util", "helper")),
        );
    }

    #[test]
    fn declaration_edit_changes_structure_hash() {
        let p1 = parse_program(SRC).unwrap();
        for edit in [
            SRC.replace("class a.Util", "class a.Util extends a.Base"),
            SRC.replace("field static int counter;", "field int counter;"),
            SRC.replace(
                "method public static void helper",
                "method static void helper",
            ),
        ] {
            let p2 = parse_program(&edit).unwrap();
            assert_ne!(
                structure_hash(&p1),
                structure_hash(&p2),
                "edit not seen:\n{edit}"
            );
        }
    }

    #[test]
    fn structure_hash_ignores_layering_order() {
        let p1 = parse_program(SRC).unwrap();
        // Same classes, opposite file order.
        let (a, b) = SRC.split_once("class a.Util").unwrap();
        let swapped = format!("class a.Util{b}\n{a}");
        let p2 = parse_program(&swapped).unwrap();
        assert_eq!(structure_hash(&p1), structure_hash(&p2));
    }

    #[test]
    fn same_class_different_methods_hash_differently() {
        let p = parse_program(SRC).unwrap();
        assert_ne!(
            method_content_hash(&p, method(&p, "a.Base", "api")),
            method_content_hash(&p, method(&p, "a.Util", "helper")),
        );
    }
}
