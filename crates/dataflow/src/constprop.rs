//! Conditional constant propagation over JIR bodies.
//!
//! Reproduces the role Wegman–Zadeck constant propagation plays in the
//! paper (§4.2): propagate integer/boolean/`null` constants into branch
//! conditions and suppress unexecutable edges, so that context-dependent
//! security checks (Figure 4's `handler != null`) are attributed to the
//! right calling contexts. Constants also flow *into* callees through
//! parameter binding — that part lives in the interprocedural driver, which
//! seeds a [`ConstEnv`] from known-constant arguments.

use crate::lattice::JoinLattice;
use spo_jir::{BinOp, CmpOp, Cond, Const, Expr, LocalId, Operand, Stmt, UnOp};

/// An abstract constant value for one local.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum AbsVal {
    /// Not yet assigned on any path seen so far (⊤).
    #[default]
    Top,
    /// A known constant.
    Val(Const),
    /// A reference known to be non-null, with unknown identity (e.g. the
    /// result of `new`).
    NotNull,
    /// Unknown (⊥).
    Bottom,
}

impl AbsVal {
    /// Three-valued truthiness (for `if x` / `if !x`).
    pub fn truthiness(self) -> Option<bool> {
        match self {
            AbsVal::Val(Const::Bool(b)) => Some(b),
            AbsVal::Val(Const::Int(i)) => Some(i != 0),
            _ => None,
        }
    }

    /// Three-valued null-ness for reference comparisons.
    pub fn nullness(self) -> Option<bool> {
        match self {
            AbsVal::Val(Const::Null) => Some(true),
            AbsVal::Val(Const::Str(_)) | AbsVal::Val(Const::Class(_)) | AbsVal::NotNull => {
                Some(false)
            }
            _ => None,
        }
    }
}

impl JoinLattice for AbsVal {
    fn join(&mut self, other: &Self) -> bool {
        let joined = match (*self, *other) {
            (a, AbsVal::Top) => a,
            (AbsVal::Top, b) => b,
            (AbsVal::Bottom, _) | (_, AbsVal::Bottom) => AbsVal::Bottom,
            (AbsVal::Val(a), AbsVal::Val(b)) if a == b => AbsVal::Val(a),
            // Two different non-null reference constants still agree on
            // non-null-ness.
            (AbsVal::Val(a), AbsVal::Val(b)) if is_nonnull_ref(a) && is_nonnull_ref(b) => {
                AbsVal::NotNull
            }
            (AbsVal::NotNull, AbsVal::Val(v)) | (AbsVal::Val(v), AbsVal::NotNull)
                if is_nonnull_ref(v) =>
            {
                AbsVal::NotNull
            }
            (AbsVal::NotNull, AbsVal::NotNull) => AbsVal::NotNull,
            _ => AbsVal::Bottom,
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

fn is_nonnull_ref(c: Const) -> bool {
    matches!(c, Const::Str(_) | Const::Class(_))
}

/// Per-local abstract constant environment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConstEnv {
    vals: Vec<AbsVal>,
}

impl ConstEnv {
    /// An environment of `n` locals, all ⊤ (unassigned).
    pub fn top(n: usize) -> Self {
        ConstEnv {
            vals: vec![AbsVal::Top; n],
        }
    }

    /// An environment where the first `n_params` locals are ⊥ (arbitrary
    /// caller-supplied values) and the rest ⊤ — the entry state for an
    /// analysis with no constant-argument information.
    pub fn entry(n_locals: usize, n_params: usize) -> Self {
        let mut env = ConstEnv::top(n_locals);
        for v in &mut env.vals[..n_params] {
            *v = AbsVal::Bottom;
        }
        env
    }

    /// Reads a local.
    pub fn get(&self, l: LocalId) -> AbsVal {
        self.vals.get(l.index()).copied().unwrap_or(AbsVal::Bottom)
    }

    /// Writes a local.
    pub fn set(&mut self, l: LocalId, v: AbsVal) {
        if let Some(slot) = self.vals.get_mut(l.index()) {
            *slot = v;
        }
    }

    /// Evaluates an operand.
    pub fn eval_operand(&self, op: Operand) -> AbsVal {
        match op {
            Operand::Const(c) => AbsVal::Val(c),
            Operand::Local(l) => self.get(l),
        }
    }

    /// Evaluates a right-hand-side expression. Calls are *not* handled here
    /// (the interprocedural driver decides what a call returns).
    pub fn eval_expr(&self, e: &Expr) -> AbsVal {
        match e {
            Expr::Operand(o) => self.eval_operand(*o),
            Expr::Unary { op, operand } => match (op, self.eval_operand(*operand)) {
                (UnOp::Not, AbsVal::Val(Const::Bool(b))) => AbsVal::Val(Const::Bool(!b)),
                (UnOp::Neg, AbsVal::Val(Const::Int(i))) => {
                    AbsVal::Val(Const::Int(i.wrapping_neg()))
                }
                _ => AbsVal::Bottom,
            },
            Expr::Binary { op, lhs, rhs } => {
                match (self.eval_operand(*lhs), self.eval_operand(*rhs)) {
                    (AbsVal::Val(Const::Int(a)), AbsVal::Val(Const::Int(b))) => {
                        eval_int_binop(*op, a, b)
                    }
                    (AbsVal::Val(Const::Bool(a)), AbsVal::Val(Const::Bool(b))) => {
                        let r = match op {
                            BinOp::And => a && b,
                            BinOp::Or => a || b,
                            BinOp::Xor => a ^ b,
                            _ => return AbsVal::Bottom,
                        };
                        AbsVal::Val(Const::Bool(r))
                    }
                    _ => AbsVal::Bottom,
                }
            }
            // Allocations are non-null with unknown identity.
            Expr::New(_) | Expr::NewArray { .. } => AbsVal::NotNull,
            // Casts preserve the abstract value (a checked cast of null is
            // null; of a constant string, the same string).
            Expr::Cast { operand, .. } => self.eval_operand(*operand),
            // Heap reads and type tests are unknown.
            Expr::FieldLoad(_) | Expr::ArrayLoad { .. } | Expr::InstanceOf { .. } => AbsVal::Bottom,
        }
    }

    /// Three-valued evaluation of a branch condition. `Some(b)` means the
    /// branch provably goes one way; `None` means both edges are live.
    pub fn eval_cond(&self, cond: &Cond) -> Option<bool> {
        match cond {
            Cond::Truthy(o) => self.eval_operand(*o).truthiness(),
            Cond::Falsy(o) => self.eval_operand(*o).truthiness().map(|b| !b),
            Cond::Cmp { op, lhs, rhs } => {
                let (a, b) = (self.eval_operand(*lhs), self.eval_operand(*rhs));
                // Null comparisons, including against NotNull values.
                if matches!(*op, CmpOp::Eq | CmpOp::Ne) {
                    if let Some(result) = eval_ref_eq(a, b) {
                        return Some(if *op == CmpOp::Eq { result } else { !result });
                    }
                }
                match (a, b) {
                    (AbsVal::Val(Const::Int(x)), AbsVal::Val(Const::Int(y))) => {
                        Some(op.eval_int(x, y))
                    }
                    (AbsVal::Val(Const::Bool(x)), AbsVal::Val(Const::Bool(y))) => match op {
                        CmpOp::Eq => Some(x == y),
                        CmpOp::Ne => Some(x != y),
                        _ => None,
                    },
                    _ => None,
                }
            }
        }
    }

    /// Applies the effect of a non-call statement to the environment.
    /// Call statements must be handled by the caller (the result value is
    /// context dependent); this function treats them as clobbering the
    /// destination.
    pub fn transfer(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { dst, value } => {
                let v = self.eval_expr(value);
                self.set(*dst, v);
            }
            Stmt::Invoke { dst: Some(d), .. } => self.set(*d, AbsVal::Bottom),
            _ => {}
        }
    }
}

impl JoinLattice for ConstEnv {
    fn join(&mut self, other: &Self) -> bool {
        debug_assert_eq!(self.vals.len(), other.vals.len());
        let mut changed = false;
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            changed |= a.join(b);
        }
        changed
    }
}

fn eval_int_binop(op: BinOp, a: i64, b: i64) -> AbsVal {
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return AbsVal::Bottom;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return AbsVal::Bottom;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
    };
    AbsVal::Val(Const::Int(r))
}

/// Reference equality when null-ness (or string identity) decides it.
fn eval_ref_eq(a: AbsVal, b: AbsVal) -> Option<bool> {
    // Identical interned strings compare equal (literals are interned in
    // Java); identical class literals likewise.
    if let (AbsVal::Val(x), AbsVal::Val(y)) = (a, b) {
        if x == y && matches!(x, Const::Null | Const::Str(_) | Const::Class(_)) {
            return Some(true);
        }
    }
    match (a.nullness(), b.nullness()) {
        (Some(true), Some(true)) => Some(true),
        (Some(true), Some(false)) | (Some(false), Some(true)) => Some(false),
        // Two non-null refs with unknown identity: undecided.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(i: u32) -> LocalId {
        LocalId(i)
    }

    #[test]
    fn join_lattice_laws() {
        let mut v = AbsVal::Top;
        assert!(v.join(&AbsVal::Val(Const::Int(3))));
        assert_eq!(v, AbsVal::Val(Const::Int(3)));
        assert!(!v.join(&AbsVal::Val(Const::Int(3))));
        assert!(v.join(&AbsVal::Val(Const::Int(4))));
        assert_eq!(v, AbsVal::Bottom);
    }

    #[test]
    fn nonnull_refs_join_to_notnull() {
        let mut i = spo_jir::Interner::new();
        let s1 = AbsVal::Val(Const::Str(i.intern("a")));
        let s2 = AbsVal::Val(Const::Str(i.intern("b")));
        let mut v = s1;
        assert!(v.join(&s2));
        assert_eq!(v, AbsVal::NotNull);
        // null kills non-null-ness entirely.
        let mut v2 = AbsVal::NotNull;
        v2.join(&AbsVal::Val(Const::Null));
        assert_eq!(v2, AbsVal::Bottom);
    }

    #[test]
    fn figure_4_null_test_folds() {
        // handler = null; if handler != null -> provably false.
        let mut env = ConstEnv::top(1);
        env.set(lid(0), AbsVal::Val(Const::Null));
        let cond = Cond::Cmp {
            op: CmpOp::Ne,
            lhs: Operand::Local(lid(0)),
            rhs: Operand::Const(Const::Null),
        };
        assert_eq!(env.eval_cond(&cond), Some(false));
    }

    #[test]
    fn new_object_is_not_null() {
        let mut env = ConstEnv::top(1);
        let mut interner = spo_jir::Interner::new();
        let c = interner.intern("C");
        env.set(lid(0), env.eval_expr(&Expr::New(c)));
        let cond = Cond::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Local(lid(0)),
            rhs: Operand::Const(Const::Null),
        };
        assert_eq!(env.eval_cond(&cond), Some(false));
    }

    #[test]
    fn int_arithmetic_folds() {
        let env = ConstEnv::top(0);
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Operand::Const(Const::Int(40)),
            rhs: Operand::Const(Const::Int(2)),
        };
        assert_eq!(env.eval_expr(&e), AbsVal::Val(Const::Int(42)));
        let div0 = Expr::Binary {
            op: BinOp::Div,
            lhs: Operand::Const(Const::Int(1)),
            rhs: Operand::Const(Const::Int(0)),
        };
        assert_eq!(env.eval_expr(&div0), AbsVal::Bottom);
    }

    #[test]
    fn bool_ops_fold() {
        let env = ConstEnv::top(0);
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Operand::Const(Const::Bool(true)),
            rhs: Operand::Const(Const::Bool(false)),
        };
        assert_eq!(env.eval_expr(&e), AbsVal::Val(Const::Bool(false)));
        let not = Expr::Unary {
            op: UnOp::Not,
            operand: Operand::Const(Const::Bool(false)),
        };
        assert_eq!(env.eval_expr(&not), AbsVal::Val(Const::Bool(true)));
    }

    #[test]
    fn truthy_conditions() {
        let env = ConstEnv::top(0);
        assert_eq!(
            env.eval_cond(&Cond::Truthy(Operand::Const(Const::Bool(true)))),
            Some(true)
        );
        assert_eq!(
            env.eval_cond(&Cond::Falsy(Operand::Const(Const::Int(0)))),
            Some(true)
        );
        assert_eq!(env.eval_cond(&Cond::Truthy(Operand::Local(lid(9)))), None);
    }

    #[test]
    fn string_equality_of_same_literal() {
        let mut i = spo_jir::Interner::new();
        let s = Const::Str(i.intern("ISO-8859-1"));
        let env = ConstEnv::top(0);
        let cond = Cond::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Const(s),
            rhs: Operand::Const(s),
        };
        assert_eq!(env.eval_cond(&cond), Some(true));
        // Different literals: identity unknown -> None.
        let s2 = Const::Str(i.intern("UTF-8"));
        let cond2 = Cond::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Const(s),
            rhs: Operand::Const(s2),
        };
        assert_eq!(env.eval_cond(&cond2), None);
    }

    #[test]
    fn transfer_assign_and_clobber() {
        let mut env = ConstEnv::top(2);
        env.transfer(&Stmt::Assign {
            dst: lid(0),
            value: Expr::Operand(Operand::Const(Const::Int(5))),
        });
        assert_eq!(env.get(lid(0)), AbsVal::Val(Const::Int(5)));
        let mut i = spo_jir::Interner::new();
        env.transfer(&Stmt::Invoke {
            dst: Some(lid(0)),
            call: spo_jir::Call {
                kind: spo_jir::InvokeKind::Static,
                receiver: None,
                callee: spo_jir::MethodRef {
                    class: i.intern("C"),
                    name: i.intern("m"),
                    argc: 0,
                },
                args: vec![],
            },
        });
        assert_eq!(env.get(lid(0)), AbsVal::Bottom);
    }

    #[test]
    fn entry_env_params_bottom() {
        let env = ConstEnv::entry(4, 2);
        assert_eq!(env.get(lid(0)), AbsVal::Bottom);
        assert_eq!(env.get(lid(1)), AbsVal::Bottom);
        assert_eq!(env.get(lid(2)), AbsVal::Top);
    }

    #[test]
    fn env_join_pointwise() {
        let mut a = ConstEnv::top(2);
        a.set(lid(0), AbsVal::Val(Const::Int(1)));
        a.set(lid(1), AbsVal::Val(Const::Int(2)));
        let mut b = ConstEnv::top(2);
        b.set(lid(0), AbsVal::Val(Const::Int(1)));
        b.set(lid(1), AbsVal::Val(Const::Int(3)));
        assert!(a.join(&b));
        assert_eq!(a.get(lid(0)), AbsVal::Val(Const::Int(1)));
        assert_eq!(a.get(lid(1)), AbsVal::Bottom);
    }
}
