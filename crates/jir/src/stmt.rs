//! Statements, expressions, and operands of the three-address JIR.

use crate::intern::Symbol;
use crate::types::Type;

/// Index of a local variable within a [`Body`](crate::Body).
///
/// Parameters occupy the first indices; for instance methods, local 0 is the
/// implicit `this`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LocalId(pub u32);

impl LocalId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to a method by declaring-class name, method name, and arity.
///
/// JIR resolves overloads by `(name, arity)`; declaring two methods with the
/// same name and arity in one class is rejected at program-construction time.
/// `argc` excludes the receiver.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MethodRef {
    /// Interned fully-qualified name of the statically named class.
    pub class: Symbol,
    /// Interned method name.
    pub name: Symbol,
    /// Number of explicit arguments (receiver excluded).
    pub argc: u32,
}

/// A reference to a field by declaring-class name and field name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FieldRef {
    /// Interned fully-qualified name of the statically named class.
    pub class: Symbol,
    /// Interned field name.
    pub name: Symbol,
}

/// A compile-time constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Const {
    /// Integer constant (models all Java integral types).
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// Interned string literal.
    Str(Symbol),
    /// The `null` reference.
    Null,
    /// A class literal, `C.class`.
    Class(Symbol),
}

/// An operand: either a local variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Read of a local.
    Local(LocalId),
    /// A constant value.
    Const(Const),
}

impl Operand {
    /// The local read by this operand, if any.
    pub fn as_local(self) -> Option<LocalId> {
        match self {
            Operand::Local(l) => Some(l),
            Operand::Const(_) => None,
        }
    }
}

impl From<LocalId> for Operand {
    fn from(l: LocalId) -> Self {
        Operand::Local(l)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Self {
        Operand::Const(c)
    }
}

/// Binary arithmetic/logical operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

/// Comparison operators used in conditional branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two integers.
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// The condition of an `if` statement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Branch if the operand is true / non-zero / non-null.
    Truthy(Operand),
    /// Branch if the operand is false / zero / null.
    Falsy(Operand),
    /// Branch if the comparison holds.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
}

/// How a call site dispatches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvokeKind {
    /// Virtual dispatch on the receiver's dynamic type.
    Virtual,
    /// Direct dispatch (constructors, private and super calls).
    Special,
    /// Static method call; no receiver.
    Static,
    /// Interface dispatch.
    Interface,
}

/// A call site.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Call {
    /// Dispatch kind.
    pub kind: InvokeKind,
    /// Receiver local for instance calls; `None` for static calls.
    pub receiver: Option<LocalId>,
    /// Statically named callee.
    pub callee: MethodRef,
    /// Explicit arguments.
    pub args: Vec<Operand>,
}

/// A field access target: instance or static.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldTarget {
    /// Instance field on the given receiver local.
    Instance(LocalId, FieldRef),
    /// Static field.
    Static(FieldRef),
}

impl FieldTarget {
    /// The referenced field, regardless of instance/static.
    pub fn field(&self) -> FieldRef {
        match *self {
            FieldTarget::Instance(_, f) | FieldTarget::Static(f) => f,
        }
    }
}

/// A right-hand-side expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Copy of an operand.
    Operand(Operand),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Operand,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Field read.
    FieldLoad(FieldTarget),
    /// Object allocation `new C` (constructor invoked separately via
    /// [`InvokeKind::Special`], as in Jimple).
    New(Symbol),
    /// Array allocation.
    NewArray {
        /// Element type.
        elem: Type,
        /// Length operand.
        len: Operand,
    },
    /// Array element read.
    ArrayLoad {
        /// Array local.
        array: LocalId,
        /// Index operand.
        index: Operand,
    },
    /// Checked cast.
    Cast {
        /// Target type.
        ty: Type,
        /// Value being cast.
        operand: Operand,
    },
    /// `instanceof` test producing a boolean.
    InstanceOf {
        /// Tested type.
        ty: Type,
        /// Value being tested.
        operand: Operand,
    },
}

/// A three-address statement. Branch targets are indices into the enclosing
/// body's statement vector.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `dst = expr`.
    Assign {
        /// Destination local.
        dst: LocalId,
        /// Right-hand side.
        value: Expr,
    },
    /// Field write `target = value`.
    FieldStore {
        /// Written field (instance or static).
        target: FieldTarget,
        /// Stored value.
        value: Operand,
    },
    /// Array element write `array[index] = value`.
    ArrayStore {
        /// Array local.
        array: LocalId,
        /// Index operand.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// Method invocation, optionally capturing the return value.
    Invoke {
        /// Destination local for the return value, if captured.
        dst: Option<LocalId>,
        /// The call.
        call: Call,
    },
    /// Conditional branch to `target` when `cond` holds; falls through
    /// otherwise.
    If {
        /// Branch condition.
        cond: Cond,
        /// Statement index of the branch target.
        target: usize,
    },
    /// Unconditional branch.
    Goto {
        /// Statement index of the target.
        target: usize,
    },
    /// Method return.
    Return {
        /// Returned operand for non-`void` methods.
        value: Option<Operand>,
    },
    /// Exception throw; terminates the path (JIR has no catch edges, matching
    /// the paper's analysis which tracks normal control flow).
    Throw {
        /// Thrown operand.
        value: Operand,
    },
    /// Start of a privileged region (`AccessController.doPrivileged`).
    /// Security checks performed inside always succeed and are semantic
    /// no-ops for policy purposes.
    EnterPriv,
    /// End of a privileged region.
    ExitPriv,
    /// No operation (used as a label anchor).
    Nop,
}

impl Stmt {
    /// Returns `true` if control cannot fall through to the next statement.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Stmt::Goto { .. } | Stmt::Return { .. } | Stmt::Throw { .. }
        )
    }

    /// The call, if this statement is an invocation.
    pub fn as_call(&self) -> Option<&Call> {
        match self {
            Stmt::Invoke { call, .. } => Some(call),
            _ => None,
        }
    }

    /// All operands read by this statement (not including array/receiver
    /// locals, which are exposed separately by [`Stmt::read_locals`]).
    pub fn operands(&self) -> Vec<Operand> {
        let mut out = Vec::new();
        self.for_each_operand(|o| out.push(o));
        out
    }

    /// Calls `f` on each of [`Stmt::operands`], in order, without
    /// collecting them.
    fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            Stmt::Assign { value, .. } => match value {
                Expr::Operand(o)
                | Expr::Unary { operand: o, .. }
                | Expr::NewArray { len: o, .. }
                | Expr::ArrayLoad { index: o, .. }
                | Expr::Cast { operand: o, .. }
                | Expr::InstanceOf { operand: o, .. } => f(*o),
                Expr::Binary { lhs, rhs, .. } => {
                    f(*lhs);
                    f(*rhs);
                }
                Expr::FieldLoad(_) | Expr::New(_) => {}
            },
            Stmt::FieldStore { value, .. } | Stmt::Throw { value } => f(*value),
            Stmt::ArrayStore { index, value, .. } => {
                f(*index);
                f(*value);
            }
            Stmt::Invoke { call, .. } => call.args.iter().copied().for_each(f),
            Stmt::If { cond, .. } => match cond {
                Cond::Truthy(o) | Cond::Falsy(o) => f(*o),
                Cond::Cmp { lhs, rhs, .. } => {
                    f(*lhs);
                    f(*rhs);
                }
            },
            Stmt::Return { value } => value.iter().copied().for_each(f),
            Stmt::Goto { .. } | Stmt::EnterPriv | Stmt::ExitPriv | Stmt::Nop => {}
        }
    }

    /// All locals read by this statement, including receivers and arrays.
    pub fn read_locals(&self) -> Vec<LocalId> {
        let mut out = Vec::new();
        self.for_each_read_local(|l| out.push(l));
        out
    }

    /// Calls `f` on each of [`Stmt::read_locals`], in order, without
    /// collecting them.
    pub(crate) fn for_each_read_local(&self, mut f: impl FnMut(LocalId)) {
        self.for_each_operand(|o| {
            if let Some(l) = o.as_local() {
                f(l);
            }
        });
        match self {
            Stmt::Assign {
                value: Expr::FieldLoad(FieldTarget::Instance(l, _)),
                ..
            }
            | Stmt::Assign {
                value: Expr::ArrayLoad { array: l, .. },
                ..
            }
            | Stmt::FieldStore {
                target: FieldTarget::Instance(l, _),
                ..
            }
            | Stmt::ArrayStore { array: l, .. } => f(*l),
            Stmt::Invoke { call, .. } => {
                if let Some(r) = call.receiver {
                    f(r);
                }
            }
            _ => {}
        }
    }

    /// The local written by this statement, if any.
    pub fn def_local(&self) -> Option<LocalId> {
        match self {
            Stmt::Assign { dst, .. } => Some(*dst),
            Stmt::Invoke { dst, .. } => *dst,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocalId {
        LocalId(i)
    }

    #[test]
    fn terminators() {
        assert!(Stmt::Goto { target: 0 }.is_terminator());
        assert!(Stmt::Return { value: None }.is_terminator());
        assert!(Stmt::Throw {
            value: Operand::Const(Const::Null)
        }
        .is_terminator());
        assert!(!Stmt::Nop.is_terminator());
        assert!(!Stmt::If {
            cond: Cond::Truthy(l(0).into()),
            target: 3
        }
        .is_terminator());
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval_int(1, 2));
        assert!(!CmpOp::Gt.eval_int(1, 2));
        assert!(CmpOp::Eq.eval_int(5, 5));
        assert!(CmpOp::Ne.eval_int(5, 6));
        assert!(CmpOp::Le.eval_int(5, 5));
        assert!(CmpOp::Ge.eval_int(5, 5));
    }

    #[test]
    fn def_and_reads() {
        let s = Stmt::Assign {
            dst: l(2),
            value: Expr::Binary {
                op: BinOp::Add,
                lhs: l(0).into(),
                rhs: l(1).into(),
            },
        };
        assert_eq!(s.def_local(), Some(l(2)));
        assert_eq!(s.read_locals(), vec![l(0), l(1)]);
    }

    #[test]
    fn invoke_reads_receiver() {
        let mut i = crate::Interner::new();
        let call = Call {
            kind: InvokeKind::Virtual,
            receiver: Some(l(0)),
            callee: MethodRef {
                class: i.intern("C"),
                name: i.intern("m"),
                argc: 1,
            },
            args: vec![l(1).into()],
        };
        let s = Stmt::Invoke {
            dst: Some(l(2)),
            call,
        };
        let reads = s.read_locals();
        assert!(reads.contains(&l(0)));
        assert!(reads.contains(&l(1)));
        assert_eq!(s.def_local(), Some(l(2)));
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = l(3).into();
        assert_eq!(o.as_local(), Some(l(3)));
        let c: Operand = Const::Int(7).into();
        assert_eq!(c.as_local(), None);
    }
}
