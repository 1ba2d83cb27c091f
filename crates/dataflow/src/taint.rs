//! Data-dependence ("event tag") propagation.
//!
//! The paper's fully broad definition of security-sensitive events (§3)
//! marks not just direct accesses to API parameters and private variables
//! but "reads, writes, and method invocations on variables that are
//! data-dependent on API parameters and private variables", computed by
//! propagating an event tag through def-use chains. This module provides
//! that propagation over one body: seed locals are tainted, assignments
//! spread taint through operands, and the per-statement fixpoint reports
//! which statements touch tainted data. The paper used this definition to
//! *diagnose* policy differences (it found no additional JCL bugs); the
//! oracle's broad event mode uses direct accesses, and this analysis backs
//! the diagnosis workflow.

use crate::engine::{run_forward, Flow, ForwardAnalysis};
use crate::lattice::JoinLattice;
use spo_guard::Governor;
use spo_jir::{Body, Cfg, Expr, LocalId, Operand, Stmt};

/// A set of tainted locals (dense bitvector).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaintSet {
    bits: Vec<bool>,
}

impl TaintSet {
    /// An empty set over `n` locals.
    pub fn empty(n: usize) -> Self {
        TaintSet {
            bits: vec![false; n],
        }
    }

    /// Marks a local tainted.
    pub fn insert(&mut self, l: LocalId) {
        if let Some(b) = self.bits.get_mut(l.index()) {
            *b = true;
        }
    }

    /// Membership test.
    pub fn contains(&self, l: LocalId) -> bool {
        self.bits.get(l.index()).copied().unwrap_or(false)
    }

    /// Clears a local (strong update on untainted assignment).
    pub fn remove(&mut self, l: LocalId) {
        if let Some(b) = self.bits.get_mut(l.index()) {
            *b = false;
        }
    }

    /// Number of tainted locals.
    pub fn len(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }

    /// Returns `true` if no local is tainted.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|b| *b)
    }
}

impl JoinLattice for TaintSet {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            if *b && !*a {
                *a = true;
                changed = true;
            }
        }
        changed
    }
}

struct TaintAnalysis {
    seeds: TaintSet,
}

impl ForwardAnalysis for TaintAnalysis {
    type State = TaintSet;

    fn boundary(&mut self) -> TaintSet {
        self.seeds.clone()
    }

    fn transfer(&mut self, _idx: usize, stmt: &Stmt, input: &TaintSet) -> Flow<TaintSet> {
        let mut out = input.clone();
        let operand_tainted = |o: &Operand, s: &TaintSet| match o {
            Operand::Local(l) => s.contains(*l),
            Operand::Const(_) => false,
        };
        match stmt {
            Stmt::Assign { dst, value } => {
                let tainted = match value {
                    Expr::Operand(o)
                    | Expr::Unary { operand: o, .. }
                    | Expr::Cast { operand: o, .. }
                    | Expr::InstanceOf { operand: o, .. } => operand_tainted(o, input),
                    Expr::Binary { lhs, rhs, .. } => {
                        operand_tainted(lhs, input) || operand_tainted(rhs, input)
                    }
                    // Reading a field of a tainted object yields tainted
                    // data; reads of other fields are fresh.
                    Expr::FieldLoad(t) => match t {
                        spo_jir::FieldTarget::Instance(r, _) => input.contains(*r),
                        spo_jir::FieldTarget::Static(_) => false,
                    },
                    Expr::ArrayLoad { array, index } => {
                        input.contains(*array) || operand_tainted(index, input)
                    }
                    Expr::New(_) | Expr::NewArray { .. } => false,
                };
                if tainted {
                    out.insert(*dst);
                } else {
                    out.remove(*dst);
                }
            }
            Stmt::Invoke { dst: Some(d), call } => {
                // Conservative: a call on tainted data returns tainted
                // data (the paper's tag propagates through parameter
                // binding; intraprocedurally we over-approximate).
                let tainted = call.receiver.map(|r| input.contains(r)).unwrap_or(false)
                    || call.args.iter().any(|a| operand_tainted(a, input));
                if tainted {
                    out.insert(*d);
                } else {
                    out.remove(*d);
                }
            }
            _ => {}
        }
        Flow::Uniform(out)
    }
}

/// Computes, per statement, the set of locals data-dependent on `seeds` at
/// statement entry. Unreachable statements get `None`.
pub fn data_dependence(body: &Body, cfg: &Cfg, seeds: &[LocalId]) -> Vec<Option<TaintSet>> {
    let mut seed_set = TaintSet::empty(body.locals.len());
    for &s in seeds {
        seed_set.insert(s);
    }
    let mut analysis = TaintAnalysis { seeds: seed_set };
    run_forward(body, cfg, &mut analysis, &Governor::unlimited())
        .0
        .inputs
}

/// Statement indices that *touch* tainted data: read a tainted local or
/// define a local from tainted inputs — the paper's "very liberal" event
/// set.
pub fn tainted_statements(body: &Body, cfg: &Cfg, seeds: &[LocalId]) -> Vec<usize> {
    let states = data_dependence(body, cfg, seeds);
    let mut out = Vec::new();
    for (i, stmt) in body.stmts.iter().enumerate() {
        let Some(st) = &states[i] else { continue };
        if stmt.read_locals().iter().any(|l| st.contains(*l)) {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_jir::parse_program;

    fn run(src: &str, seed_names: &[&str]) -> (Body, Vec<Option<TaintSet>>, Vec<usize>) {
        let p = parse_program(src).unwrap();
        let c = p.class_by_str("C").unwrap();
        let body = p.class(c).methods[0].body.as_ref().unwrap().clone();
        let cfg = body.cfg();
        let seeds: Vec<LocalId> = body
            .locals
            .iter()
            .enumerate()
            .filter(|(_, l)| seed_names.contains(&p.str(l.name)))
            .map(|(i, _)| LocalId(i as u32))
            .collect();
        assert_eq!(seeds.len(), seed_names.len(), "all seeds found");
        let dep = data_dependence(&body, &cfg, &seeds);
        let touched = tainted_statements(&body, &cfg, &seeds);
        (body, dep, touched)
    }

    #[test]
    fn taint_flows_through_assignment_chain() {
        let (body, dep, _) = run(
            "class C { method public static void m(int p) {
               local int a, b;
               a = p + 1;
               b = a * 2;
               return;
             } }",
            &["p"],
        );
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        // p (0), a (1), b (2) all tainted at the return.
        assert!(last.contains(LocalId(0)));
        assert!(last.contains(LocalId(1)));
        assert!(last.contains(LocalId(2)));
        assert_eq!(last.len(), 3);
    }

    #[test]
    fn fresh_assignment_clears_taint() {
        let (body, dep, _) = run(
            "class C { method public static void m(int p) {
               local int a;
               a = p;
               a = 7;
               return;
             } }",
            &["p"],
        );
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        assert!(
            !last.contains(LocalId(1)),
            "a was overwritten by a constant"
        );
    }

    #[test]
    fn taint_joins_at_merge_points() {
        let (body, dep, _) = run(
            "class C { method public static void m(int p, bool c) {
               local int a;
               if c goto other;
               a = 5;
               goto done;
             other:
               a = p;
             done:
               return;
             } }",
            &["p"],
        );
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        assert!(last.contains(LocalId(2)), "a may be tainted at the join");
    }

    #[test]
    fn calls_propagate_taint_to_results() {
        let (body, dep, _) = run(
            "class C { method public static void m(java.lang.String p) {
               local java.lang.String s;
               s = staticinvoke C.id(p);
               return;
             }
             method public static java.lang.String id(java.lang.String x) {
               return x;
             } }",
            &["p"],
        );
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        assert!(last.contains(LocalId(1)));
    }

    #[test]
    fn tainted_statements_reports_touches() {
        let (_, _, touched) = run(
            "class C { method public static void m(int p) {
               local int a, b;
               b = 3;
               a = p + 1;
               b = b * 2;
               return;
             } }",
            &["p"],
        );
        // Statement 1 (`a = p + 1`) touches p; statement 0 and 2 do not.
        assert_eq!(touched, vec![1]);
    }

    #[test]
    fn field_load_from_tainted_receiver_is_tainted() {
        let (body, dep, _) = run(
            "class C { field private int f;
             method public static void m(C p) {
               local int v;
               v = p.f;
               return;
             } }",
            &["p"],
        );
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        assert!(last.contains(LocalId(1)));
    }

    #[test]
    fn loop_converges_with_taint_growth() {
        let (body, dep, _) = run(
            "class C { method public static void m(int p, bool c) {
               local int a, b;
               a = 0;
             top:
               b = a;
               a = p;
               if c goto top;
               return;
             } }",
            &["p"],
        );
        // After the loop, both a and b may carry p.
        let last = dep[body.stmts.len() - 1].as_ref().unwrap();
        assert!(last.contains(LocalId(2)) && last.contains(LocalId(3)));
    }
}
