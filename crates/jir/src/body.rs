//! Method bodies and control-flow graphs.

use crate::intern::Symbol;
use crate::stmt::{LocalId, Stmt};
use crate::types::Type;

/// Declaration of a local variable (or parameter) in a [`Body`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LocalDecl {
    /// Interned variable name.
    pub name: Symbol,
    /// Declared static type.
    pub ty: Type,
}

/// The body of a non-abstract, non-native method: a flat vector of
/// three-address statements with index-based branch targets.
///
/// Locals are laid out parameters-first; for instance methods local 0 is the
/// implicit `this`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Body {
    /// All locals; the first [`Body::n_params`] entries are parameters.
    pub locals: Vec<LocalDecl>,
    /// Number of parameter locals (including `this` for instance methods).
    pub n_params: usize,
    /// The statements. Branch targets index into this vector.
    pub stmts: Vec<Stmt>,
}

impl Body {
    /// Iterates over the parameter locals.
    pub fn params(&self) -> &[LocalDecl] {
        &self.locals[..self.n_params]
    }

    /// Looks up a local's declaration.
    pub fn local(&self, id: LocalId) -> &LocalDecl {
        &self.locals[id.index()]
    }

    /// Validates structural invariants: branch targets in range, locals in
    /// range. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.stmts.len();
        if n == 0 {
            return Err("empty body: a body must end with a terminator".to_owned());
        }
        if !self.stmts[n - 1].is_terminator() {
            return Err(format!(
                "body falls off the end: last statement {:?} is not a terminator",
                self.stmts[n - 1]
            ));
        }
        if self.n_params > self.locals.len() {
            return Err(format!(
                "n_params {} exceeds locals {}",
                self.n_params,
                self.locals.len()
            ));
        }
        for (i, s) in self.stmts.iter().enumerate() {
            let check_target = |t: usize| {
                if t >= n {
                    Err(format!(
                        "stmt {i}: branch target {t} out of range ({n} stmts)"
                    ))
                } else {
                    Ok(())
                }
            };
            match s {
                Stmt::If { target, .. } | Stmt::Goto { target } => check_target(*target)?,
                _ => {}
            }
            let out_of_range = |l: &LocalId| l.index() >= self.locals.len();
            let mut bad = None;
            s.for_each_read_local(|l| {
                if bad.is_none() && out_of_range(&l) {
                    bad = Some(l);
                }
            });
            if let Some(l) = bad.or(s.def_local().filter(out_of_range)) {
                return Err(format!("stmt {i}: local {:?} out of range", l));
            }
        }
        Ok(())
    }

    /// Builds the control-flow graph for this body.
    pub fn cfg(&self) -> Cfg {
        Cfg::new(self)
    }

    /// Builds the control-flow graph, recording construction metrics into
    /// `rec`: the `jir.cfg` phase span (also on the bound trace lane) plus
    /// `jir.cfg.built` / `jir.cfg.edges` work counters (raw builds — an
    /// analysis may build the same body's CFG more than once, so these are
    /// scheduling-dependent work, not deterministic program size).
    pub fn cfg_traced(&self, rec: &spo_obs::Recorder) -> Cfg {
        let _span = rec.span("jir.cfg");
        let cfg = Cfg::new(self);
        rec.work_counter("jir.cfg.built").incr();
        rec.work_counter("jir.cfg.edges")
            .add(cfg.edge_count() as u64);
        cfg
    }
}

/// Per-statement successor/predecessor control-flow graph.
///
/// The entry node is statement 0. `Return` and `Throw` have no successors.
///
/// # Examples
///
/// ```
/// use spo_jir::{Body, LocalDecl, Stmt, Cfg};
///
/// let body = Body {
///     locals: vec![],
///     n_params: 0,
///     stmts: vec![Stmt::Nop, Stmt::Return { value: None }],
/// };
/// let cfg = body.cfg();
/// assert_eq!(cfg.succs(0), &[1]);
/// assert_eq!(cfg.preds(1), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl Cfg {
    /// Computes the CFG of `body`.
    pub fn new(body: &Body) -> Self {
        let n = body.stmts.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, s) in body.stmts.iter().enumerate() {
            let mut out: Vec<usize> = Vec::with_capacity(2);
            match s {
                Stmt::Goto { target } => out.push(*target),
                Stmt::Return { .. } | Stmt::Throw { .. } => {}
                Stmt::If { target, .. } => {
                    if i + 1 < n {
                        out.push(i + 1);
                    }
                    if !out.contains(target) {
                        out.push(*target);
                    }
                }
                _ => {
                    if i + 1 < n {
                        out.push(i + 1);
                    }
                }
            }
            for &t in &out {
                preds[t].push(i);
            }
            succs[i] = out;
        }
        Cfg { succs, preds }
    }

    /// Successor statement indices of statement `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Predecessor statement indices of statement `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Returns `true` for an empty body.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Total number of control-flow edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Statement indices in reverse post-order from the entry — the optimal
    /// iteration order for forward dataflow (the paper's SPDA converges in
    /// two passes over structured control flow).
    pub fn reverse_post_order(&self) -> Vec<usize> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (node, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < self.succs[node].len() {
                let s = self.succs[node][*next];
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Statements unreachable from the entry.
    pub fn unreachable(&self) -> Vec<usize> {
        let mut reach = vec![false; self.len()];
        for i in self.reverse_post_order() {
            reach[i] = true;
        }
        reach
            .iter()
            .enumerate()
            .filter(|(_, r)| !**r)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{Cond, Const, Operand};

    fn body(stmts: Vec<Stmt>) -> Body {
        Body {
            locals: vec![],
            n_params: 0,
            stmts,
        }
    }

    #[test]
    fn straight_line_cfg() {
        let b = body(vec![Stmt::Nop, Stmt::Nop, Stmt::Return { value: None }]);
        let cfg = b.cfg();
        assert_eq!(cfg.succs(0), &[1]);
        assert_eq!(cfg.succs(1), &[2]);
        assert!(cfg.succs(2).is_empty());
        assert_eq!(cfg.preds(2), &[1]);
    }

    #[test]
    fn diamond_cfg_and_rpo() {
        // 0: if true goto 3
        // 1: nop
        // 2: goto 4
        // 3: nop
        // 4: return
        let b = body(vec![
            Stmt::If {
                cond: Cond::Truthy(Operand::Const(Const::Bool(true))),
                target: 3,
            },
            Stmt::Nop,
            Stmt::Goto { target: 4 },
            Stmt::Nop,
            Stmt::Return { value: None },
        ]);
        let cfg = b.cfg();
        assert_eq!(cfg.succs(0), &[1, 3]);
        assert_eq!(cfg.preds(4), &[2, 3]);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], 0);
        // Join node 4 comes after both arms.
        let pos = |i: usize| rpo.iter().position(|&x| x == i).unwrap();
        assert!(pos(4) > pos(1));
        assert!(pos(4) > pos(3));
        assert!(cfg.unreachable().is_empty());
    }

    #[test]
    fn unreachable_after_return() {
        let b = body(vec![Stmt::Return { value: None }, Stmt::Nop]);
        let cfg = b.cfg();
        assert_eq!(cfg.unreachable(), vec![1]);
    }

    #[test]
    fn self_loop() {
        let b = body(vec![Stmt::Goto { target: 0 }]);
        let cfg = b.cfg();
        assert_eq!(cfg.succs(0), &[0]);
        assert_eq!(cfg.preds(0), &[0]);
        assert_eq!(cfg.reverse_post_order(), vec![0]);
    }

    #[test]
    fn if_to_next_statement_no_duplicate_edge() {
        let b = body(vec![
            Stmt::If {
                cond: Cond::Truthy(Operand::Const(Const::Bool(true))),
                target: 1,
            },
            Stmt::Return { value: None },
        ]);
        let cfg = b.cfg();
        assert_eq!(cfg.succs(0), &[1]);
    }

    #[test]
    fn validate_rejects_bad_target() {
        let b = body(vec![Stmt::Goto { target: 9 }]);
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_local() {
        let b = body(vec![Stmt::Return {
            value: Some(Operand::Local(LocalId(5))),
        }]);
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_ok() {
        let b = body(vec![Stmt::Return { value: None }]);
        assert!(b.validate().is_ok());
    }
}
