//! The forward worklist dataflow engine.
//!
//! Implements the paper's Algorithm 1 skeleton generically: a worklist over
//! statement indices, per-statement IN states, monotone joins, and — the
//! piece vanilla reaching-definitions lacks — *edge-level* transfer results
//! so constant propagation can suppress unexecutable branch edges
//! ([`Flow::Branch`] with a `None` side).

use crate::lattice::JoinLattice;
use spo_guard::Governor;
use spo_jir::{Body, Cfg, Stmt};
use std::collections::VecDeque;

/// The result of transferring one statement: what flows to its successors.
#[derive(Clone, Debug)]
pub enum Flow<S> {
    /// The same state flows to every successor.
    Uniform(S),
    /// A conditional branch: `taken` flows to the branch target, `fall` to
    /// the fall-through successor. `None` marks a provably dead edge.
    Branch {
        /// State on the taken edge, if live.
        taken: Option<S>,
        /// State on the fall-through edge, if live.
        fall: Option<S>,
    },
}

/// A forward dataflow analysis over one body.
pub trait ForwardAnalysis {
    /// The dataflow state attached to each program point.
    type State: JoinLattice;

    /// The state on entry to statement 0.
    fn boundary(&mut self) -> Self::State;

    /// Applies statement `stmt` (at index `idx`) to `input`, producing the
    /// state(s) for its successors. Only `Stmt::If` may meaningfully return
    /// [`Flow::Branch`]; other statements should return [`Flow::Uniform`].
    fn transfer(&mut self, idx: usize, stmt: &Stmt, input: &Self::State) -> Flow<Self::State>;
}

/// Fixpoint results: the IN state of every statement. `None` means the
/// statement is unreachable (never visited — either CFG-unreachable or on
/// edges constant propagation proved dead).
#[derive(Clone, Debug)]
pub struct DataflowResults<S> {
    /// IN state per statement index.
    pub inputs: Vec<Option<S>>,
}

impl<S> DataflowResults<S> {
    /// The IN state of statement `i`, if reachable.
    pub fn input(&self, i: usize) -> Option<&S> {
        self.inputs.get(i).and_then(Option::as_ref)
    }

    /// Indices of statements proven unreachable.
    pub fn unreachable(&self) -> impl Iterator<Item = usize> + '_ {
        self.inputs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
    }
}

/// Cost accounting for one fixpoint run, independent of any metrics
/// backend: a plain struct the caller can fold into whatever observability
/// layer it uses. The counts are a pure function of `(body, analysis)` —
/// the worklist order is deterministic — so aggregating them per memoized
/// frame stays schedule-independent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FixpointStats {
    /// Transfer-function applications (worklist pops).
    pub transfers: u64,
    /// Distinct statements visited at least once (reachable statements).
    pub visited: u64,
    /// Statements in the body.
    pub stmts: u64,
}

impl FixpointStats {
    /// Average worklist passes over the reachable statements — the paper's
    /// "converges in two passes" claim made measurable (1.0 = each
    /// reachable statement transferred exactly once).
    pub fn passes(&self) -> f64 {
        if self.visited == 0 {
            0.0
        } else {
            self.transfers as f64 / self.visited as f64
        }
    }
}

/// Runs `analysis` to fixpoint over `body`, returning per-statement IN
/// states and the run's [`FixpointStats`] cost accounting.
///
/// The worklist is seeded with the entry statement and iterates in
/// reverse-post-order priority; on structured control flow this converges in
/// the two passes the paper cites for SPDA.
///
/// Every worklist pop checks the solve-local transfer count against the
/// `governor`'s step budget (and, periodically, its cancel token and
/// deadline). Exhaustion *trips* — it raises an
/// [`Interrupt`](spo_guard::Interrupt) unwind that the caller's per-root
/// [`quarantine`](spo_guard::quarantine) boundary converts into a
/// structured fault — so a pathological fixpoint degrades one root instead
/// of hanging the run. Pass [`Governor::unlimited`] for an ungoverned solve.
pub fn run_forward<A: ForwardAnalysis>(
    body: &Body,
    cfg: &Cfg,
    analysis: &mut A,
    governor: &Governor,
) -> (DataflowResults<A::State>, FixpointStats) {
    // Flight-recorder visibility: one complete event per fixpoint solve on
    // whatever trace lane the calling worker has bound (a no-op guard when
    // tracing is off). Purely wall-clock — the solve itself, and with it
    // `FixpointStats`, stays a pure function of (body, analysis).
    let _trace = spo_obs::trace::span_now("fixpoint", "dataflow");
    let n = body.stmts.len();
    let mut stats = FixpointStats {
        stmts: n as u64,
        ..FixpointStats::default()
    };
    let mut inputs: Vec<Option<A::State>> = vec![None; n];
    if n == 0 {
        return (DataflowResults { inputs }, stats);
    }
    // RPO priority: lower rank first.
    let rpo = cfg.reverse_post_order();
    let mut rank = vec![usize::MAX; n];
    for (r, &i) in rpo.iter().enumerate() {
        rank[i] = r;
    }
    inputs[0] = Some(analysis.boundary());
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(0);
    queued[0] = true;

    // Merge `state` into IN[succ]; enqueue on change.
    let apply = |inputs: &mut Vec<Option<A::State>>,
                 queue: &mut VecDeque<usize>,
                 queued: &mut Vec<bool>,
                 succ: usize,
                 state: &A::State| {
        let changed = match &mut inputs[succ] {
            Some(existing) => existing.join(state),
            slot @ None => {
                *slot = Some(state.clone());
                true
            }
        };
        if changed && !queued[succ] {
            queued[succ] = true;
            queue.push_back(succ);
        }
    };

    while let Some(i) = pop_min_rank(&mut queue, &rank) {
        queued[i] = false;
        governor.check_step(stats.transfers);
        stats.transfers += 1;
        let input = inputs[i].clone().expect("queued statement must have input");
        let flow = analysis.transfer(i, &body.stmts[i], &input);
        match flow {
            Flow::Uniform(out) => {
                for &s in cfg.succs(i) {
                    apply(&mut inputs, &mut queue, &mut queued, s, &out);
                }
            }
            Flow::Branch { taken, fall } => {
                let Stmt::If { target, .. } = &body.stmts[i] else {
                    panic!("Flow::Branch returned for non-branch statement {i}");
                };
                for &s in cfg.succs(i) {
                    if s == *target {
                        if let Some(t) = &taken {
                            apply(&mut inputs, &mut queue, &mut queued, s, t);
                        }
                    }
                    if s == i + 1 && s != *target {
                        if let Some(f) = &fall {
                            apply(&mut inputs, &mut queue, &mut queued, s, f);
                        }
                    }
                    // When target == i + 1 both edges reach the same
                    // successor; apply the fall state too.
                    if s == *target && *target == i + 1 {
                        if let Some(f) = &fall {
                            apply(&mut inputs, &mut queue, &mut queued, s, f);
                        }
                    }
                }
            }
        }
    }
    stats.visited = inputs.iter().filter(|s| s.is_some()).count() as u64;
    (DataflowResults { inputs }, stats)
}

/// Pops the queued statement with the smallest RPO rank (approximate
/// priority queue; the queue is small in practice).
fn pop_min_rank(queue: &mut VecDeque<usize>, rank: &[usize]) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    let mut best = 0;
    for (pos, &i) in queue.iter().enumerate() {
        if rank[i] < rank[queue[best]] {
            best = pos;
        }
    }
    queue.remove(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constprop::ConstEnv;
    use crate::lattice::BitSet32;
    use spo_jir::{parse_program, Program};

    /// A toy analysis: collect the set of assigned-locals' indices (as a
    /// may-union powerset), branching pruned by constants.
    struct AssignedLocals {
        env_entry: ConstEnv,
    }

    #[derive(Clone, PartialEq, Debug)]
    struct St {
        assigned: BitSet32,
        env: ConstEnv,
    }

    impl crate::lattice::JoinLattice for St {
        fn join(&mut self, other: &Self) -> bool {
            let a = self.assigned.join(&other.assigned);
            let b = self.env.join(&other.env);
            a || b
        }
    }

    impl ForwardAnalysis for AssignedLocals {
        type State = St;

        fn boundary(&mut self) -> St {
            St {
                assigned: BitSet32::empty(),
                env: self.env_entry.clone(),
            }
        }

        fn transfer(&mut self, _idx: usize, stmt: &Stmt, input: &St) -> Flow<St> {
            let mut out = input.clone();
            if let Some(d) = stmt.def_local() {
                if d.index() < 32 {
                    out.assigned.insert(d.index() as u8);
                }
            }
            out.env.transfer(stmt);
            if let Stmt::If { cond, .. } = stmt {
                return match input.env.eval_cond(cond) {
                    Some(true) => Flow::Branch {
                        taken: Some(out),
                        fall: None,
                    },
                    Some(false) => Flow::Branch {
                        taken: None,
                        fall: Some(out),
                    },
                    None => Flow::Branch {
                        taken: Some(out.clone()),
                        fall: Some(out),
                    },
                };
            }
            Flow::Uniform(out)
        }
    }

    fn analyze(src: &str) -> (Program, DataflowResults<St>) {
        let p = parse_program(src).unwrap();
        let c = p.class_by_str("T").unwrap();
        let body = p.class(c).methods[0].body.as_ref().unwrap().clone();
        let cfg = body.cfg();
        let n = body.locals.len();
        let mut a = AssignedLocals {
            env_entry: ConstEnv::entry(n, body.n_params),
        };
        let (r, _) = run_forward(&body, &cfg, &mut a, &Governor::unlimited());
        (p, r)
    }

    #[test]
    fn fixpoint_stats_count_transfers_and_visits() {
        let src = r#"
class T {
  method public static void m(bool c) {
    local int a;
  top:
    a = a + 1;
    if c goto top;
    return;
  }
}
"#;
        let p = parse_program(src).unwrap();
        let c = p.class_by_str("T").unwrap();
        let body = p.class(c).methods[0].body.as_ref().unwrap().clone();
        let cfg = body.cfg();
        let mut a = AssignedLocals {
            env_entry: ConstEnv::entry(body.locals.len(), body.n_params),
        };
        let (_, stats) = run_forward(&body, &cfg, &mut a, &Governor::unlimited());
        assert_eq!(stats.stmts, 3);
        assert_eq!(stats.visited, 3);
        // The back edge forces at least one re-transfer of the loop head.
        assert!(stats.transfers > stats.visited);
        assert!(stats.passes() > 1.0);
        // Determinism: the same run yields the same accounting.
        let mut a2 = AssignedLocals {
            env_entry: ConstEnv::entry(body.locals.len(), body.n_params),
        };
        assert_eq!(
            run_forward(&body, &cfg, &mut a2, &Governor::unlimited()).1,
            stats
        );
    }

    #[test]
    fn straight_line_accumulates() {
        let (_, r) = analyze(
            r#"
class T {
  method public static void m() {
    local int a, b;
    a = 1;
    b = 2;
    return;
  }
}
"#,
        );
        // IN of the return statement has both locals assigned.
        let last = r.inputs.len() - 1;
        let st = r.input(last).unwrap();
        assert!(st.assigned.contains(0) && st.assigned.contains(1));
    }

    #[test]
    fn constant_branch_prunes_dead_edge() {
        let (_, r) = analyze(
            r#"
class T {
  method public static void m() {
    local int a;
    local bool c;
    c = true;
    if c goto yes;
    a = 1;       // dead
    return;
  yes:
    a = 2;
    return;
  }
}
"#,
        );
        // Statement 2 (`a = 1`) must be unreachable.
        let dead: Vec<usize> = r.unreachable().collect();
        assert_eq!(dead, vec![2, 3]);
    }

    #[test]
    fn unknown_branch_reaches_both() {
        let (_, r) = analyze(
            r#"
class T {
  method public static void m(bool c) {
    local int a;
    if c goto yes;
    a = 1;
    return;
  yes:
    a = 2;
    return;
  }
}
"#,
        );
        assert_eq!(r.unreachable().count(), 0);
    }

    #[test]
    fn loop_converges() {
        let (_, r) = analyze(
            r#"
class T {
  method public static void m(bool c) {
    local int a;
  top:
    a = a + 1;
    if c goto top;
    return;
  }
}
"#,
        );
        assert_eq!(r.unreachable().count(), 0);
        // The loop head sees the back edge: `a` is assigned in its IN after
        // fixpoint (join of entry {∅} and back edge {a}u gives union {a}).
        let st = r.input(0).unwrap();
        // a is local index 1 (param c is 0).
        assert!(st.assigned.contains(1));
    }

    #[test]
    fn join_point_merges_branches() {
        let (_, r) = analyze(
            r#"
class T {
  method public static void m(bool c) {
    local int a, b;
    if c goto yes;
    a = 1;
    goto join;
  yes:
    b = 2;
  join:
    return;
  }
}
"#,
        );
        let last = r.inputs.len() - 1;
        let st = r.input(last).unwrap();
        // Union of both arms: a (local 1) and b (local 2).
        assert!(st.assigned.contains(1) && st.assigned.contains(2));
    }
}
