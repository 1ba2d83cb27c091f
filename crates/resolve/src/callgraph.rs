//! API entry-point enumeration and on-the-fly call graph construction.

use crate::hierarchy::Hierarchy;
use crate::resolver::{Resolution, ResolutionStats, Resolver};
use spo_jir::{MethodFlags, MethodId, Program, Stmt};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Enumerates the API entry points of a program: all `public` and
/// `protected` non-abstract methods. The paper analyzes protected methods
/// too because clients can reach them by subclassing, making them
/// "unintended paths into the API".
pub fn entry_points(program: &Program) -> Vec<MethodId> {
    program
        .all_methods()
        .filter(|(_, m)| m.flags.is_entry_visible() && !m.flags.contains(MethodFlags::ABSTRACT))
        .map(|(id, _)| id)
        .collect()
}

/// A call graph rooted at a set of entry points.
///
/// Built on the fly, as the paper does (Soot's whole-program call graph
/// assumes a single `main`; APIs have thousands of roots). Edges exist only
/// for call sites that resolve to a unique target.
#[derive(Clone, Debug)]
pub struct CallGraph {
    roots: Vec<MethodId>,
    /// Unique-target callees per reachable method.
    edges: BTreeMap<MethodId, Vec<MethodId>>,
    stats: ResolutionStats,
}

impl CallGraph {
    /// Builds the call graph reachable from `roots`.
    pub fn build(hierarchy: &Hierarchy<'_>, roots: Vec<MethodId>) -> Self {
        let program = hierarchy.program();
        let resolver = Resolver::new(hierarchy);
        let mut stats = ResolutionStats::default();
        let mut edges: BTreeMap<MethodId, Vec<MethodId>> = BTreeMap::new();
        let mut queue: VecDeque<MethodId> = roots.iter().copied().collect();
        let mut seen: BTreeSet<MethodId> = queue.iter().copied().collect();
        while let Some(m) = queue.pop_front() {
            let mut callees = Vec::new();
            if let Some(body) = &program.method(m).body {
                for stmt in &body.stmts {
                    if let Stmt::Invoke { call, .. } = stmt {
                        let r = resolver.resolve(call);
                        stats.record(&r);
                        if let Resolution::Unique(target) = r {
                            callees.push(target);
                            if seen.insert(target) {
                                queue.push_back(target);
                            }
                        }
                    }
                }
            }
            edges.insert(m, callees);
        }
        CallGraph {
            roots,
            edges,
            stats,
        }
    }

    /// Builds the call graph rooted at all API entry points of the program.
    pub fn from_entry_points(hierarchy: &Hierarchy<'_>) -> Self {
        let roots = entry_points(hierarchy.program());
        Self::build(hierarchy, roots)
    }

    /// Records this graph's size (`resolve.callgraph.roots`/`.methods`/
    /// `.edges`) and its resolution precision (`resolve.calls.unique`/
    /// `.ambiguous`/`.unknown`) as counters in `rec`. Construction is a
    /// serial BFS over ordered maps, so every count is
    /// schedule-independent.
    pub fn record_into(&self, rec: &spo_obs::Recorder) {
        rec.counter("resolve.callgraph.roots")
            .add(self.roots.len() as u64);
        rec.counter("resolve.callgraph.methods")
            .add(self.reachable_count() as u64);
        rec.counter("resolve.callgraph.edges")
            .add(self.edge_count() as u64);
        rec.counter("resolve.calls.unique")
            .add(self.stats.unique as u64);
        rec.counter("resolve.calls.ambiguous")
            .add(self.stats.ambiguous as u64);
        rec.counter("resolve.calls.unknown")
            .add(self.stats.unknown as u64);
    }

    /// The root methods.
    pub fn roots(&self) -> &[MethodId] {
        &self.roots
    }

    /// Unique-target callees of `m` (empty if `m` is unreachable or leaf).
    pub fn callees(&self, m: MethodId) -> &[MethodId] {
        self.edges.get(&m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All methods reachable from the roots (including the roots).
    pub fn reachable(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.edges.keys().copied()
    }

    /// Number of reachable methods.
    pub fn reachable_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of unique-target call edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// Resolution precision counters accumulated during construction.
    pub fn stats(&self) -> ResolutionStats {
        self.stats
    }

    /// Methods transitively reachable from a single root, including itself —
    /// the per-entry-point subgraph the security analysis walks.
    pub fn reachable_from(&self, root: MethodId) -> Vec<MethodId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(m) = stack.pop() {
            if seen.insert(m) {
                stack.extend(self.callees(m).iter().copied());
            }
        }
        seen.into_iter().collect()
    }

    /// The dependency cone of every root: `(root, reachable methods)` in
    /// root order. This is what the persistent summary cache hashes to key
    /// a root's cached policy — a root's analysis can only observe methods
    /// inside its cone, so an edit outside the cone cannot change the
    /// result.
    pub fn cones(&self) -> impl Iterator<Item = (MethodId, Vec<MethodId>)> + '_ {
        self.roots
            .iter()
            .map(move |&root| (root, self.reachable_from(root)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_jir::parse_program;

    fn prog() -> Program {
        parse_program(
            r#"
class A {
  method public void entry() {
    local A a;
    a = this;
    virtualinvoke a.helper();
    return;
  }
  method private void helper() {
    staticinvoke B.leaf();
    return;
  }
  method protected void prot() { return; }
  method private void unreachable_private() { return; }
  method public abstract int absent();
}
class B {
  method public static void leaf() {
    staticinvoke external.Sys.call();
    return;
  }
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn entry_points_are_public_and_protected_non_abstract() {
        let p = prog();
        let eps = entry_points(&p);
        let names: Vec<String> = eps.iter().map(|&m| p.method_name(m)).collect();
        assert!(names.contains(&"A.entry".to_owned()));
        assert!(names.contains(&"A.prot".to_owned()));
        assert!(names.contains(&"B.leaf".to_owned()));
        assert!(!names.contains(&"A.helper".to_owned()));
        assert!(!names.contains(&"A.absent".to_owned()));
        assert!(!names.contains(&"A.unreachable_private".to_owned()));
    }

    #[test]
    fn call_graph_reaches_through_private_helpers() {
        let p = prog();
        let h = Hierarchy::new(&p);
        let cg = CallGraph::from_entry_points(&h);
        let helper_reached = cg.reachable().any(|m| p.method_name(m) == "A.helper");
        assert!(helper_reached);
        // The external call resolves to Unknown but doesn't break anything.
        assert_eq!(cg.stats().unknown, 1);
        assert!(cg.stats().unique >= 2);
    }

    #[test]
    fn reachable_from_single_root() {
        let p = prog();
        let h = Hierarchy::new(&p);
        let cg = CallGraph::from_entry_points(&h);
        let entry = cg
            .roots()
            .iter()
            .copied()
            .find(|&m| p.method_name(m) == "A.entry")
            .unwrap();
        let sub = cg.reachable_from(entry);
        let names: Vec<String> = sub.iter().map(|&m| p.method_name(m)).collect();
        assert!(names.contains(&"A.entry".to_owned()));
        assert!(names.contains(&"A.helper".to_owned()));
        assert!(names.contains(&"B.leaf".to_owned()));
        assert!(!names.contains(&"A.prot".to_owned()));
    }

    #[test]
    fn cones_cover_every_root_and_match_reachable_from() {
        let p = prog();
        let h = Hierarchy::new(&p);
        let cg = CallGraph::from_entry_points(&h);
        let cones: Vec<_> = cg.cones().collect();
        assert_eq!(cones.len(), cg.roots().len());
        for ((root, cone), expect) in cones.iter().zip(cg.roots()) {
            assert_eq!(root, expect);
            assert_eq!(cone, &cg.reachable_from(*root));
            assert!(cone.contains(root));
        }
    }

    #[test]
    fn recorded_graph_counters_match_the_graph() {
        let p = prog();
        let h = Hierarchy::new(&p);
        let rec = spo_obs::Recorder::new();
        let cg = {
            let _span = rec.span("resolve.callgraph");
            CallGraph::from_entry_points(&h)
        };
        cg.record_into(&rec);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counters["resolve.callgraph.roots"],
            cg.roots().len() as u64
        );
        assert_eq!(
            snap.counters["resolve.callgraph.methods"],
            cg.reachable_count() as u64
        );
        assert_eq!(
            snap.counters["resolve.callgraph.edges"],
            cg.edge_count() as u64
        );
        assert_eq!(snap.counters["resolve.calls.unknown"], 1);
        assert_eq!(snap.durations["resolve.callgraph"].count, 1);
        // Recording leaves the graph as an unrecorded build makes it.
        let plain = CallGraph::from_entry_points(&h);
        assert_eq!(plain.reachable_count(), cg.reachable_count());
        assert_eq!(plain.edge_count(), cg.edge_count());
    }

    #[test]
    fn recursive_graph_terminates() {
        let p = parse_program(
            r#"
class R {
  method public void ping() {
    local R r;
    r = this;
    virtualinvoke r.pong();
    return;
  }
  method public void pong() {
    local R r;
    r = this;
    virtualinvoke r.ping();
    return;
  }
}
"#,
        )
        .unwrap();
        let h = Hierarchy::new(&p);
        let cg = CallGraph::from_entry_points(&h);
        assert_eq!(cg.reachable_count(), 2);
        let ping = cg.roots()[0];
        assert_eq!(cg.reachable_from(ping).len(), 2);
    }
}
