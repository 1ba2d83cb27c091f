//! Exception-behaviour differencing — the paper's proposed generalization
//! (§8): "Similar analysis could detect differences in exceptions that may
//! get thrown by each implementation."
//!
//! For every API entry point, [`ThrowsAnalyzer`] computes the set of
//! exception classes that may propagate out (JIR has no catch edges, so
//! every reachable `throw` escapes), interprocedurally over uniquely
//! resolved calls. [`diff_throws`] then compares the sets across
//! implementations: Figure 8's `String.getBytes` difference — JDK calls
//! `System.exit` where Harmony throws `UnsupportedEncodingException` —
//! shows up here as an exception-set difference even before its
//! security-policy shadow (`checkExit`) is considered.

use spo_jir::{Expr, MethodId, Operand, Program, Stmt, Symbol, Type};
use spo_resolve::{entry_points, CallGraph, Hierarchy};
use std::collections::{BTreeMap, BTreeSet};

/// The exception classes (by name) an entry point may propagate.
pub type ThrowSet = BTreeSet<String>;

/// Per-entry-point may-throw sets for one library implementation.
#[derive(Clone, Debug, Default)]
pub struct LibraryThrows {
    /// Library name.
    pub name: String,
    /// May-throw set keyed by entry-point signature.
    pub entries: BTreeMap<String, ThrowSet>,
}

/// Computes may-throw sets for every API entry point.
///
/// The analysis is a flow-insensitive fixpoint over the call graph: a
/// method's set is the union of the classes of its own `throw` operands
/// (the allocated class when the thrown local was assigned a `new`, its
/// declared type otherwise) and the sets of its uniquely resolved callees.
///
/// # Examples
///
/// ```
/// let program = spo_jir::parse_program(r#"
/// class java.lang.Boom { }
/// class api.C {
///   method public void m() {
///     local java.lang.Boom b;
///     b = new java.lang.Boom;
///     throw b;
///   }
/// }
/// "#).unwrap();
/// let throws = spo_core::ThrowsAnalyzer::new(&program).analyze_library("lib");
/// assert!(throws.entries["api.C.m()"].contains("java.lang.Boom"));
/// ```
pub struct ThrowsAnalyzer<'p> {
    program: &'p Program,
    hierarchy: Hierarchy<'p>,
}

impl<'p> ThrowsAnalyzer<'p> {
    /// Creates the analyzer (builds the hierarchy).
    pub fn new(program: &'p Program) -> Self {
        ThrowsAnalyzer {
            program,
            hierarchy: Hierarchy::new(program),
        }
    }

    /// Computes may-throw sets for all entry points.
    pub fn analyze_library(&self, name: &str) -> LibraryThrows {
        let roots = entry_points(self.program);
        let cg = CallGraph::build(&self.hierarchy, roots.clone());

        // Local throw classes per reachable method.
        let mut local: BTreeMap<MethodId, BTreeSet<Symbol>> = BTreeMap::new();
        for m in cg.reachable() {
            local.insert(m, self.local_throws(m));
        }

        // Fixpoint: propagate callee sets upward.
        let mut sets: BTreeMap<MethodId, BTreeSet<Symbol>> = local.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for m in cg.reachable().collect::<Vec<_>>() {
                let mut merged = sets.get(&m).cloned().unwrap_or_default();
                let before = merged.len();
                for &callee in cg.callees(m) {
                    if let Some(cs) = sets.get(&callee) {
                        merged.extend(cs.iter().copied());
                    }
                }
                if merged.len() != before {
                    sets.insert(m, merged);
                    changed = true;
                }
            }
        }

        let mut entries = BTreeMap::new();
        for root in roots {
            let set: ThrowSet = sets
                .get(&root)
                .map(|s| {
                    s.iter()
                        .map(|&sym| self.program.str(sym).to_owned())
                        .collect()
                })
                .unwrap_or_default();
            entries
                .entry(self.program.method_signature(root))
                .or_insert(set);
        }
        LibraryThrows {
            name: name.to_owned(),
            entries,
        }
    }

    /// Exception classes thrown directly by `m`'s own `throw` statements.
    fn local_throws(&self, m: MethodId) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        let Some(body) = self.program.method(m).body.as_ref() else {
            return out;
        };
        // Last allocation assigned to each local, for precise throw types.
        let mut alloc: BTreeMap<u32, Symbol> = BTreeMap::new();
        for stmt in &body.stmts {
            match stmt {
                Stmt::Assign {
                    dst,
                    value: Expr::New(class),
                } => {
                    alloc.insert(dst.0, *class);
                }
                Stmt::Assign { dst, .. } | Stmt::Invoke { dst: Some(dst), .. } => {
                    alloc.remove(&dst.0);
                }
                Stmt::Throw { value } => {
                    let class =
                        match value {
                            Operand::Local(l) => alloc.get(&l.0).copied().or_else(|| {
                                match &body.locals[l.index()].ty {
                                    Type::Ref(s) => Some(*s),
                                    _ => None,
                                }
                            }),
                            Operand::Const(_) => None,
                        };
                    if let Some(c) = class {
                        out.insert(c);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// One exception-behaviour difference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThrowsDifference {
    /// Entry-point signature.
    pub signature: String,
    /// Exceptions only the left implementation may throw.
    pub only_left: ThrowSet,
    /// Exceptions only the right implementation may throw.
    pub only_right: ThrowSet,
}

/// Differences the may-throw sets of entry points shared by two
/// implementations.
pub fn diff_throws(left: &LibraryThrows, right: &LibraryThrows) -> Vec<ThrowsDifference> {
    let mut out = Vec::new();
    for (sig, ls) in &left.entries {
        let Some(rs) = right.entries.get(sig) else {
            continue;
        };
        if ls == rs {
            continue;
        }
        out.push(ThrowsDifference {
            signature: sig.clone(),
            only_left: ls.difference(rs).cloned().collect(),
            only_right: rs.difference(ls).cloned().collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_jir::parse_program;

    fn throws_of(src: &str, sig: &str) -> ThrowSet {
        let p = parse_program(src).unwrap();
        let t = ThrowsAnalyzer::new(&p).analyze_library("t");
        t.entries.get(sig).cloned().unwrap_or_default()
    }

    #[test]
    fn direct_throw_of_allocation() {
        let set = throws_of(
            r#"
class err.Oops { }
class C {
  method public void m() {
    local err.Oops e;
    e = new err.Oops;
    throw e;
  }
}
"#,
            "C.m()",
        );
        assert_eq!(set, ["err.Oops".to_owned()].into());
    }

    #[test]
    fn throw_of_parameter_uses_declared_type() {
        let set = throws_of(
            r#"
class err.Base { }
class C {
  method public void m(err.Base e) {
    throw e;
  }
}
"#,
            "C.m(err.Base)",
        );
        assert_eq!(set, ["err.Base".to_owned()].into());
    }

    #[test]
    fn interprocedural_propagation() {
        let set = throws_of(
            r#"
class err.Deep { }
class C {
  method public void outer() {
    staticinvoke C.inner();
    return;
  }
  method private static void inner() {
    local err.Deep e;
    e = new err.Deep;
    throw e;
  }
}
"#,
            "C.outer()",
        );
        assert_eq!(set, ["err.Deep".to_owned()].into());
    }

    #[test]
    fn recursion_terminates() {
        let set = throws_of(
            r#"
class err.E { }
class C {
  method public void a(bool c) {
    local err.E e;
    if c goto stop;
    staticinvoke C.b();
  stop:
    e = new err.E;
    throw e;
  }
  method private static void b() {
    staticinvoke C.c2();
    return;
  }
  method private static void c2() {
    staticinvoke C.b();
    return;
  }
}
"#,
            "C.a(bool)",
        );
        assert_eq!(set, ["err.E".to_owned()].into());
    }

    #[test]
    fn reassignment_clears_allocation_tracking() {
        // After `e` is overwritten by a call result, its throw type falls
        // back to the declared type.
        let set = throws_of(
            r#"
class err.Precise { }
class err.General { }
class C {
  method public void m() {
    local err.General e;
    e = new err.Precise;
    e = staticinvoke C.make();
    throw e;
  }
  method private static err.General make() {
    local err.General g;
    g = new err.General;
    return g;
  }
}
"#,
            "C.m()",
        );
        assert_eq!(set, ["err.General".to_owned()].into());
    }

    #[test]
    fn diff_finds_figure_8_style_difference() {
        let jdk = parse_program(
            r#"
class api.S {
  method public void getBytes() {
    return;
  }
}
"#,
        )
        .unwrap();
        let harmony = parse_program(
            r#"
class err.UnsupportedEncodingException { }
class api.S {
  method public void getBytes() {
    local err.UnsupportedEncodingException e;
    e = new err.UnsupportedEncodingException;
    throw e;
  }
}
"#,
        )
        .unwrap();
        let lt = ThrowsAnalyzer::new(&jdk).analyze_library("jdk");
        let rt = ThrowsAnalyzer::new(&harmony).analyze_library("harmony");
        let diffs = diff_throws(&lt, &rt);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].only_left.is_empty());
        assert_eq!(
            diffs[0].only_right,
            ["err.UnsupportedEncodingException".to_owned()].into()
        );
    }

    #[test]
    fn identical_throws_no_difference() {
        let src = r#"
class err.E { }
class api.S {
  method public void m() {
    local err.E e;
    e = new err.E;
    throw e;
  }
}
"#;
        let a = parse_program(src).unwrap();
        let b = parse_program(src).unwrap();
        let ta = ThrowsAnalyzer::new(&a).analyze_library("a");
        let tb = ThrowsAnalyzer::new(&b).analyze_library("b");
        assert!(diff_throws(&ta, &tb).is_empty());
    }
}
