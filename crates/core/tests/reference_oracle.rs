//! Differential testing of the policy analysis against a brute-force
//! reference: on acyclic single-method programs, enumerate every
//! entry-to-event path explicitly and compute the policy from first
//! principles — the MUST set is the intersection of per-path check sets,
//! the MAY disjuncts are exactly the distinct per-path check sets. The
//! dataflow fixpoint must agree. A looping, two-method program that widens
//! the MAY value past `DNF_WIDTH` is checked against a brute-force walk of
//! its interprocedural state space.

use spo_core::{AnalysisOptions, Analyzer, Check, CheckSet, EventKey};
use spo_jir::{Body, Cfg, Stmt};
use spo_rng::SmallRng;
use std::collections::BTreeSet;

const CHECKS: [Check; 4] = [Check::Read, Check::Write, Check::Connect, Check::Exit];

/// A structured random body: a sequence of segments, each either a check,
/// a diamond (two arms, each a list of checks), or a nop; ends with the
/// native event and a return.
#[derive(Clone, Debug)]
enum Seg {
    Check(u8),
    Diamond(Vec<u8>, Vec<u8>),
    Nop,
}

fn gen_seg(rng: &mut SmallRng) -> Seg {
    match rng.gen_range(0..3u32) {
        0 => Seg::Check(rng.gen_range(0..4u8)),
        1 => {
            let arm = |rng: &mut SmallRng| {
                let n = rng.gen_range(0..3usize);
                (0..n).map(|_| rng.gen_range(0..4u8)).collect::<Vec<u8>>()
            };
            let a = arm(rng);
            let b = arm(rng);
            Seg::Diamond(a, b)
        }
        _ => Seg::Nop,
    }
}

fn program_source(segs: &[Seg]) -> String {
    use std::fmt::Write as _;
    let mut body = String::new();
    let mut params = String::new();
    let mut label = 0usize;
    for (i, s) in segs.iter().enumerate() {
        match s {
            Seg::Nop => body.push_str("    nop;\n"),
            Seg::Check(c) => {
                writeln!(
                    body,
                    "    virtualinvoke sm.{}(null);",
                    CHECKS[*c as usize].method_name()
                )
                .unwrap();
            }
            Seg::Diamond(a, b) => {
                let (alt, join) = (label, label + 1);
                label += 2;
                if !params.is_empty() {
                    params.push_str(", ");
                }
                writeln!(params, "bool c{i}").unwrap();
                // Trim the trailing newline the `writeln!` added to params.
                params = params.trim_end().to_owned();
                writeln!(body, "    if c{i} goto alt{alt};").unwrap();
                for c in a {
                    writeln!(
                        body,
                        "    virtualinvoke sm.{}(null);",
                        CHECKS[*c as usize].method_name()
                    )
                    .unwrap();
                }
                writeln!(body, "    goto join{join};").unwrap();
                writeln!(body, "  alt{alt}:").unwrap();
                for c in b {
                    writeln!(
                        body,
                        "    virtualinvoke sm.{}(null);",
                        CHECKS[*c as usize].method_name()
                    )
                    .unwrap();
                }
                writeln!(body, "  join{join}:").unwrap();
                body.push_str("    nop;\n");
            }
        }
    }
    format!(
        r#"
class java.lang.SecurityManager {{
  method public native void checkRead(java.lang.Object f);
  method public native void checkWrite(java.lang.Object f);
  method public native void checkConnect(java.lang.Object a, java.lang.Object b);
  method public native void checkExit(java.lang.Object s);
}}
class t.C {{
  method public void m(java.lang.SecurityManager sm{comma}{params}) {{
{body}    staticinvoke t.C.event0();
    return;
  }}
  method private static native void event0();
}}
"#,
        comma = if params.is_empty() { "" } else { ", " },
    )
}

/// Brute-force: enumerate all acyclic paths from entry to each `event0`
/// call site, collecting the check set gen'd along each path.
fn reference_paths(program: &spo_jir::Program) -> BTreeSet<CheckSet> {
    let c = program.class_by_str("t.C").unwrap();
    let m = &program.class(c).methods[0];
    let body: &Body = m.body.as_ref().unwrap();
    let cfg: Cfg = body.cfg();
    let mut out = BTreeSet::new();
    // DFS over paths (bodies are acyclic by construction).
    let mut stack: Vec<(usize, CheckSet)> = vec![(0, CheckSet::empty())];
    while let Some((i, checks)) = stack.pop() {
        let stmt = &body.stmts[i];
        let mut checks = checks;
        if let Stmt::Invoke { call, .. } = stmt {
            if program.str(call.callee.class) == "java.lang.SecurityManager" {
                if let Some(check) = Check::from_name(program.str(call.callee.name)) {
                    checks.insert(check);
                }
            } else if program.str(call.callee.name) == "event0" {
                // Policy snapshot at the event (before it executes).
                out.insert(checks);
            }
        }
        for &s in cfg.succs(i) {
            stack.push((s, checks));
        }
    }
    out
}

fn cmp_char(segs: &[Seg]) {
    let src = program_source(segs);
    let program = spo_jir::parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));

    let reference = reference_paths(&program);
    let ref_must = reference
        .iter()
        .copied()
        .reduce(|a, b| a.intersect(b))
        .unwrap_or(CheckSet::empty());

    let analyzer = Analyzer::new(&program, AnalysisOptions::default());
    let lib = analyzer.analyze_library("t");
    let entry = lib
        .entries
        .values()
        .find(|e| e.signature.starts_with("t.C.m("))
        .expect("entry analyzed");
    let ev = &entry.events[&EventKey::Native("event0".into())];

    assert_eq!(ev.must, ref_must, "must mismatch\n{}", src);
    let analysis_paths: BTreeSet<CheckSet> = ev
        .may_paths
        .disjuncts()
        .iter()
        .map(|&d| CheckSet::from_bits(d))
        .collect();
    assert_eq!(analysis_paths, reference, "may disjuncts mismatch\n{}", src);
}

/// SPDA agrees with explicit path enumeration on must sets and on the
/// exact disjunctive may structure.
#[test]
fn spda_matches_brute_force_path_enumeration() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x04ac_0000 + seed);
        let n = rng.gen_range(0..6usize);
        let segs: Vec<Seg> = (0..n).map(|_| gen_seg(&mut rng)).collect();
        cmp_char(&segs);
    }
}

#[test]
fn brute_force_agrees_on_figure_1_shape() {
    // Deterministic instance: the Figure 1 disjunctive pattern.
    let segs = vec![Seg::Diamond(vec![2, 0], vec![3])];
    cmp_char(&segs);
}

/// The checks the widening program uses: seven independent diamond checks,
/// one unconditional check ahead of the loop, and one inside the helper.
const LOOP_CHECKS: [Check; 9] = [
    Check::Accept,
    Check::Connect,
    Check::Delete,
    Check::Exec,
    Check::Link,
    Check::Listen,
    Check::Multicast,
    Check::Exit,
    Check::Read,
];

/// The statement invoking `check` on `sm`, with one `null` per parameter.
fn check_call(check: Check) -> String {
    let args = vec!["null"; check.argc() as usize].join(", ");
    format!("    virtualinvoke sm.{}({args});\n", check.method_name())
}

/// A loop over seven independent check diamonds (2^7 = 128 distinct
/// per-path check sets, past `DNF_WIDTH`), plus a helper with its own
/// event reached from two call sites whose MUST in-policies differ: `{}`
/// before the unconditional `checkExit`, `{checkExit}` inside the loop.
fn widening_source() -> String {
    use std::fmt::Write as _;
    let mut decls = String::new();
    for check in LOOP_CHECKS {
        let params: Vec<String> = (0..check.argc())
            .map(|i| format!("java.lang.Object a{i}"))
            .collect();
        writeln!(
            decls,
            "  method public native void {}({});",
            check.method_name(),
            params.join(", ")
        )
        .unwrap();
    }
    let mut body = String::from("    staticinvoke t.L.helper(sm, h);\n");
    body.push_str(&check_call(LOOP_CHECKS[7]));
    body.push_str("  top:\n");
    for (i, &check) in LOOP_CHECKS[..7].iter().enumerate() {
        writeln!(body, "    if c{i} goto s{i};").unwrap();
        body.push_str(&check_call(check));
        writeln!(body, "  s{i}:\n    nop;").unwrap();
    }
    body.push_str("    staticinvoke t.L.helper(sm, h);\n");
    body.push_str("    if again goto top;\n");
    format!(
        r#"
class java.lang.SecurityManager {{
{decls}}}
class t.L {{
  method public void m(java.lang.SecurityManager sm, bool c0, bool c1, bool c2, bool c3, bool c4, bool c5, bool c6, bool h, bool again) {{
{body}    staticinvoke t.L.event0();
    return;
  }}
  method private static void helper(java.lang.SecurityManager sm, bool c) {{
    if c goto skip;
{helper_check}  skip:
    staticinvoke t.L.event1();
    return;
  }}
  method private static native void event0();
  method private static native void event1();
}}
"#,
        helper_check = check_call(LOOP_CHECKS[8]),
    )
}

/// Brute force over the interprocedural state space: every reachable
/// `(call stack, method, statement, checks so far)` state is visited once,
/// so loops terminate while every check set any path can carry to an
/// event is still collected exactly. Keys are event names (`event0`,
/// `event1`) plus `return` for the entry's exit.
fn reference_event_sets(
    program: &spo_jir::Program,
) -> std::collections::BTreeMap<String, BTreeSet<CheckSet>> {
    use std::collections::{BTreeMap, HashSet};
    let class = program.class_by_str("t.L").unwrap();
    let bodies: BTreeMap<String, (&Body, Cfg)> = program
        .class(class)
        .methods
        .iter()
        .filter_map(|m| {
            let body = m.body.as_ref()?;
            Some((program.str(m.name).to_owned(), (body, body.cfg())))
        })
        .collect();
    type State = (Vec<(String, usize)>, String, usize, CheckSet);
    let mut out: BTreeMap<String, BTreeSet<CheckSet>> = BTreeMap::new();
    let mut seen: HashSet<State> = HashSet::new();
    let mut work: Vec<State> = vec![(Vec::new(), "m".to_owned(), 0, CheckSet::empty())];
    while let Some(state) = work.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        let (stack, method, i, mut checks) = state;
        let body = bodies[&method].0;
        let mut next = |stack: Vec<(String, usize)>, method: &str, from: usize, checks| {
            for &s in bodies[method].1.succs(from) {
                work.push((stack.clone(), method.to_owned(), s, checks));
            }
        };
        match &body.stmts[i] {
            Stmt::Return { .. } => match stack.split_last() {
                None => {
                    out.entry("return".into()).or_default().insert(checks);
                }
                Some(((caller, site), rest)) => next(rest.to_vec(), caller, *site, checks),
            },
            Stmt::Invoke { call, .. } => {
                let callee = program.str(call.callee.name);
                if let Some(check) = Check::from_name(callee) {
                    checks.insert(check);
                } else if callee.starts_with("event") {
                    out.entry(callee.to_owned()).or_default().insert(checks);
                } else if bodies.contains_key(callee) {
                    let mut stack = stack.clone();
                    stack.push((method.clone(), i));
                    work.push((stack, callee.to_owned(), 0, checks));
                    continue;
                }
                next(stack, &method, i, checks);
            }
            _ => next(stack, &method, i, checks),
        }
    }
    out
}

/// A loop that widens the MAY value past `DNF_WIDTH`, with a helper
/// analyzed under two MUST contexts: the flat MAY union and the MUST set of
/// every event equal brute force under every memo scope, widening really
/// happened, and the widened disjunct lists are pinned.
#[test]
fn widening_loop_with_two_must_contexts_matches_brute_force() {
    use spo_core::MemoScope;
    let src = widening_source();
    let program = spo_jir::parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let reference = reference_event_sets(&program);
    assert!(
        reference["event0"].len() > spo_dataflow::DNF_WIDTH,
        "the loop must produce more than DNF_WIDTH distinct check sets"
    );
    // The widened MAY disjuncts depend on where the loop's joins widen, so
    // they are pinned: any change to the worklist order or to the join
    // shows up here first.
    let set = |checks: &[Check]| checks.iter().copied().collect::<CheckSet>();
    let wide = set(&[
        Check::Accept,
        Check::Connect,
        Check::Delete,
        Check::Exec,
        Check::Exit,
        Check::Link,
        Check::Listen,
        Check::Read,
    ]);
    let wide_multicast = wide.union(CheckSet::of(Check::Multicast));
    let pinned = |name: &str| match name {
        "event1" => vec![
            CheckSet::empty(),
            CheckSet::of(Check::Read),
            wide,
            wide_multicast,
        ],
        _ => vec![wide, wide_multicast],
    };
    for memo in [MemoScope::None, MemoScope::PerEntry, MemoScope::Global] {
        let rec = spo_obs::Recorder::new();
        let options = AnalysisOptions {
            memo,
            ..Default::default()
        };
        let lib = Analyzer::new(&program, options)
            .with_recorder(rec.clone())
            .analyze_library("t");
        let entry = lib
            .entries
            .values()
            .find(|e| e.signature.starts_with("t.L.m("))
            .expect("entry analyzed");
        for (name, sets) in &reference {
            let key = match name.as_str() {
                "return" => EventKey::ApiReturn,
                native => EventKey::Native(native.into()),
            };
            let ev = &entry.events[&key];
            let union = sets.iter().fold(CheckSet::empty(), |a, &b| a.union(b));
            let must = sets.iter().copied().reduce(|a, b| a.intersect(b)).unwrap();
            assert_eq!(ev.may, union, "{name} may under {memo:?}");
            assert_eq!(ev.must, must, "{name} must under {memo:?}");
            let paths: Vec<CheckSet> = ev
                .may_paths
                .disjuncts()
                .iter()
                .map(|&d| CheckSet::from_bits(d))
                .collect();
            assert_eq!(paths, pinned(name), "{name} may_paths under {memo:?}");
        }
        let widened = rec.snapshot().work.get("dataflow.dnf.widened").copied();
        assert!(widened.unwrap_or(0) > 0, "no widening under {memo:?}");
    }
}
