//! Edge-case coverage for the interprocedural policy analysis.

use spo_core::{AnalysisOptions, Analyzer, Check, CheckSet, EventDef, EventKey, LibraryPolicies};

const PRELUDE: &str = r#"
class java.lang.Object { }
class java.lang.SecurityManager {
  method public native void checkExit(int status);
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.String file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
"#;

fn analyze(src: &str, options: AnalysisOptions) -> LibraryPolicies {
    let mut p = spo_jir::parse_program(PRELUDE).unwrap();
    spo_jir::parse_into(src, &mut p).unwrap();
    Analyzer::new(&p, options).analyze_library("t")
}

#[test]
fn nested_privileged_regions_stay_privileged() {
    let lib = analyze(
        r#"
class t.A {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    privileged {
      privileged {
        nop;
      }
      // Still inside the outer region: a no-op check.
      virtualinvoke sm.checkExit(0);
    }
    staticinvoke t.A.op0();
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.A.m()"].events[&EventKey::Native("op0".into())];
    assert!(
        ev.may.is_empty(),
        "check inside nested privileged region must be a no-op"
    );
}

#[test]
fn check_after_privileged_region_counts() {
    let lib = analyze(
        r#"
class t.B {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    privileged {
      nop;
    }
    virtualinvoke sm.checkExit(0);
    staticinvoke t.B.op0();
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.B.m()"].events[&EventKey::Native("op0".into())];
    assert_eq!(ev.must, CheckSet::of(Check::Exit));
}

#[test]
fn ambiguous_virtual_call_is_skipped() {
    // Two overrides: CHA cannot pick one; the callee's check and native
    // must not leak into the caller's policy.
    let lib = analyze(
        r#"
class t.Base {
  method public void work() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    return;
  }
}
class t.Sub extends t.Base {
  method public void work() { return; }
}
class t.Caller {
  method public void m(t.Base b) {
    virtualinvoke b.work();
    staticinvoke t.Caller.op0();
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let entry = &lib.entries["t.Caller.m(t.Base)"];
    let ev = &entry.events[&EventKey::Native("op0".into())];
    assert!(ev.may.is_empty(), "unresolved call must contribute nothing");
    assert!(lib.stats.unresolved_calls > 0);
}

#[test]
fn native_public_entry_is_its_own_event() {
    let lib = analyze(
        r#"
class t.N {
  method public native void raw(int x);
}
"#,
        AnalysisOptions::default(),
    );
    let entry = &lib.entries["t.N.raw(int)"];
    let ev = &entry.events[&EventKey::Native("raw".into())];
    assert!(ev.may.is_empty());
    assert!(ev.must.is_empty());
}

#[test]
fn throw_only_paths_do_not_poison_exit() {
    let lib = analyze(
        r#"
class t.T {
  method public void m(bool bad) {
    local java.lang.SecurityManager sm;
    local java.lang.Object e;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("f");
    if bad goto boom;
    return;
  boom:
    e = new java.lang.Object;
    throw e;
  }
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.T.m(bool)"].events[&EventKey::ApiReturn];
    // The throwing path does not return; the single return carries the
    // check as a must.
    assert_eq!(ev.must, CheckSet::of(Check::Write));
}

#[test]
fn broad_mode_records_parameter_accesses_in_entry_only() {
    let opts = AnalysisOptions {
        events: EventDef::Broad,
        ..Default::default()
    };
    let lib = analyze(
        r#"
class t.P {
  method public int m(int size) {
    local int v;
    v = size + 1;
    staticinvoke t.P.helper(v);
    return v;
  }
  method private static void helper(int inner) {
    local int w;
    w = inner * 2;
    return;
  }
}
"#,
        opts,
    );
    let entry = &lib.entries["t.P.m(int)"];
    assert!(entry
        .events
        .contains_key(&EventKey::DataRead("size".into())));
    // Callee parameter names do not become events.
    assert!(!entry
        .events
        .contains_key(&EventKey::DataRead("inner".into())));
}

#[test]
fn broad_mode_sees_inherited_private_fields() {
    let opts = AnalysisOptions {
        events: EventDef::Broad,
        ..Default::default()
    };
    let lib = analyze(
        r#"
class t.Base {
  field private int secret;
}
class t.Sub extends t.Base {
  method public int leak() {
    local int v;
    v = this.secret;
    return v;
  }
}
"#,
        opts,
    );
    let entry = &lib.entries["t.Sub.leak()"];
    assert!(
        entry
            .events
            .contains_key(&EventKey::DataRead("secret".into())),
        "{:?}",
        entry.events.keys().collect::<Vec<_>>()
    );
}

#[test]
fn protected_entry_points_are_analyzed() {
    let lib = analyze(
        r#"
class t.Prot {
  method protected void hook() {
    staticinvoke t.Prot.op0();
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    assert!(lib.entries.contains_key("t.Prot.hook()"));
}

#[test]
fn constants_flow_through_two_call_levels() {
    // f(5) -> g(5) -> branch folds on the constant.
    let lib = analyze(
        r#"
class t.K {
  method public void entry() {
    staticinvoke t.K.f(5);
    staticinvoke t.K.op0();
    return;
  }
  method private static void f(int x) {
    staticinvoke t.K.g(x);
    return;
  }
  method private static void g(int y) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if y == 5 goto skip;
    virtualinvoke sm.checkExit(y);
  skip:
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.K.entry()"].events[&EventKey::Native("op0".into())];
    assert!(
        ev.may.is_empty(),
        "constant 5 must fold the branch two calls deep: {}",
        ev.may
    );
}

#[test]
fn arithmetic_on_constants_folds_across_calls() {
    let lib = analyze(
        r#"
class t.L {
  method public void entry() {
    local int a;
    a = 2 + 3;
    staticinvoke t.L.g(a);
    staticinvoke t.L.op0();
    return;
  }
  method private static void g(int y) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if y == 5 goto skip;
    virtualinvoke sm.checkExit(y);
  skip:
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.L.entry()"].events[&EventKey::Native("op0".into())];
    assert!(ev.may.is_empty());
}

#[test]
fn two_natives_same_name_combine() {
    // Two different classes declare nat(); they are distinct methods but
    // share the event key by simple name — occurrences combine (∩/∪).
    let lib = analyze(
        r#"
class t.M {
  method public void m(bool c) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if c goto second;
    virtualinvoke sm.checkRead("a");
    staticinvoke t.M.nat();
    return;
  second:
    virtualinvoke sm.checkWrite("b");
    staticinvoke t.M2.nat();
    return;
  }
  method private static native void nat();
}
class t.M2 {
  method public static native void nat();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.M.m(bool)"].events[&EventKey::Native("nat".into())];
    assert!(ev.must.is_empty());
    assert_eq!(
        ev.may,
        [Check::Read, Check::Write]
            .into_iter()
            .collect::<CheckSet>()
    );
}

#[test]
fn printed_programs_analyze_like_parsed_ones() {
    // The printer's output is a second route into the parser; the
    // analysis must agree on both.
    let src = r#"
class java.lang.SecurityManager {
  method public native void checkExit(int p0);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class b.Built {
  method private static native void op0();
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto skip;
    virtualinvoke sm.checkExit(0);
  skip:
    nop;
    staticinvoke b.Built.op0();
    return;
  }
}
"#;
    let parsed = spo_jir::parse_program(src).unwrap();
    let lib = Analyzer::new(&parsed, AnalysisOptions::default()).analyze_library("built");
    let ev = &lib.entries["b.Built.m()"].events[&EventKey::Native("op0".into())];
    // The guarded idiom yields a may (not must) policy.
    assert_eq!(ev.may, CheckSet::of(Check::Exit));
    assert!(ev.must.is_empty());

    // And the printed form re-analyzes identically.
    let printed = spo_jir::print_program(&parsed);
    let reparsed = spo_jir::parse_program(&printed).unwrap();
    let lib2 = Analyzer::new(&reparsed, AnalysisOptions::default()).analyze_library("built");
    assert_eq!(
        lib.entries["b.Built.m()"].events,
        lib2.entries["b.Built.m()"].events
    );
}

#[test]
fn call_inside_loop_sees_fixpoint_policy() {
    // The callee is invoked from a loop whose in-policy grows across
    // iterations (first trip: no check; after the back edge the check has
    // executed). The event recorded inside the callee must reflect the
    // *fixpoint* may policy {{},{checkRead}}, not just the first visit.
    let lib = analyze(
        r#"
class t.Loop {
  method public void m(bool again) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
  top:
    staticinvoke t.Loop.emit();
    virtualinvoke sm.checkRead("f");
    if again goto top;
    return;
  }
  method private static void emit() {
    staticinvoke t.Loop.op0();
    return;
  }
  method private static native void op0();
}
"#,
        AnalysisOptions::default(),
    );
    let ev = &lib.entries["t.Loop.m(bool)"].events[&EventKey::Native("op0".into())];
    assert_eq!(
        ev.may,
        CheckSet::of(Check::Read),
        "second trip carries the check"
    );
    assert!(ev.must.is_empty(), "first trip does not");
    // The API return always follows at least one check.
    let ret = &lib.entries["t.Loop.m(bool)"].events[&EventKey::ApiReturn];
    assert_eq!(ret.must, CheckSet::of(Check::Read));
}

#[test]
fn analyze_entry_matches_whole_library_result() {
    let mut p = spo_jir::parse_program(PRELUDE).unwrap();
    spo_jir::parse_into(
        r#"
class t.One {
  method public void api(int x) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    staticinvoke t.One.op0();
    return;
  }
  method private static native void op0();
}
"#,
        &mut p,
    )
    .unwrap();
    let analyzer = Analyzer::new(&p, AnalysisOptions::default());
    let single = analyzer
        .analyze_entry("t.One.api(int)")
        .expect("entry exists");
    let whole = analyzer.analyze_library("t");
    assert_eq!(single.events, whole.entries["t.One.api(int)"].events);
    assert!(analyzer.analyze_entry("t.One.missing()").is_none());
}

#[test]
fn summaries_tainted_by_recursion_cuts_are_not_reused_across_entries() {
    // Entry a() reaches B via the cycle A -> B -> A: analyzing B under
    // a() hits a recursion cut (back to A) and its summary depends on A
    // being on the stack. Entry b() reaches B with no cycle context.
    // Global memoization must not serve b() the context-dependent summary
    // computed under a() — results must match the no-memo analysis.
    let src = r#"
class t.R {
  method public void a() {
    staticinvoke t.R.fa(1);
    staticinvoke t.R.op0();
    return;
  }
  method public void b() {
    staticinvoke t.R.fb(0);
    staticinvoke t.R.op0();
    return;
  }
  method private static void fa(int n) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("r");
    staticinvoke t.R.fb(n);
    return;
  }
  method private static void fb(int n) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("w");
    if n == 0 goto done;
    staticinvoke t.R.fa(n);
  done:
    return;
  }
  method private static native void op0();
}
"#;
    let base = analyze(
        src,
        AnalysisOptions {
            memo: spo_core::MemoScope::None,
            ..Default::default()
        },
    );
    let global = analyze(
        src,
        AnalysisOptions {
            memo: spo_core::MemoScope::Global,
            ..Default::default()
        },
    );
    for sig in ["t.R.a()", "t.R.b()"] {
        assert_eq!(
            base.entries[sig].events, global.entries[sig].events,
            "global memo diverges from no-memo at {sig}"
        );
    }
}
