//! Error recovery: `parse_into_recovering` collects diagnostics and drops
//! only the malformed unit instead of bailing on the first error.

use spo_jir::{parse_into_recovering, parse_program, Program};
use spo_rng::SmallRng;

const GOOD_TWO_METHODS: &str = r#"
class demo.A {
  field private int x;
  method public int good() {
    local int a;
    a = 1;
    return a;
  }
  method public int alsoGood() {
    local int b;
    b = 2;
    return b;
  }
}
"#;

#[test]
fn clean_input_is_clean_and_matches_strict_parse() {
    let mut p = Program::new();
    let rec = parse_into_recovering(GOOD_TWO_METHODS, &mut p);
    assert!(rec.is_clean(), "{:?}", rec.diagnostics);
    let strict = parse_program(GOOD_TWO_METHODS).unwrap();
    assert_eq!(p.class_count(), strict.class_count());
    assert_eq!(p.all_methods().count(), strict.all_methods().count());
}

#[test]
fn malformed_method_body_drops_only_that_method() {
    let src = r#"
class demo.A {
  method public int good() {
    local int a;
    a = 1;
    return a;
  }
  method public int bad() {
    local int b;
    b = = = nonsense;
    return b;
  }
  method public int alsoGood() {
    local int c;
    c = 3;
    return c;
  }
}
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "method");
    let c = p.class_by_str("demo.A").unwrap();
    let names: Vec<&str> = p.class(c).methods.iter().map(|m| p.str(m.name)).collect();
    assert_eq!(names, ["good", "alsoGood"]);
}

#[test]
fn malformed_field_drops_only_that_field() {
    let src = r#"
class demo.A {
  field private int ok;
  field private ;
  field private int alsoOk;
  method public void m() {
    return;
  }
}
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "field");
    let c = p.class_by_str("demo.A").unwrap();
    assert_eq!(p.class(c).fields.len(), 2);
    assert_eq!(p.class(c).methods.len(), 1);
}

#[test]
fn garbage_member_token_is_skipped() {
    let src = r#"
class demo.A {
  42;
  method public void m() {
    return;
  }
}
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "member");
    let c = p.class_by_str("demo.A").unwrap();
    assert_eq!(p.class(c).methods.len(), 1);
}

#[test]
fn malformed_class_header_drops_class_but_not_neighbors() {
    let src = r#"
class demo.A {
  method public void m() {
    return;
  }
}
class 123bogus {
  method public void n() {
    return;
  }
}
class demo.B {
  method public void o() {
    return;
  }
}
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "class");
    assert!(p.class_by_str("demo.A").is_some());
    assert!(p.class_by_str("demo.B").is_some());
    assert_eq!(p.class_count(), 2);
}

#[test]
fn duplicate_class_reports_and_keeps_first() {
    let src = r#"
class demo.A {
  method public void first() {
    return;
  }
}
class demo.A {
  method public void second() {
    return;
  }
}
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "class `demo.A`");
    let c = p.class_by_str("demo.A").unwrap();
    assert_eq!(p.str(p.class(c).methods[0].name), "first");
}

#[test]
fn lex_error_drops_file() {
    let src = "class demo.A { \u{0} }";
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "file");
    assert_eq!(p.class_count(), 0);
}

#[test]
fn truncated_class_is_dropped_without_hanging() {
    let src = r#"
class demo.A {
  method public void m() {
    return;
  }
"#;
    let mut p = Program::new();
    let rec = parse_into_recovering(src, &mut p);
    assert_eq!(rec.diagnostics.len(), 1, "{:?}", rec.diagnostics);
    assert_eq!(rec.diagnostics[0].dropped, "class");
    assert_eq!(p.class_count(), 0);
}

/// Mutated real fixtures: the recovering parser terminates and never
/// panics, whatever we throw at it, any class it keeps is well-formed, and
/// the strict parse agrees with its first diagnostic.
#[test]
fn recovery_total_on_mutated_fixture() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xec0_4000 + seed);
        let mut bytes = GOOD_TWO_METHODS.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..8usize) {
            let i = rng.gen_range(0..bytes.len() as u32) as usize;
            match rng.gen_range(0..3u32) {
                0 => bytes[i] = rng.gen_range(0..256u32) as u8,
                1 => bytes.truncate(i),
                _ => {
                    let j = rng.gen_range(0..bytes.len() as u32) as usize;
                    bytes.swap(i, j);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let mut p = Program::new();
        let recovery = parse_into_recovering(&src, &mut p);
        // The strict parse is `Ok` exactly when the recovery is clean, and
        // otherwise fails with its first diagnostic.
        let strict = parse_program(&src)
            .err()
            .map(|e| (e.line, e.col, e.message));
        let first = recovery
            .diagnostics
            .first()
            .map(|d| (d.line, d.col, d.message.clone()));
        assert_eq!(strict, first, "seed {seed}");
        for (_, m) in p.all_methods() {
            if let Some(body) = &m.body {
                assert!(body.validate().is_ok());
            }
        }
    }
}
