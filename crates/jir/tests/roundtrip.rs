//! Property tests: printer output re-parses, and print∘parse is a fixpoint.
//!
//! Randomized over a fixed set of seeds via the in-tree `spo-rng` PRNG so
//! the suite is fully deterministic and needs no external crates.

use spo_jir::{parse_program, print_program};
use spo_rng::SmallRng;
use std::fmt::Write as _;

/// A miniature statement language rendered to `.jir` text, so random
/// programs are structurally valid by construction.
#[derive(Clone, Debug)]
enum GenStmt {
    AssignInt(u8, i64),
    AssignBool(u8, bool),
    AssignStr(u8, String),
    Add(u8, u8, i64),
    Copy(u8, u8),
    Nop,
    CallStatic {
        class: u8,
        method: u8,
        args: Vec<i64>,
        capture: Option<u8>,
    },
    Diamond {
        cond_local: u8,
        then_len: u8,
        else_len: u8,
    },
    Privileged(u8),
    SecurityCheck(u8),
    StoreStaticField {
        class: u8,
        field: u8,
        src: u8,
    },
}

const CHECKS: &[&str] = &["checkRead", "checkWrite", "checkConnect", "checkExit"];

/// Characters allowed in generated string constants: exercises escaping of
/// backslash, quote, newline and tab in the printer/lexer round trip.
const STR_CHARS: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', ' ', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '\\',
    '"', '\n', '\t',
];

fn gen_string(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..13usize);
    (0..len).map(|_| *rng.choose(STR_CHARS).unwrap()).collect()
}

fn gen_stmt(rng: &mut SmallRng) -> GenStmt {
    match rng.gen_range(0..11u32) {
        0 => GenStmt::AssignInt(rng.gen_range(0..4u8), rng.next_u64() as i64),
        1 => GenStmt::AssignBool(rng.gen_range(0..4u8), rng.gen_bool(0.5)),
        2 => GenStmt::AssignStr(rng.gen_range(0..4u8), gen_string(rng)),
        3 => GenStmt::Add(
            rng.gen_range(0..4u8),
            rng.gen_range(0..4u8),
            rng.gen_range(-100..100i64),
        ),
        4 => GenStmt::Copy(rng.gen_range(0..4u8), rng.gen_range(0..4u8)),
        5 => GenStmt::Nop,
        6 => {
            let nargs = rng.gen_range(0..3usize);
            GenStmt::CallStatic {
                class: rng.gen_range(0..3u8),
                method: rng.gen_range(0..3u8),
                args: (0..nargs).map(|_| rng.gen_range(-5..5i64)).collect(),
                capture: if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0..4u8))
                } else {
                    None
                },
            }
        }
        7 => GenStmt::Diamond {
            cond_local: rng.gen_range(0..4u8),
            then_len: rng.gen_range(1..3u8),
            else_len: rng.gen_range(1..3u8),
        },
        8 => GenStmt::Privileged(rng.gen_range(0..4u8)),
        9 => GenStmt::SecurityCheck(rng.gen_range(0..CHECKS.len() as u8)),
        _ => GenStmt::StoreStaticField {
            class: rng.gen_range(0..3u8),
            field: rng.gen_range(0..3u8),
            src: rng.gen_range(0..4u8),
        },
    }
}

fn gen_method(rng: &mut SmallRng) -> Vec<GenStmt> {
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| gen_stmt(rng)).collect()
}

fn gen_program(rng: &mut SmallRng) -> Vec<Vec<Vec<GenStmt>>> {
    // classes -> methods -> stmts
    let nclasses = rng.gen_range(1..4usize);
    (0..nclasses)
        .map(|_| {
            let nmethods = rng.gen_range(1..3usize);
            (0..nmethods).map(|_| gen_method(rng)).collect()
        })
        .collect()
}

/// Escapes a string literal the way the printer does.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a spec as `.jir` source text. Each class has static int fields
/// `f0..f2` and static methods `m0..`; each method declares int locals
/// `x0..x3`, bool locals `b0..b3`, string locals `s0..s3`, plus one
/// `SecurityManager` local per security check.
fn build(spec: &[Vec<Vec<GenStmt>>]) -> String {
    let mut out = String::new();
    for (ci, methods) in spec.iter().enumerate() {
        writeln!(out, "class gen.C{ci} {{").unwrap();
        for f in 0..3 {
            writeln!(out, "  field static int f{f};").unwrap();
        }
        for (mi, stmts) in methods.iter().enumerate() {
            let mut body = String::new();
            let mut labels = 0;
            let mut sms = 0;
            for s in stmts {
                match s {
                    GenStmt::AssignInt(l, v) => writeln!(body, "    x{l} = {v};").unwrap(),
                    GenStmt::AssignBool(l, v) => writeln!(body, "    b{l} = {v};").unwrap(),
                    GenStmt::AssignStr(l, v) => {
                        writeln!(body, "    s{l} = \"{}\";", escape(v)).unwrap()
                    }
                    GenStmt::Add(d, s2, v) => writeln!(body, "    x{d} = x{s2} + {v};").unwrap(),
                    GenStmt::Copy(d, s2) => writeln!(body, "    x{d} = x{s2};").unwrap(),
                    GenStmt::Nop => body.push_str("    nop;\n"),
                    GenStmt::CallStatic {
                        class,
                        method,
                        args,
                        capture,
                    } => {
                        let argv: Vec<String> = args.iter().map(i64::to_string).collect();
                        let dst = capture.map(|c| format!("x{c} = ")).unwrap_or_default();
                        writeln!(
                            body,
                            "    {dst}staticinvoke gen.C{}.m{method}({});",
                            *class as usize % spec.len(),
                            argv.join(", ")
                        )
                        .unwrap();
                    }
                    GenStmt::Diamond {
                        cond_local,
                        then_len,
                        else_len,
                    } => {
                        let (then_l, join) = (labels, labels + 1);
                        labels += 2;
                        writeln!(body, "    if b{cond_local} goto l{then_l};").unwrap();
                        for _ in 0..*else_len {
                            body.push_str("    x0 = 0;\n");
                        }
                        writeln!(body, "    goto l{join};\n  l{then_l}:").unwrap();
                        for _ in 0..*then_len {
                            body.push_str("    x1 = 1;\n");
                        }
                        writeln!(body, "  l{join}:\n    nop;").unwrap();
                    }
                    GenStmt::Privileged(l) => {
                        writeln!(body, "    enterpriv;\n    x{l} = 7;\n    exitpriv;").unwrap()
                    }
                    GenStmt::SecurityCheck(i) => {
                        let (sm, skip) = (sms, labels);
                        sms += 1;
                        labels += 1;
                        writeln!(
                            body,
                            "    sm{sm} = staticinvoke java.lang.System.getSecurityManager();\n    \
                             if sm{sm} == null goto l{skip};\n    \
                             virtualinvoke sm{sm}.{}(0);\n  l{skip}:\n    nop;",
                            CHECKS[*i as usize]
                        )
                        .unwrap();
                    }
                    GenStmt::StoreStaticField { class, field, src } => writeln!(
                        body,
                        "    gen.C{}.f{field} = x{src};",
                        *class as usize % spec.len()
                    )
                    .unwrap(),
                }
            }
            writeln!(out, "  method public static void m{mi}() {{").unwrap();
            out.push_str("    local int x0, x1, x2, x3;\n");
            out.push_str("    local bool b0, b1, b2, b3;\n");
            out.push_str("    local java.lang.String s0, s1, s2, s3;\n");
            for sm in 0..sms {
                writeln!(out, "    local java.lang.SecurityManager sm{sm};").unwrap();
            }
            out.push_str(&body);
            out.push_str("    return;\n  }\n");
        }
        out.push_str("}\n");
    }
    out
}

const CASES: u64 = 64;

/// Generated source parses, its printed form re-parses, and printing the
/// re-parsed program reproduces the exact same text (print∘parse fixpoint).
#[test]
fn print_parse_print_fixpoint() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seed);
        let spec = gen_program(&mut rng);
        let source = build(&spec);
        let program1 = parse_program(&source).unwrap_or_else(|e| {
            panic!("parse failed (seed {seed}): {e}\n--- source ---\n{source}")
        });
        let text1 = print_program(&program1);
        let program2 = parse_program(&text1).unwrap_or_else(|e| {
            panic!("reparse failed (seed {seed}): {e}\n--- printed ---\n{text1}")
        });
        let text2 = print_program(&program2);
        assert_eq!(
            &text1, &text2,
            "print-parse-print not a fixpoint (seed {seed})"
        );
    }
}

/// Parsed bodies validate and every CFG reaches its exit.
#[test]
fn reparsed_bodies_validate() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xface_0000 + seed);
        let spec = gen_program(&mut rng);
        let text = build(&spec);
        let program = parse_program(&text).unwrap();
        for (_, m) in program.all_methods() {
            if let Some(body) = &m.body {
                assert!(body.validate().is_ok(), "seed {seed}");
                // Every body's CFG must have a reachable exit.
                let cfg = body.cfg();
                assert!(cfg.reverse_post_order().contains(&0), "seed {seed}");
            }
        }
    }
}
