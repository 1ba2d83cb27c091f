//! Pins what the `.jir` front end builds and reports: generated corpus
//! text round-trips through parse → print byte for byte, and a table of
//! malformed inputs yields exactly the recorded `Recovery` diagnostics
//! (line, byte column, message and dropped unit), the first of which is
//! the strict parse's error.

use spo_corpus::{CorpusConfig, Lib};
use spo_jir::{parse_into_recovering, parse_program, print_program, Program};

/// Every implementation of the scale-1 corpus for `seed`: its printed
/// `.jir` text parses clean and prints back to the same bytes.
fn assert_corpus_round_trips(seed: u64) {
    let corpus = spo_corpus::generate(&CorpusConfig { seed, scale: 1.0 });
    for lib in Lib::ALL {
        let text = print_program(corpus.program(lib));
        let mut parsed = Program::new();
        let recovery = parse_into_recovering(&text, &mut parsed);
        assert!(
            recovery.is_clean(),
            "seed {seed} {lib}: {:?}",
            recovery.diagnostics
        );
        assert!(
            print_program(&parsed) == text,
            "seed {seed} {lib}: reprinted text differs"
        );
    }
}

#[test]
fn corpus_seed_1_round_trips() {
    assert_corpus_round_trips(1);
}

#[test]
fn corpus_seed_2_round_trips() {
    assert_corpus_round_trips(2);
}

#[test]
fn corpus_seed_3_round_trips() {
    assert_corpus_round_trips(3);
}

/// `(line, col, message, dropped)` of one expected diagnostic.
type Expected = (u32, u32, &'static str, &'static str);

/// Malformed inputs and the diagnostics the recovering parser reports for
/// them, in source order. Columns count bytes, so a multi-byte character
/// earlier on the line shifts everything after it.
const GOLDENS: &[(&str, &str, &[Expected])] = &[
    (
        "unterminated string",
        "class a.C {\n  method void m() {\n    local java.lang.String s;\n    s = \"abc;\n  }\n}\n",
        &[(4, 9, "unterminated string literal", "file")],
    ),
    (
        "string cut by end of input after a backslash",
        "class a.C {\n  method void m() {\n    s = \"ab\\",
        &[(3, 9, "unterminated string literal", "file")],
    ),
    (
        "bad escape",
        "class a.C {\n  method void m() {\n    local java.lang.String s;\n    s = \"a\\qb\";\n  }\n}\n",
        &[(4, 12, "bad escape `\\q`", "file")],
    ),
    (
        "out-of-range integer",
        "class a.C {\n  method void m() {\n    local int x;\n    x = 99999999999999999999;\n  }\n}\n",
        &[(4, 9, "integer `99999999999999999999` out of range", "file")],
    ),
    (
        "unterminated block comment",
        "class a.C { }\n/* trailing\n",
        &[(2, 1, "unterminated block comment", "file")],
    ),
    (
        "unexpected character",
        "class a.C {\n  method void m() {\n    # x;\n  }\n}\n",
        &[(3, 5, "unexpected character `#`", "file")],
    ),
    (
        "bad member",
        "class a.C {\n  bogus int x;\n  method public void ok() {\n    return;\n  }\n}\n",
        &[(2, 3, "expected `field` or `method`, found `bogus`", "member")],
    ),
    (
        "bad field",
        "class a.C {\n  field private ;\n  field int ok;\n}\n",
        &[(2, 17, "expected type, found `;`", "field")],
    ),
    (
        "bad method body",
        "class a.C {\n  method int m() {\n    local int b;\n    b = = 1;\n    return b;\n  }\n}\n",
        &[(4, 9, "expected operand, found `=`", "method")],
    ),
    (
        "undefined label",
        "class a.C {\n  method void m() {\n    goto nowhere;\n  }\n}\n",
        &[(3, 17, "undefined label `nowhere`", "method")],
    ),
    (
        "duplicate local",
        "class a.C {\n  method void m() {\n    local int x, x;\n    return;\n  }\n}\n",
        &[(3, 19, "duplicate local `x`", "method")],
    ),
    (
        "bad class header",
        "class { }\nclass a.Good { }\n",
        &[(1, 7, "expected identifier, found `{`", "class")],
    ),
    (
        "duplicate class",
        "class a.Dup { }\nclass a.Dup { }\nclass a.After { }\n",
        &[(3, 1, "duplicate class `a.Dup`", "class `a.Dup`")],
    ),
    (
        "non-ASCII string literal before a lexical error",
        "class a.C {\n  method void m() {\n    local java.lang.String s;\n    s = \"日本\"; @\n  }\n}\n",
        &[(4, 19, "unexpected character `@`", "file")],
    ),
    (
        "non-ASCII string literal before a parse error",
        "class a.C {\n  method void m() {\n    local java.lang.String s;\n    s = \"é\"; s = nope;\n  }\n}\n",
        &[(4, 23, "unknown operand `nope`", "method")],
    ),
];

#[test]
fn malformed_inputs_report_the_recorded_diagnostics() {
    for (name, src, expected) in GOLDENS {
        let mut program = Program::new();
        let recovery = parse_into_recovering(src, &mut program);
        let got: Vec<(u32, u32, &str, &str)> = recovery
            .diagnostics
            .iter()
            .map(|d| (d.line, d.col, d.message.as_str(), d.dropped.as_str()))
            .collect();
        assert_eq!(&got, expected, "{name}");
        // The strict parse fails with the recovering parse's first
        // diagnostic.
        let strict = parse_program(src).err().map(|e| (e.line, e.col, e.message));
        let first = recovery
            .diagnostics
            .first()
            .map(|d| (d.line, d.col, d.message.clone()));
        assert_eq!(strict, first, "{name}");
    }
}
