//! Robustness: the lexer and parser must never panic, on any input.
//!
//! Randomized over fixed seeds via the in-tree `spo-rng` PRNG.

use spo_jir::parse_program;
use spo_rng::SmallRng;

/// Random printable-ish unicode strings, including multi-byte code points.
fn arbitrary_string(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0x20..0x7fu32),       // ASCII printable
            1 => rng.gen_range(0..0x20u32),          // control chars
            2 => rng.gen_range(0xa0..0x2500u32),     // BMP letters/symbols
            _ => rng.gen_range(0x1f300..0x1f600u32), // astral (emoji block)
        })
        .filter_map(char::from_u32)
        .collect()
}

/// Arbitrary unicode strings: parsing (which lexes first) returns Ok or
/// Err, never panics.
#[test]
fn parser_total_on_arbitrary_strings() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xab5e_0000 + seed);
        let s = arbitrary_string(&mut rng, 200);
        let _ = parse_program(&s);
    }
}

/// Near-miss inputs: plausible token soup assembled from the grammar's
/// own vocabulary stresses deeper parser paths than pure noise.
#[test]
fn parser_total_on_token_soup() {
    const WORDS: &[&str] = &[
        "class",
        "interface",
        "method",
        "field",
        "local",
        "if",
        "goto",
        "return",
        "throw",
        "new",
        "privileged",
        "public",
        "static",
        "native",
        "virtualinvoke",
        "staticinvoke",
        "int",
        "bool",
        "void",
        "{",
        "}",
        "(",
        ")",
        ";",
        ":",
        ",",
        ".",
        "=",
        "==",
        "x",
        "C",
        "a.b.C",
        "42",
        "null",
        "true",
    ];
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x50f7_0000 + seed);
        let len = rng.gen_range(0..60usize);
        let src: Vec<&str> = (0..len).map(|_| *rng.choose(WORDS).unwrap()).collect();
        let _ = parse_program(&src.join(" "));
    }
}

/// Valid programs with trailing garbage fail cleanly.
#[test]
fn trailing_garbage_is_an_error_not_a_panic() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x7a11_0000 + seed);
        let tail = arbitrary_string(&mut rng, 40);
        let src = format!("class C {{ }} {tail}");
        let _ = parse_program(&src);
    }
}
