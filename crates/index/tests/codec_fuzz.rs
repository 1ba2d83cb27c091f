//! Round-trip and robustness properties of the `spo-index/3` codec.
//!
//! Randomized over fixed seeds via the in-tree `spo-rng` PRNG: arbitrary
//! libraries survive build → parse → reconstruct exactly, and arbitrary
//! edits to a valid file — with the checksum recomputed so they reach the
//! decoder — never panic the reader. Exhaustively: every single-bit flip
//! of a small index fails `parse`, and every unknown intra tag is a typed
//! decode error.

use spo_core::{
    AnalysisOptions, CheckSet, EntryPolicy, EventKey, EventPolicy, LibraryPolicies, Name, Origins,
    SortedMap, ALL_CHECKS,
};
use spo_dataflow::{BitSet32, Dnf};
use spo_index::{IndexBuilder, IndexWriter, PolicyIndex};
use spo_rng::SmallRng;
use std::sync::Arc;

/// An arbitrary check set, empty about one time in six.
fn any_checkset(rng: &mut SmallRng) -> CheckSet {
    let n = rng.gen_range(0..6usize);
    (0..n)
        .map(|_| ALL_CHECKS[rng.gen_range(0..31usize)])
        .collect()
}

fn lower_ident(rng: &mut SmallRng) -> String {
    const FIRST: &[char] = &['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'w', 'z'];
    const REST: &[char] = &[
        'a', 'b', 'c', 'd', 'e', 'x', 'y', 'z', '0', '1', '2', '9', '_',
    ];
    let mut s = String::new();
    s.push(*rng.choose(FIRST).unwrap());
    let extra = rng.gen_range(0..11usize);
    for _ in 0..extra {
        s.push(*rng.choose(REST).unwrap());
    }
    s
}

fn any_event(rng: &mut SmallRng) -> EventKey {
    match rng.gen_range(0..4u32) {
        0 => EventKey::ApiReturn,
        1 => EventKey::Native(lower_ident(rng).into()),
        2 => EventKey::DataRead(lower_ident(rng).into()),
        _ => EventKey::DataWrite(lower_ident(rng).into()),
    }
}

/// An event policy whose path view is ⊥ (no paths) one time in four.
fn any_policy(rng: &mut SmallRng) -> EventPolicy {
    let extra_must = any_checkset(rng);
    let npaths = rng.gen_range(0..4usize);
    let paths: Vec<CheckSet> = (0..npaths).map(|_| any_checkset(rng)).collect();
    let may_paths: Dnf = paths.iter().map(|c| c.bits()).collect();
    let flat = CheckSet::from_bits(may_paths.flat_union());
    // must ⊆ may to mirror real analysis output.
    let must = extra_must
        .intersect(flat)
        .intersect(CheckSet::from_bits(may_paths.must_view()));
    EventPolicy {
        must,
        may: flat,
        may_paths,
    }
}

fn signature(rng: &mut SmallRng) -> String {
    const FIRST: &[char] = &['A', 'B', 'C', 'a', 'b', 'z'];
    const REST: &[char] = &['A', 'b', 'C', 'd', '0', '7', '.', 'x'];
    let mut s = String::new();
    s.push(*rng.choose(FIRST).unwrap());
    let extra = rng.gen_range(0..17usize);
    for _ in 0..extra {
        s.push(*rng.choose(REST).unwrap());
    }
    s.push_str("()");
    s
}

/// One entry's policy: random events, plus event and check origins.
fn any_entry(rng: &mut SmallRng, sig: &str) -> EntryPolicy {
    let mut e = EntryPolicy::new(sig.to_owned());
    for _ in 0..rng.gen_range(0..4usize) {
        e.events.insert(any_event(rng), any_policy(rng));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let origin = format!("{sig}#{}", lower_ident(rng));
        add_origin(&mut e.event_origins, any_event(rng), origin);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let check = ALL_CHECKS[rng.gen_range(0..31usize)];
        add_origin(
            &mut e.check_origins,
            check.index(),
            format!("{sig}#{check}"),
        );
    }
    e
}

/// Adds one origin name under `key`.
fn add_origin<K: Ord>(map: &mut SortedMap<K, Origins>, key: K, origin: String) {
    let mut names: Vec<Name> = map
        .get(&key)
        .map(|o| o.iter().cloned().collect())
        .unwrap_or_default();
    names.push(origin.into());
    map.insert(key, names.into());
}

/// A full analysis and its intraprocedural ablation over one random
/// entry-point set, as `IndexBuilder` takes them. About half the intra
/// policies are an equal copy of the full one (intra tag 0), the rest
/// their own random policy (intra tag 1).
fn any_libraries(rng: &mut SmallRng) -> (LibraryPolicies, LibraryPolicies) {
    let library = || LibraryPolicies {
        name: "fuzz".into(),
        ..Default::default()
    };
    let (mut full, mut intra) = (library(), library());
    for _ in 0..rng.gen_range(0..6usize) {
        let sig = signature(rng);
        let entry = any_entry(rng, &sig);
        let ablated = if rng.gen_bool(0.5) {
            entry.clone()
        } else {
            any_entry(rng, &sig)
        };
        full.entries.insert(sig.clone(), entry.into());
        intra.entries.insert(sig.clone(), ablated.into());
    }
    full.stats.entry_points = full.entries.len();
    intra.stats.entry_points = intra.entries.len();
    (full, intra)
}

fn build(full: &LibraryPolicies, intra: &LibraryPolicies) -> Vec<u8> {
    IndexBuilder::new("fuzz", &AnalysisOptions::default(), full, intra)
        .build()
        .unwrap()
}

/// What the generated libraries exercised, so the round trip is known to
/// cover every event kind, both the ⊥ path view and the distinct single
/// empty path `{∅}`, empty check sets and origins.
#[derive(Default)]
struct Coverage {
    kinds: [bool; 4],
    bottom: bool,
    empty_path: bool,
    empty_set: bool,
    event_origins: bool,
    check_origins: bool,
}

impl Coverage {
    fn record(&mut self, lib: &LibraryPolicies) {
        for entry in lib.entries.values() {
            for (key, policy) in &entry.events {
                let kind = match key {
                    EventKey::ApiReturn => 0,
                    EventKey::Native(_) => 1,
                    EventKey::DataRead(_) => 2,
                    EventKey::DataWrite(_) => 3,
                };
                self.kinds[kind] = true;
                self.bottom |= policy.may_paths.disjuncts().is_empty();
                self.empty_path |= policy.may_paths.disjuncts() == [BitSet32::empty()];
                self.empty_set |= policy.may.is_empty();
            }
            self.event_origins |= !entry.event_origins.is_empty();
            self.check_origins |= !entry.check_origins.is_empty();
        }
    }
}

/// Arbitrary libraries round-trip exactly, full and intra, through both
/// intra tags; an intra policy equal to its full one decodes as the same
/// allocation.
#[test]
fn roundtrip_arbitrary_policies() {
    let mut seen = Coverage::default();
    let (mut same, mut own) = (0, 0);
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xf022_0000 + seed);
        let (full, intra) = any_libraries(&mut rng);
        seen.record(&full);
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        let (back_full, back_intra) = index.to_libraries().unwrap();
        assert_eq!(back_full.entries, full.entries, "seed {seed}");
        assert_eq!(back_intra.entries, intra.entries, "seed {seed}");
        for (sig, f) in &back_full.entries {
            let i = &back_intra.entries[sig];
            assert_eq!(Arc::ptr_eq(f, i), f == i, "seed {seed} {sig}");
            if f == i {
                same += 1;
            } else {
                own += 1;
            }
        }
        assert_eq!(
            index.render_full().unwrap(),
            spo_core::render_analysis(&full)
        );
    }
    assert!(same > 20 && own > 20, "intra tags: {same} equal, {own} own");
    assert_eq!(seen.kinds, [true; 4], "every event kind generated");
    assert!(
        seen.bottom && seen.empty_path && seen.empty_set,
        "⊥, {{∅}} and empty sets generated"
    );
    assert!(
        seen.event_origins && seen.check_origins,
        "origins generated"
    );
}

/// Replaces the trailing checksum with the one `body` needs, so an edit
/// gets past the checksum into the decoder.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = spo_index::checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// One random edit to an unsealed index body: flips, overwrites with
/// boundary integers (counts, offsets and ids are u32/u64 fields),
/// insertions, deletions and truncation. Edits land past the version
/// header, which any change to would stop the parse at its first line.
fn mutate(rng: &mut SmallRng, body: &mut Vec<u8>, header: usize) {
    if body.len() <= header {
        return;
    }
    let pos = rng.gen_range(header..body.len());
    match rng.gen_range(0..6u32) {
        0 => body[pos] ^= 1 << rng.gen_range(0..8u32),
        1 => body[pos] = rng.gen_range(0..256u32) as u8,
        2 => {
            const EDGES: [u32; 6] = [0, 1, 2, 0x7f, 0xffff, u32::MAX];
            let value = EDGES[rng.gen_range(0..EDGES.len())].to_le_bytes();
            for (i, b) in value.iter().enumerate() {
                if let Some(slot) = body.get_mut(pos + i) {
                    *slot = *b;
                }
            }
        }
        3 => {
            for _ in 0..rng.gen_range(1..9usize) {
                body.insert(pos, rng.gen_range(0..256u32) as u8);
            }
        }
        4 => {
            let end = (pos + rng.gen_range(1..9usize)).min(body.len());
            body.drain(pos..end);
        }
        _ => body.truncate(pos),
    }
}

/// Every reader entry point over one (possibly damaged) file, returning
/// whether it parsed. Errors are the expected outcome of most edits; only
/// a panic fails the test.
fn read_everything(bytes: &[u8]) -> bool {
    let Ok(index) = PolicyIndex::parse(bytes) else {
        return false;
    };
    let _ = index.to_libraries();
    let _ = index.render_full();
    for rec in index.records() {
        let _ = index.decode(rec);
        let _ = index.decode_full(rec);
        if let Ok(sig) = index.signature_of(rec) {
            let _ = index.query(sig);
        }
    }
    let _ = index.query("a.B.c()");
    if let Ok(writer) = IndexWriter::extending(&index, |key| key % 2 == 0) {
        let _ = writer.finish("fuzz", index.options_token(), [0, 0]);
    }
    true
}

/// Random edits with a recomputed checksum never panic `parse`, `decode`,
/// `decode_full`, `to_libraries`, `render_full`, `query` or
/// `IndexWriter::extending`.
#[test]
fn resealed_edits_never_panic_the_reader() {
    let (mut edits, mut parsed) = (0, 0);
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x5b1d_0000 + seed);
        let (full, intra) = any_libraries(&mut rng);
        let clean = build(&full, &intra);
        let header = clean.iter().position(|&b| b == b'\n').unwrap() + 1;
        let body = &clean[..clean.len() - 8];
        for _ in 0..400 {
            let mut damaged = body.to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                mutate(&mut rng, &mut damaged, header);
            }
            edits += 1;
            parsed += usize::from(read_everything(&reseal(damaged)));
        }
    }
    // A share of the edits must get past `parse`, or the decoder paths
    // went untested.
    assert!(
        parsed * 20 > edits,
        "{parsed} of {edits} edited files parsed"
    );
}

/// Every single-bit flip anywhere in a small index — header, tables, rows,
/// blobs, checksum — fails `parse`. Library names of 1 to 8 bytes put the
/// body length at every residue mod 8, so the checksum's byte-wise tail
/// is flipped too, not only its 8-byte words.
#[test]
fn every_single_bit_flip_fails_parse() {
    let mut rng = SmallRng::seed_from_u64(0xb17f_11b5);
    let (mut full, mut intra) = any_libraries(&mut rng);
    while full.entries.len() < 2 {
        (full, intra) = any_libraries(&mut rng);
    }
    let mut residues = [false; 8];
    for name_len in 1..=8 {
        let name = "f".repeat(name_len);
        let clean = IndexBuilder::new(&name, &AnalysisOptions::default(), &full, &intra)
            .build()
            .unwrap();
        assert!(PolicyIndex::parse(&clean).is_ok());
        residues[(clean.len() - 8) % 8] = true;
        let mut bytes = clean.clone();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                bytes[pos] ^= 1 << bit;
                assert!(
                    PolicyIndex::parse(&bytes).is_err(),
                    "flip of bit {bit} at byte {pos} of {} parsed",
                    bytes.len()
                );
                bytes[pos] ^= 1 << bit;
            }
        }
    }
    assert_eq!(residues, [true; 8], "body length at every residue mod 8");
}

/// An intra tag other than 0 or 1 is a typed decode error for `decode`
/// and `to_libraries`; `query`, which reads only the full policy, still
/// answers.
#[test]
fn unknown_intra_tags_are_typed_errors() {
    let sig = "a.B.c()";
    let entry = EntryPolicy::new(sig.to_owned());
    let mut full = LibraryPolicies::default();
    full.entries.insert(sig.to_owned(), Arc::new(entry));
    full.stats.entry_points = 1;
    let clean = build(&full, &full);
    // One record whose intra equals its full policy: the blob, and so the
    // body, ends in the tag.
    let body = &clean[..clean.len() - 8];
    assert_eq!(body.last(), Some(&0));
    for tag in 2..=255u8 {
        let mut damaged = body.to_vec();
        *damaged.last_mut().unwrap() = tag;
        let bytes = reseal(damaged);
        let index = PolicyIndex::parse(&bytes).unwrap();
        let want = format!("bad intra tag {tag}");
        let rec = index.records().next().unwrap();
        assert_eq!(index.decode(rec).unwrap_err(), want);
        assert_eq!(index.to_libraries().unwrap_err(), want);
        assert_eq!(index.query(sig).unwrap(), Some(String::new()));
    }
}
