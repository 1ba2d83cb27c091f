//! # spo-index — the one durable policy format
//!
//! Compiles finished per-entry policies into one small, versioned,
//! checksummed file (`spo-index/3`) so "what checks guard entry point
//! X?" and "where do two implementations disagree?" become index reads
//! instead of re-deriving [`LibraryPolicies`] from source. Two holders
//! share the format: an **exported index** (`policies.spi`,
//! [`IndexBuilder`]) carries a library's full policies and its
//! intraprocedural ablation; the **summary cache** (`spo-cache`) keeps
//! one file per library and options token, whose entries carry their
//! dependency cone.
//!
//! ## Layout (`spo-index/3`, all integers little-endian)
//!
//! ```text
//! "spo-index 3\n"                       text version header
//! str   library name                    (str = u32 length + UTF-8 bytes)
//! str   options token                   (see options_token)
//! u8    intra flag                      1: every blob holds an intra tag
//! u64   entry-point stat (full)         feeds render_analysis's footer
//! u64   entry-point stat (intra)
//! u32 S; S × str                        string table (interned)
//! u32 C; C × check set                  u32 must, u32 may, u32 D, D × u32
//! u64 N; N × 24-byte row                sorted by root key: u64 root_key |
//!                                        u32 off | u32 len | u64 cone key
//! u64 B; B bytes                        blob region (off/len index into it)
//! u64   checksum of everything above    word-wise FNV-1a (see checksum)
//! ```
//!
//! A blob is the interned signature id, the cone identity list (u32
//! count, one u64 [method identity hash](spo_jir::method_identity_hash)
//! each; exports write 0), the full policy and, under the intra flag, a
//! u8 intra tag: 0 when the intraprocedural policy equals the full one
//! (nothing follows), 1 when the intraprocedural policy follows. Most
//! entries' ablation equals their full policy, so most exported blobs end
//! in tag 0 and a decode shares one policy between the two maps. A policy
//! is its events (u8 tag + interned name id, u32 check-set id), event
//! origins and check origins (interned string ids).
//! Tables only grow: [`IndexWriter::extending`] seeds its interners from
//! an existing file, so old ids stay valid and kept blobs are copied
//! verbatim — a cache flush encodes only the entries it re-stored.
//!
//! ## Query model and corruption discipline
//!
//! [`PolicyIndex::parse`] validates the checksum and decodes only the two
//! shared tables; rows and blobs stay borrowed (a long-lived holder takes
//! [`PolicyIndex::into_owned`]). [`PolicyIndex::find`] locates a row by
//! `root_key(signature)` without allocating, [`PolicyIndex::decode_full`]
//! materializes one entry's full policy (all a query needs) and
//! [`PolicyIndex::decode`] both of its policies; output funnels through
//! [`spo_core::render_entry`] / [`spo_core::render_analysis`], so it is
//! byte-identical to the analysis path. Bounded, counted reads
//! ([`codec::Cursor`]) turn a truncated, bit-flipped, or version-bumped
//! file into a typed parse error, never a wrong answer or a panic, and
//! [`write_index_file`] (temp file, fsync, atomic rename) never damages
//! the previous file.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spo_chaos::FaultPlan;
use spo_core::{
    render_analysis, render_entry, AnalysisOptions, AnalysisStats, EntryPolicy, EventKey,
    EventPolicy, LibraryPolicies, Name, Origins, SortedMap,
};
use spo_dataflow::{BitSet32, Dnf};
use spo_jir::Fnv64;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

pub mod codec;

use codec::Cursor;

/// The on-disk format version; bumped whenever the layout or the policy
/// semantics it captures change. Old files then read as version
/// mismatches and consumers fall back to full analysis.
pub const FORMAT_VERSION: u32 = 3;

/// Conventional file name for an exported index.
pub const INDEX_FILE: &str = "policies.spi";

/// Fixed-width offset-table row size in bytes: u64 root key, u32 blob
/// offset, u32 blob length, u64 cone key.
pub const ROW_BYTES: usize = 24;

/// Renders the result-affecting analysis options into a stable token. The
/// memo scope is excluded: results are memo-invariant. Every file records
/// the token it was built under, and the summary cache keys by it.
pub fn options_token(options: &AnalysisOptions) -> String {
    format!(
        "icp={} events={:?} interprocedural={}",
        options.icp, options.events, options.interprocedural
    )
}

/// The root key an entry point's signature sorts and is found under: its
/// seedless FNV-64 hash.
pub fn root_key(signature: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(signature.as_bytes());
    h.finish()
}

fn header_line() -> String {
    format!("spo-index {FORMAT_VERSION}\n")
}

/// The whole-file checksum: FNV-1a absorbing one 8-byte little-endian
/// word per step (XOR the word in, multiply by the FNV prime), then the
/// last `len % 8` bytes one at a time. Each step is a bijection of the
/// state for a given input and an injection of the input for a given
/// state, so any single-bit flip changes the sum. Eight times fewer
/// dependent multiplies than the byte-wise [`Fnv64`] the cache keys use.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The intra tag of an exported blob whose intraprocedural policy equals
/// its full policy: nothing follows it.
const INTRA_SAME: u8 = 0;
/// The intra tag of an exported blob whose intraprocedural policy follows.
const INTRA_OWN: u8 = 1;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Interns values of one kind, assigning dense u32 ids in first-use order
/// (deterministic: writers add entries in a fixed order).
struct Interner<T: std::hash::Hash + Eq + Clone> {
    ids: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: std::hash::Hash + Eq + Clone> Interner<T> {
    /// An interner whose ids `0..items.len()` are `items` in order.
    fn seeded(items: Vec<T>) -> Self {
        let mut ids = HashMap::with_capacity(items.len());
        for (id, item) in items.iter().enumerate() {
            ids.entry(item.clone()).or_insert(id as u32);
        }
        Interner { ids, items }
    }

    fn intern(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.ids.get(item) {
            return id;
        }
        let id = self.items.len() as u32;
        self.ids.insert(item.clone(), id);
        self.items.push(item.clone());
        id
    }
}

/// A check set's table encoding: must bits, may bits, disjunct bits.
type SetBits = (u32, u32, Vec<u32>);

fn set_bits(policy: &EventPolicy) -> SetBits {
    (
        policy.must.bits().bits(),
        policy.may.bits().bits(),
        policy
            .may_paths
            .disjuncts()
            .iter()
            .map(|d| d.bits())
            .collect(),
    )
}

/// Assembles `spo-index/3` bytes from entries: encodes new entries
/// against interned string and check-set tables, and copies entries of an
/// existing file verbatim.
pub struct IndexWriter<'s> {
    strings: Interner<&'s str>,
    sets: Interner<SetBits>,
    // (root key, blob, cone key) per entry; sorted at finish.
    rows: Vec<(u64, Cow<'s, [u8]>, u64)>,
    intra: bool,
}

impl<'s> IndexWriter<'s> {
    /// An empty writer. `intra` sets whether every entry carries an
    /// intraprocedural policy.
    pub fn new(intra: bool) -> Self {
        IndexWriter {
            strings: Interner::seeded(Vec::new()),
            sets: Interner::seeded(Vec::new()),
            rows: Vec::new(),
            intra,
        }
    }

    /// A writer that extends `base`: its tables seed the interners (so
    /// every id a `base` blob holds keeps its meaning), and each `base`
    /// entry whose root key `keep` accepts is copied verbatim.
    ///
    /// # Errors
    ///
    /// Fails if a kept record's blob lies outside `base`'s blob region.
    pub fn extending(
        base: &'s PolicyIndex<'_>,
        keep: impl Fn(u64) -> bool,
    ) -> Result<Self, String> {
        let mut writer = IndexWriter {
            strings: Interner::seeded(base.strings.iter().map(|s| s.as_ref()).collect()),
            sets: Interner::seeded(base.sets.iter().map(set_bits).collect()),
            rows: Vec::with_capacity(base.len()),
            intra: base.intra,
        };
        for rec in base.records().filter(|r| keep(r.root_key)) {
            let blob = base.blob_of(rec)?;
            writer
                .rows
                .push((rec.root_key, Cow::Borrowed(blob), rec.cone_key));
        }
        Ok(writer)
    }

    /// Encodes one entry: its signature, cone key and cone identity list
    /// (empty for exports), and its policies. `intra` must be present
    /// exactly when the writer carries intraprocedural policies; one equal
    /// to `full` is stored as a bare intra tag 0.
    pub fn entry(
        &mut self,
        signature: &'s str,
        cone_key: u64,
        cone: &[u64],
        full: &'s EntryPolicy,
        intra: Option<&'s EntryPolicy>,
    ) {
        // The header's intra flag tells readers how many policies a blob
        // holds; a mismatch would write a file that fails to decode.
        assert_eq!(intra.is_some(), self.intra, "intra policy presence");
        let mut blob = Vec::with_capacity(64 + 8 * cone.len());
        codec::put_u32(&mut blob, self.strings.intern(&signature));
        codec::put_u32(&mut blob, cone.len() as u32);
        for &identity in cone {
            codec::put_u64(&mut blob, identity);
        }
        self.encode_policy(&mut blob, full);
        match intra {
            None => {}
            Some(intra) if intra == full => blob.push(INTRA_SAME),
            Some(intra) => {
                blob.push(INTRA_OWN);
                self.encode_policy(&mut blob, intra);
            }
        }
        self.rows
            .push((root_key(signature), Cow::Owned(blob), cone_key));
    }

    fn put_event_key(&mut self, buf: &mut Vec<u8>, key: &'s EventKey) {
        let (tag, name) = match key {
            EventKey::ApiReturn => return buf.push(0),
            EventKey::Native(name) => (1, name),
            EventKey::DataRead(name) => (2, name),
            EventKey::DataWrite(name) => (3, name),
        };
        buf.push(tag);
        codec::put_u32(buf, self.strings.intern(&&**name));
    }

    fn encode_policy(&mut self, buf: &mut Vec<u8>, entry: &'s EntryPolicy) {
        codec::put_u32(buf, entry.events.len() as u32);
        for (event, policy) in &entry.events {
            self.put_event_key(buf, event);
            codec::put_u32(buf, self.sets.intern(&set_bits(policy)));
        }
        codec::put_u32(buf, entry.event_origins.len() as u32);
        for (event, origins) in &entry.event_origins {
            self.put_event_key(buf, event);
            codec::put_u32(buf, origins.len() as u32);
            for origin in origins {
                codec::put_u32(buf, self.strings.intern(&&**origin));
            }
        }
        codec::put_u32(buf, entry.check_origins.len() as u32);
        for (&check, origins) in &entry.check_origins {
            buf.push(check);
            codec::put_u32(buf, origins.len() as u32);
            for origin in origins {
                codec::put_u32(buf, self.strings.intern(&&**origin));
            }
        }
    }

    /// Seals the file: header, tables, offset table sorted by root key,
    /// blob region, checksum.
    ///
    /// # Errors
    ///
    /// Fails on a root-key collision between two entries or when the
    /// blob region outgrows the u32 offset space.
    pub fn finish(
        mut self,
        library: &str,
        options_token: &str,
        entry_points: [u64; 2],
    ) -> Result<Vec<u8>, String> {
        self.rows.sort_unstable_by_key(|r| r.0);
        if self.rows.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err("root-key collision between entry-point signatures".to_owned());
        }
        let blob_total: usize = self.rows.iter().map(|r| r.1.len()).sum();
        if blob_total > u32::MAX as usize {
            return Err("blob region exceeds the u32 offset space".to_owned());
        }

        let mut out = Vec::with_capacity(4096 + blob_total + self.rows.len() * ROW_BYTES);
        out.extend_from_slice(header_line().as_bytes());
        codec::put_str(&mut out, library);
        codec::put_str(&mut out, options_token);
        out.push(u8::from(self.intra));
        codec::put_u64(&mut out, entry_points[0]);
        codec::put_u64(&mut out, entry_points[1]);

        codec::put_u32(&mut out, self.strings.items.len() as u32);
        for s in &self.strings.items {
            codec::put_str(&mut out, s);
        }
        codec::put_u32(&mut out, self.sets.items.len() as u32);
        for (must, may, disjuncts) in &self.sets.items {
            codec::put_u32(&mut out, *must);
            codec::put_u32(&mut out, *may);
            codec::put_u32(&mut out, disjuncts.len() as u32);
            for &d in disjuncts {
                codec::put_u32(&mut out, d);
            }
        }

        codec::put_u64(&mut out, self.rows.len() as u64);
        let mut off = 0u32;
        for (key, blob, cone_key) in &self.rows {
            codec::put_u64(&mut out, *key);
            codec::put_u32(&mut out, off);
            codec::put_u32(&mut out, blob.len() as u32);
            codec::put_u64(&mut out, *cone_key);
            off += blob.len() as u32;
        }
        codec::put_u64(&mut out, blob_total as u64);
        for (_, blob, _) in &self.rows {
            out.extend_from_slice(blob);
        }

        let sum = checksum(&out);
        codec::put_u64(&mut out, sum);
        Ok(out)
    }
}

/// Compiles a library's full and intraprocedural policies into an
/// exported `spo-index/3` file.
pub struct IndexBuilder<'a> {
    name: &'a str,
    options: &'a AnalysisOptions,
    full: &'a LibraryPolicies,
    intra: &'a LibraryPolicies,
    fingerprints: Option<&'a BTreeMap<String, u64>>,
}

impl<'a> IndexBuilder<'a> {
    /// Starts a builder over one library's full analysis and its
    /// intraprocedural ablation (both from the same program and options —
    /// the ablation is what root-cause classification diffs against).
    pub fn new(
        name: &'a str,
        options: &'a AnalysisOptions,
        full: &'a LibraryPolicies,
        intra: &'a LibraryPolicies,
    ) -> Self {
        IndexBuilder {
            name,
            options,
            full,
            intra,
            fingerprints: None,
        }
    }

    /// Attaches per-signature cone keys (from the cache's `CacheKeyer`),
    /// stored in each row's cone-key slot; entries without one store 0.
    /// Advisory metadata: consumers use it to cross-check freshness
    /// against a cache, never for correctness.
    pub fn fingerprints(mut self, map: &'a BTreeMap<String, u64>) -> Self {
        self.fingerprints = Some(map);
        self
    }

    /// Builds the sealed index bytes.
    ///
    /// # Errors
    ///
    /// Fails if either analysis has degraded roots (a quarantined root has
    /// *no* stored policy, so compiling it would bake an unsound answer
    /// into a file that outlives the incident), if the two analyses
    /// disagree on the entry-point set, or on a root-key collision.
    pub fn build(&self) -> Result<Vec<u8>, String> {
        if !self.full.degraded.is_empty() || !self.intra.degraded.is_empty() {
            return Err(format!(
                "degraded analysis cannot be compiled into an index ({} quarantined root(s))",
                self.full.degraded.len().max(self.intra.degraded.len())
            ));
        }
        if self.full.entries.len() != self.intra.entries.len()
            || !self
                .full
                .entries
                .keys()
                .zip(self.intra.entries.keys())
                .all(|(a, b)| a == b)
        {
            return Err("full and intra analyses disagree on the entry-point set".to_owned());
        }
        let mut writer = IndexWriter::new(true);
        for ((sig, full), intra) in self.full.entries.iter().zip(self.intra.entries.values()) {
            let cone_key = self
                .fingerprints
                .and_then(|m| m.get(sig).copied())
                .unwrap_or(0);
            writer.entry(sig, cone_key, &[], full, Some(&**intra));
        }
        writer.finish(
            self.name,
            &options_token(self.options),
            [
                self.full.stats.entry_points as u64,
                self.intra.stats.entry_points as u64,
            ],
        )
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One offset-table row, decoded from its fixed-width record without
/// touching the blob region.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// FNV-64 of the entry's signature ([`root_key`]).
    pub root_key: u64,
    /// The key of the entry's dependency cone — what the summary cache
    /// validates a stored entry against — or 0 if none was attached.
    pub cone_key: u64,
    off: u32,
    len: u32,
}

/// Accessor over a parsed `spo-index/3` file.
///
/// Parsing decodes only the header and the two shared tables; the offset
/// table and blob region stay borrowed from the input (zero-copy), until
/// [`Self::into_owned`] detaches them for a long-lived holder.
/// [`Self::find`] is allocation-free; [`Self::decode`] allocates only the
/// returned policies.
#[derive(Debug)]
pub struct PolicyIndex<'a> {
    library: Cow<'a, str>,
    options_token: Cow<'a, str>,
    intra: bool,
    entry_points_full: u64,
    entry_points_intra: u64,
    strings: Vec<Cow<'a, str>>,
    // Each string as a shared name, made on first use by a decode; the
    // table itself is allocated by the first decode, not by `parse`.
    names: OnceLock<Box<[OnceLock<Name>]>>,
    sets: Vec<EventPolicy>,
    rows: Cow<'a, [u8]>,
    count: usize,
    // Row ranges by the top `dir_bits` bits of the root key: bucket `b`
    // holds rows `dir[b]..dir[b + 1]`, about one row each.
    dir: Vec<u32>,
    dir_bits: u32,
    blobs: Cow<'a, [u8]>,
}

/// The directory bucket of `key` under `bits` bits.
fn bucket(key: u64, bits: u32) -> usize {
    key.checked_shr(64 - bits).unwrap_or(0) as usize
}

impl<'a> PolicyIndex<'a> {
    /// Parses and validates index bytes (header, whole-file checksum,
    /// table framing, offset-table sort order).
    ///
    /// # Errors
    ///
    /// Names what was wrong — version mismatch, checksum mismatch,
    /// truncation — for the caller's fall-back diagnostic.
    pub fn parse(bytes: &'a [u8]) -> Result<PolicyIndex<'a>, String> {
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing index version header")?;
        let header = std::str::from_utf8(&bytes[..header_end])
            .map_err(|_| "missing index version header".to_owned())?;
        match header.strip_prefix("spo-index ") {
            Some(v) if v == FORMAT_VERSION.to_string() => {}
            Some(v) => return Err(format!("index format version {v} != {FORMAT_VERSION}")),
            None => return Err("missing index version header".to_owned()),
        }
        if bytes.len() < header_end + 9 {
            return Err("truncated index (no checksum)".to_owned());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().map_err(|_| "truncated index")?);
        if checksum(body) != want {
            return Err("index checksum mismatch (corrupt index)".to_owned());
        }

        let mut c = Cursor::at(body, header_end + 1);
        let library = c.str_ref()?;
        let options_token = c.str_ref()?;
        let intra = match c.u8()? {
            0 => false,
            1 => true,
            f => return Err(format!("bad intra flag {f}")),
        };
        let entry_points_full = c.u64()?;
        let entry_points_intra = c.u64()?;

        let n_strings = c.counted(4)?;
        let mut strings = Vec::with_capacity(n_strings as usize);
        for _ in 0..n_strings {
            strings.push(Cow::Borrowed(c.str_ref()?));
        }
        let n_sets = c.counted(12)?;
        let mut sets = Vec::with_capacity(n_sets as usize);
        for _ in 0..n_sets {
            let must = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
            let may = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
            let n_disjuncts = c.counted(4)?;
            let may_paths: Dnf = (0..n_disjuncts)
                .map(|_| c.u32().map(BitSet32::from_bits))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .collect();
            sets.push(EventPolicy {
                must,
                may,
                may_paths,
            });
        }

        let count = c.counted64(ROW_BYTES)? as usize;
        let rows = c.take(count * ROW_BYTES)?;
        let blob_len = c.counted64(1)? as usize;
        let blobs = c.take(blob_len)?;
        if c.pos() != body.len() {
            return Err("trailing bytes after index blob region".to_owned());
        }

        let mut index = PolicyIndex {
            library: Cow::Borrowed(library),
            options_token: Cow::Borrowed(options_token),
            intra,
            entry_points_full,
            entry_points_intra,
            strings,
            names: OnceLock::new(),
            sets,
            rows: Cow::Borrowed(rows),
            count,
            dir: Vec::new(),
            dir_bits: count.next_power_of_two().trailing_zeros(),
            blobs: Cow::Borrowed(blobs),
        };
        // Sorted, duplicate-free keys are what make `find` sound;
        // in-bounds blobs are what let a writer copy any record verbatim.
        let mut dir = Vec::with_capacity((1 << index.dir_bits) + 1);
        for i in 0..index.count {
            let rec = index.row(i);
            index.blob_of(rec)?;
            if i > 0 && index.row(i - 1).root_key >= rec.root_key {
                return Err("index offset table is not sorted by root key".to_owned());
            }
            dir.resize(bucket(rec.root_key, index.dir_bits) + 1, i as u32);
        }
        dir.resize((1 << index.dir_bits) + 1, count as u32);
        index.dir = dir;
        Ok(index)
    }

    /// Detaches the index from the bytes it was parsed from.
    pub fn into_owned(self) -> PolicyIndex<'static> {
        PolicyIndex {
            library: Cow::Owned(self.library.into_owned()),
            options_token: Cow::Owned(self.options_token.into_owned()),
            intra: self.intra,
            entry_points_full: self.entry_points_full,
            entry_points_intra: self.entry_points_intra,
            strings: self
                .strings
                .into_iter()
                .map(|s| Cow::Owned(s.into_owned()))
                .collect(),
            names: self.names,
            sets: self.sets,
            rows: Cow::Owned(self.rows.into_owned()),
            count: self.count,
            dir: self.dir,
            dir_bits: self.dir_bits,
            blobs: Cow::Owned(self.blobs.into_owned()),
        }
    }

    /// The library name the index was compiled from.
    pub fn library(&self) -> &str {
        &self.library
    }

    /// The options token the index was compiled under. Consumers must
    /// match it against their requested options before serving answers
    /// from the index.
    pub fn options_token(&self) -> &str {
        &self.options_token
    }

    /// Whether every entry carries an intraprocedural policy (exports do;
    /// summary-cache files do not).
    pub fn has_intra(&self) -> bool {
        self.intra
    }

    /// Number of indexed entry points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if the index holds no entry points.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn row(&self, i: usize) -> Record {
        let r = &self.rows[i * ROW_BYTES..(i + 1) * ROW_BYTES];
        let u32_at = |o: usize| u32::from_le_bytes([r[o], r[o + 1], r[o + 2], r[o + 3]]);
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&r[o..o + 8]);
            u64::from_le_bytes(b)
        };
        Record {
            root_key: u64_at(0),
            off: u32_at(8),
            len: u32_at(12),
            cone_key: u64_at(16),
        }
    }

    /// Finds a record by root key: one directory bucket, then a scan of
    /// its (about one) rows. Allocation-free.
    pub fn find(&self, key: u64) -> Option<Record> {
        let b = bucket(key, self.dir_bits);
        (self.dir[b] as usize..self.dir[b + 1] as usize)
            .map(|i| self.row(i))
            .find(|rec| rec.root_key == key)
    }

    /// Iterates every record in root-key order.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.count).map(|i| self.row(i))
    }

    fn blob_of(&self, rec: Record) -> Result<&[u8], String> {
        let start = rec.off as usize;
        let end = start
            .checked_add(rec.len as usize)
            .filter(|&e| e <= self.blobs.len())
            .ok_or("entry blob out of bounds")?;
        Ok(&self.blobs[start..end])
    }

    fn string(&self, id: u32) -> Result<&str, String> {
        self.strings
            .get(id as usize)
            .map(|s| s.as_ref())
            .ok_or_else(|| format!("string id {id} out of range"))
    }

    /// The string `id` as a shared name: built at most once per index,
    /// then cloned by reference count.
    fn name(&self, id: u32) -> Result<Name, String> {
        let names = self
            .names
            .get_or_init(|| self.strings.iter().map(|_| OnceLock::new()).collect());
        let slot = names
            .get(id as usize)
            .ok_or_else(|| format!("string id {id} out of range"))?;
        Ok(Name::clone(
            slot.get_or_init(|| Name::from(&*self.strings[id as usize])),
        ))
    }

    fn event_key(&self, c: &mut Cursor<'_>) -> Result<EventKey, String> {
        match c.u8()? {
            0 => Ok(EventKey::ApiReturn),
            1 => Ok(EventKey::Native(self.name(c.u32()?)?)),
            2 => Ok(EventKey::DataRead(self.name(c.u32()?)?)),
            3 => Ok(EventKey::DataWrite(self.name(c.u32()?)?)),
            t => Err(format!("unknown event tag {t}")),
        }
    }

    fn origins(&self, c: &mut Cursor<'_>) -> Result<Origins, String> {
        let n = c.counted(4)? as usize;
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(self.name(c.u32()?)?);
        }
        Ok(Origins::from(names))
    }

    /// The signature a record indexes, read from the first field of its
    /// blob without decoding the policies.
    pub fn signature_of(&self, rec: Record) -> Result<&str, String> {
        let mut c = Cursor::new(self.blob_of(rec)?);
        self.string(c.u32()?)
    }

    /// The sorted cone identity list a record carries (empty in exports),
    /// read without decoding the policies.
    pub fn cone(&self, rec: Record) -> Result<Vec<u64>, String> {
        let mut c = Cursor::new(self.blob_of(rec)?);
        c.u32()?;
        (0..c.counted(8)?).map(|_| c.u64()).collect()
    }

    fn decode_policy(&self, sig: &str, c: &mut Cursor<'_>) -> Result<EntryPolicy, String> {
        let n = c.counted(5)? as usize;
        let mut events = SortedMap::with_capacity(n);
        for _ in 0..n {
            let event = self.event_key(c)?;
            let set_id = c.u32()?;
            let policy = self
                .sets
                .get(set_id as usize)
                .ok_or_else(|| format!("check-set id {set_id} out of range"))?;
            events.insert(event, policy.clone());
        }
        let n = c.counted(5)? as usize;
        let mut event_origins = SortedMap::with_capacity(n);
        for _ in 0..n {
            let event = self.event_key(c)?;
            event_origins.insert(event, self.origins(c)?);
        }
        let n = c.counted(5)? as usize;
        let mut check_origins = SortedMap::with_capacity(n);
        for _ in 0..n {
            let check = c.u8()?;
            check_origins.insert(check, self.origins(c)?);
        }
        Ok(EntryPolicy {
            signature: sig.to_owned(),
            events,
            event_origins,
            check_origins,
        })
    }

    /// Decodes a blob's signature and full policy, leaving `c` at the
    /// intra tag (or at the end of a blob without one).
    fn decode_head(&self, c: &mut Cursor<'_>) -> Result<(&str, EntryPolicy), String> {
        let sig = self.string(c.u32()?)?;
        let cone_len = c.counted(8)?;
        c.take(cone_len as usize * 8)?;
        Ok((sig, self.decode_policy(sig, c)?))
    }

    /// Decodes a record's full policy only. In an exported index the
    /// intra tail is left unread: [`Self::parse`]'s checksum already
    /// vouched for its bytes, and [`Self::decode`] validates it.
    pub fn decode_full(&self, rec: Record) -> Result<EntryPolicy, String> {
        let blob = self.blob_of(rec)?;
        let mut c = Cursor::new(blob);
        let (_, full) = self.decode_head(&mut c)?;
        if !self.intra && c.pos() != blob.len() {
            return Err("trailing bytes in entry blob".to_owned());
        }
        Ok(full)
    }

    /// Decodes a record into its full policy and its intra policy (`None`
    /// in a file without the intra flag). An intra policy stored as equal
    /// to the full one is the same allocation: [`Arc::ptr_eq`] holds.
    ///
    /// # Errors
    ///
    /// Fails on a damaged blob, including an intra tag other than 0 or 1.
    pub fn decode(
        &self,
        rec: Record,
    ) -> Result<(Arc<EntryPolicy>, Option<Arc<EntryPolicy>>), String> {
        let blob = self.blob_of(rec)?;
        let mut c = Cursor::new(blob);
        let (sig, full) = self.decode_head(&mut c)?;
        let full = Arc::new(full);
        let intra = if self.intra {
            Some(match c.u8()? {
                INTRA_SAME => Arc::clone(&full),
                INTRA_OWN => Arc::new(self.decode_policy(sig, &mut c)?),
                t => return Err(format!("bad intra tag {t}")),
            })
        } else {
            None
        };
        if c.pos() != blob.len() {
            return Err("trailing bytes in entry blob".to_owned());
        }
        Ok((full, intra))
    }

    /// Looks a signature up and decodes its full policy. `Ok(None)` means
    /// the entry point is not in the index.
    pub fn lookup(&self, signature: &str) -> Result<Option<EntryPolicy>, String> {
        let Some(rec) = self.find(root_key(signature)) else {
            return Ok(None);
        };
        if self.signature_of(rec)? != signature {
            return Ok(None);
        }
        self.decode_full(rec).map(Some)
    }

    /// Looks a signature up and renders its policy block exactly as `spo
    /// analyze` and the daemon do (via [`spo_core::render_entry`]; an
    /// entry with no checks renders as the empty string). `Ok(None)` means
    /// the entry point is not in the index.
    pub fn query(&self, signature: &str) -> Result<Option<String>, String> {
        Ok(self
            .lookup(signature)?
            .map(|full| render_entry(signature, &full)))
    }

    /// Renders the full library listing exactly as `spo analyze` does
    /// (via [`spo_core::render_analysis`]).
    ///
    /// # Errors
    ///
    /// Propagates blob decode failures.
    pub fn render_full(&self) -> Result<String, String> {
        Ok(render_analysis(&self.full_library()?))
    }

    /// An empty library under the index's name crediting `entry_points`.
    fn empty_library(&self, entry_points: u64) -> LibraryPolicies {
        LibraryPolicies {
            name: self.library.to_string(),
            entries: BTreeMap::new(),
            stats: AnalysisStats {
                entry_points: entry_points as usize,
                ..AnalysisStats::default()
            },
            degraded: BTreeMap::new(),
        }
    }

    /// Every record's signature and row, sorted by signature, each with a
    /// `T` slot for the caller. Offset-table order is root-key (hash)
    /// order; decoding in signature order instead lays the entries'
    /// allocations out in the order the maps, the diff, the renderers and
    /// the final drop walk them. Reads only each record's interned
    /// signature and allocates nothing per record.
    fn by_signature<T: Default>(&self) -> Result<Vec<(&str, u32, T)>, String> {
        let mut order = (0..self.count)
            .map(|i| Ok((self.signature_of(self.row(i))?, i as u32, T::default())))
            .collect::<Result<Vec<_>, String>>()?;
        order.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Ok(order)
    }

    /// Reconstructs the full-analysis [`LibraryPolicies`] alone, decoding
    /// no intraprocedural policy — what a listing needs. Records are
    /// decoded in signature order.
    ///
    /// # Errors
    ///
    /// Propagates blob decode failures.
    pub fn full_library(&self) -> Result<LibraryPolicies, String> {
        let mut full = self.empty_library(self.entry_points_full);
        full.entries = self
            .by_signature::<()>()?
            .into_iter()
            .map(|(sig, i, ())| {
                let entry = self.decode_full(self.row(i as usize))?;
                Ok((sig.to_owned(), Arc::new(entry)))
            })
            .collect::<Result<_, String>>()?;
        Ok(full)
    }

    /// Reconstructs the `(full, intra)` [`LibraryPolicies`] pair the index
    /// was compiled from — what diffing and the daemon's warm path need.
    /// Each record's full policy is decoded once; where the intra tag says
    /// the two are equal, both maps hold the same [`Arc`]. Degraded maps
    /// are empty by construction (degraded analyses are rejected at build
    /// time).
    ///
    /// # Errors
    ///
    /// Propagates blob decode failures, and fails on a file without
    /// intraprocedural policies (a summary-cache file).
    pub fn to_libraries(&self) -> Result<(LibraryPolicies, LibraryPolicies), String> {
        if !self.intra {
            return Err("index carries no intraprocedural policies".to_owned());
        }
        // Records are decoded in signature order, so each map is built
        // from an already sorted stream. The full map is built during the
        // decode; each record's slot holds its intra policy until the
        // intra map is built from the same table.
        let mut order = self.by_signature::<Option<Arc<EntryPolicy>>>()?;
        let mut full = self.empty_library(self.entry_points_full);
        full.entries = order
            .iter_mut()
            .map(|(sig, i, slot)| {
                let (f, intra) = self.decode(self.row(*i as usize))?;
                *slot = intra;
                Ok((sig.to_string(), f))
            })
            .collect::<Result<_, String>>()?;
        let mut intra = self.empty_library(self.entry_points_intra);
        intra.entries = order
            .into_iter()
            // `self.intra` is set, so every record carries its intra policy.
            .filter_map(|(sig, _, slot)| Some((sig.to_owned(), slot?)))
            .collect();
        Ok((full, intra))
    }
}

/// The analysis-path pairwise diff of two reconstructed `(full, intra)`
/// pairs through [`spo_core::diff_pair`], rendered via
/// [`spo_core::render_reports`]. Returns the report and whether any
/// difference was found.
pub fn diff_rendered(
    left_full: &LibraryPolicies,
    left_intra: &LibraryPolicies,
    right_full: &LibraryPolicies,
    right_intra: &LibraryPolicies,
) -> (String, bool) {
    let (diff, groups) = spo_core::diff_pair((left_full, left_intra), (right_full, right_intra));
    (spo_core::render_reports(&diff, &groups), !groups.is_empty())
}

/// Reads an index file in one `read()`, with the `index.read.bitflip`
/// chaos site probed between the read and the caller's checksum verify —
/// an injected flip must surface as a typed [`PolicyIndex::parse`]
/// failure, never a wrong answer.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn read_index_file(path: &Path) -> std::io::Result<Vec<u8>> {
    read_index_file_with(path, &spo_chaos::current())
}

/// [`read_index_file`] with an explicit fault plan (tests inject without
/// touching the process-wide plan).
fn read_index_file_with(path: &Path, plan: &FaultPlan) -> std::io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    if !bytes.is_empty() && plan.should_fire(spo_chaos::sites::INDEX_READ_BITFLIP) {
        let pos = plan.amount(spo_chaos::sites::INDEX_READ_BITFLIP, bytes.len() as u64) as usize;
        bytes[pos] ^= 0x01;
    }
    Ok(bytes)
}

/// Write attempts before a persistently failing [`write_index_file`]
/// gives up (the first attempt plus bounded retries of transient errors).
pub const WRITE_ATTEMPTS: u32 = 3;

/// What a [`write_index_file`] call went through.
#[derive(Debug)]
pub struct DurableWrite {
    /// The transient errors retried, in order.
    pub retried: Vec<std::io::Error>,
    /// The final outcome: `Ok` once the file landed, else the error that
    /// ended the attempts (the previous file is then untouched).
    pub result: std::io::Result<()>,
}

/// Writes `bytes` to `path` atomically and durably: temp file +
/// `sync_all`, atomic `rename` over `path`, then a best-effort
/// `sync_all` on the directory so the rename itself survives a crash.
/// Transient errors — interrupted syscalls and timeout-shaped kinds, the
/// shape `spo-chaos` gives its injected faults — are retried up to
/// [`WRITE_ATTEMPTS`] times with a short backoff. Whatever
/// happens, the file at `path` is either the previous one, untouched, or
/// the complete new one — never a truncation of either.
pub fn write_index_file(path: &Path, bytes: &[u8], plan: &FaultPlan) -> DurableWrite {
    // pid + per-process sequence: two writers of one resident daemon
    // targeting the same file concurrently must not share a temp file
    // (the rename itself is atomic either way).
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let mut retried = Vec::new();
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let result = loop {
        match write_once(plan, &tmp, path, bytes) {
            Err(e)
                if retried.len() as u32 + 1 < WRITE_ATTEMPTS
                    && matches!(e.kind(), Interrupted | WouldBlock | TimedOut) =>
            {
                // Tiny exponential backoff: 1ms, 2ms. Real transient
                // errors (EINTR under signal storms) clear quickly;
                // anything slower is persistent and hits the cap.
                std::thread::sleep(std::time::Duration::from_millis(1 << retried.len()));
                retried.push(e);
            }
            result => break result,
        }
    };
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else if !retried.is_empty() {
        plan.note_recovered();
    }
    DurableWrite { retried, result }
}

/// One durable write attempt: create + write + `sync_all` the temp file,
/// `rename` it over `path`, `sync_all` the directory. Chaos fault sites
/// are compiled into each step; the bit-flip site corrupts the payload
/// but lets the write *succeed* (silent corruption for the next reader's
/// checksum to catch).
fn write_once(plan: &FaultPlan, tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use spo_chaos::sites;
    use std::io::Write as _;
    let flipped: Vec<u8>;
    let payload: &[u8] = if !bytes.is_empty() && plan.should_fire(sites::CACHE_BITFLIP) {
        let pos = plan.amount(sites::CACHE_BITFLIP, bytes.len() as u64) as usize;
        let mut copy = bytes.to_vec();
        copy[pos] ^= 0x01;
        flipped = copy;
        &flipped
    } else {
        bytes
    };
    {
        let mut f = std::fs::File::create(tmp)?;
        if plan.should_fire(sites::CACHE_WRITE_SHORT) {
            f.write_all(&payload[..payload.len() / 2])?;
            let _ = f.sync_all();
            return Err(spo_chaos::injected_io_error(sites::CACHE_WRITE_SHORT));
        }
        f.write_all(payload)?;
        if plan.should_fire(sites::CACHE_FSYNC_FAIL) {
            return Err(spo_chaos::injected_io_error(sites::CACHE_FSYNC_FAIL));
        }
        f.sync_all()?;
    }
    if plan.should_fire(sites::CACHE_RENAME_FAIL) {
        return Err(spo_chaos::injected_io_error(sites::CACHE_RENAME_FAIL));
    }
    std::fs::rename(tmp, path)?;
    // The rename is durable only once the directory entry is synced; a
    // failure here is not worth failing the write over (the data file
    // itself is already synced).
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(dir) = std::fs::File::open(dir.unwrap_or(Path::new("."))) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_core::{Check, CheckSet};

    fn policy(must: &[Check], may_paths: &[&[Check]]) -> EventPolicy {
        let must: CheckSet = must.iter().copied().collect();
        let paths: Dnf = may_paths
            .iter()
            .map(|p| p.iter().copied().collect::<CheckSet>().bits())
            .collect();
        EventPolicy {
            must,
            may: CheckSet::from_bits(paths.flat_union()),
            may_paths: paths,
        }
    }

    fn fixture() -> (LibraryPolicies, LibraryPolicies) {
        let mut full = LibraryPolicies {
            name: "jdk".into(),
            ..Default::default()
        };
        let mut intra = LibraryPolicies {
            name: "jdk".into(),
            ..Default::default()
        };
        for (sig, checked) in [
            ("Net.connect(Addr)", true),
            ("Net.accept()", true),
            ("Util.length()", false),
        ] {
            let mut f = EntryPolicy::new(sig.into());
            let mut i = EntryPolicy::new(sig.into());
            if checked {
                f.events.insert(
                    EventKey::Native("connect0".into()),
                    policy(&[Check::Connect], &[&[Check::Connect], &[Check::Accept]]),
                );
                f.events.insert(EventKey::ApiReturn, EventPolicy::default());
                f.event_origins.insert(
                    EventKey::Native("connect0".into()),
                    vec!["Net.impl".into()].into(),
                );
                f.check_origins.insert(
                    Check::Connect.index(),
                    vec!["Net.guard".into(), "Net.impl".into()].into(),
                );
                i.events
                    .insert(EventKey::ApiReturn, policy(&[], &[&[Check::Connect]]));
            } else {
                f.events.insert(EventKey::ApiReturn, EventPolicy::default());
                i.events.insert(EventKey::ApiReturn, EventPolicy::default());
            }
            full.entries.insert(sig.into(), f.into());
            intra.entries.insert(sig.into(), i.into());
        }
        full.stats.entry_points = full.entries.len();
        intra.stats.entry_points = intra.entries.len();
        (full, intra)
    }

    fn build(full: &LibraryPolicies, intra: &LibraryPolicies) -> Vec<u8> {
        IndexBuilder::new("jdk", &AnalysisOptions::default(), full, intra)
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_reconstructs_libraries() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        assert_eq!(index.library(), "jdk");
        assert_eq!(index.len(), 3);
        let (rfull, rintra) = index.to_libraries().unwrap();
        assert_eq!(rfull.entries, full.entries);
        assert_eq!(rintra.entries, intra.entries);
        assert_eq!(rfull.stats.entry_points, 3);
        assert_eq!(render_analysis(&rfull), render_analysis(&full));
    }

    /// A library of `n` entries over interleaved classes, with prefix
    /// pairs such as `A.m()` / `A.m(I)`; `salt` varies the policies so two
    /// libraries differ on some shared entries.
    fn shuffled_library(name: &str, n: usize, salt: usize) -> (LibraryPolicies, LibraryPolicies) {
        let mut full = LibraryPolicies {
            name: name.into(),
            ..Default::default()
        };
        let mut intra = full.clone();
        for k in 0..n {
            let sig = match k % 3 {
                0 => format!("C{}.m()", k % 7),
                1 => format!("C{}.m(I{k})", k % 7),
                _ => format!("D{k}.n(J)"),
            };
            let mut f = EntryPolicy::new(sig.clone());
            let checks: &[Check] = if (k + salt).is_multiple_of(4) {
                &[Check::Read]
            } else {
                &[Check::Connect]
            };
            f.events.insert(
                EventKey::Native(format!("n{k}").into()),
                policy(checks, &[checks]),
            );
            f.event_origins.insert(
                EventKey::Native(format!("n{k}").into()),
                vec![format!("{sig}#impl").into()].into(),
            );
            let i = if k.is_multiple_of(2) {
                f.clone()
            } else {
                let mut i = EntryPolicy::new(sig.clone());
                i.events.insert(EventKey::ApiReturn, policy(&[], &[&[]]));
                i
            };
            full.entries.insert(sig.clone(), f.into());
            intra.entries.insert(sig, i.into());
        }
        full.stats.entry_points = full.entries.len();
        intra.stats.entry_points = intra.entries.len();
        (full, intra)
    }

    /// Compiles `(full, intra)` feeding the writer in reverse signature
    /// order, so string ids, offset-table rows and blobs all disagree with
    /// signature order.
    fn build_reversed(full: &LibraryPolicies, intra: &LibraryPolicies) -> Vec<u8> {
        let mut writer = IndexWriter::new(true);
        for (sig, f) in full.entries.iter().rev() {
            writer.entry(sig, 0, &[], f, Some(&*intra.entries[sig]));
        }
        let n = full.entries.len() as u64;
        writer
            .finish(
                &full.name,
                &options_token(&AnalysisOptions::default()),
                [n, n],
            )
            .unwrap()
    }

    #[test]
    fn decode_order_does_not_depend_on_blob_order() {
        let (lfull, lintra) = shuffled_library("jdk", 60, 0);
        let (rfull, rintra) = shuffled_library("harmony", 45, 1);
        let (lbytes, rbytes) = (
            build_reversed(&lfull, &lintra),
            build_reversed(&rfull, &rintra),
        );
        let (left, right) = (
            PolicyIndex::parse(&lbytes).unwrap(),
            PolicyIndex::parse(&rbytes).unwrap(),
        );
        let table: Vec<&str> = left
            .records()
            .map(|rec| left.signature_of(rec).unwrap())
            .collect();
        assert!(
            table.windows(2).any(|w| w[0] > w[1]),
            "the offset table must not already be in signature order"
        );

        let (dlf, dli) = left.to_libraries().unwrap();
        let (drf, dri) = right.to_libraries().unwrap();
        assert_eq!(
            (&dlf.entries, &dli.entries),
            (&lfull.entries, &lintra.entries)
        );
        assert_eq!(
            (&drf.entries, &dri.entries),
            (&rfull.entries, &rintra.entries)
        );
        for (sig, f) in &dlf.entries {
            let same = lfull.entries[sig] == lintra.entries[sig];
            assert_eq!(Arc::ptr_eq(f, &dli.entries[sig]), same, "{sig}");
        }
        assert_eq!(left.full_library().unwrap().entries, lfull.entries);
        assert_eq!(left.render_full().unwrap(), render_analysis(&lfull));
        assert_eq!(render_analysis(&dri), render_analysis(&rintra));

        let decoded = diff_rendered(&dlf, &dli, &drf, &dri);
        assert_eq!(decoded, diff_rendered(&lfull, &lintra, &rfull, &rintra));
        assert!(decoded.1, "the fixture's libraries differ");
    }

    #[test]
    fn query_matches_render_entry() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        for (sig, entry) in &full.entries {
            let got = index.query(sig).unwrap().unwrap();
            assert_eq!(got, render_entry(sig, entry));
        }
        assert_eq!(index.query("No.such()").unwrap(), None);
    }

    #[test]
    fn check_sets_and_strings_are_interned() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        // Two identical checked entries share one checked set; plus the
        // empty set and the intra set: far fewer than one per event.
        assert!(index.sets.len() <= 3, "check sets: {}", index.sets.len());
        // "Net.impl" appears in two entries' origins but is stored once.
        let occurrences = index.strings.iter().filter(|s| *s == "Net.impl").count();
        assert_eq!(occurrences, 1);
    }

    #[test]
    fn extending_copies_kept_blobs_and_keeps_ids_valid() {
        let (full, _) = fixture();
        let token = options_token(&AnalysisOptions::default());
        let mut writer = IndexWriter::new(false);
        for (i, (sig, entry)) in full.entries.iter().enumerate() {
            writer.entry(sig, 100 + i as u64, &[7, 9 + i as u64], entry, None);
        }
        let base_bytes = writer.finish("jdk", &token, [3, 0]).unwrap();
        let base = PolicyIndex::parse(&base_bytes).unwrap();
        assert_eq!(
            base.to_libraries().unwrap_err(),
            "index carries no intraprocedural policies"
        );

        // Replace one entry with a policy that needs a new string and a
        // new check set; the other two are copied verbatim.
        let replaced = "Net.accept()";
        let mut fresh = EntryPolicy::new(replaced.into());
        fresh.events.insert(
            EventKey::DataWrite("fresh.field".into()),
            policy(&[Check::Accept], &[&[Check::Accept, Check::Connect]]),
        );
        let mut writer = IndexWriter::extending(&base, |k| k != root_key(replaced)).unwrap();
        writer.entry(replaced, 42, &[1], &fresh, None);
        let bytes = writer.finish("jdk", &token, [3, 0]).unwrap();
        let index = PolicyIndex::parse(&bytes).unwrap();
        assert_eq!(index.strings[..base.strings.len()], base.strings[..]);
        assert_eq!(index.sets[..base.sets.len()], base.sets[..]);
        for rec in index.records() {
            let (entry, intra) = index.decode(rec).unwrap();
            assert_eq!(intra, None);
            let sig = entry.signature.clone();
            if sig == replaced {
                assert_eq!((&*entry, rec.cone_key), (&fresh, 42));
                assert_eq!(index.cone(rec).unwrap(), [1]);
            } else {
                let old = base.find(rec.root_key).unwrap();
                assert_eq!(index.blob_of(rec).unwrap(), base.blob_of(old).unwrap());
                assert_eq!(entry, full.entries[&sig]);
                assert_eq!(rec.cone_key, old.cone_key);
                assert_eq!(index.cone(rec).unwrap(), base.cone(old).unwrap());
            }
        }
    }

    #[test]
    fn failed_write_leaves_the_previous_file_intact() {
        let dir = std::env::temp_dir().join(format!("spo-index-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(INDEX_FILE);
        let plan = spo_chaos::FaultPlan::disabled();
        assert!(write_index_file(&path, b"old", &plan).result.is_ok());
        let failing =
            spo_chaos::FaultPlan::seeded(5).site(spo_chaos::sites::CACHE_RENAME_FAIL, 1.0);
        let write = write_index_file(&path, b"new bytes", &failing);
        assert!(write.result.is_err());
        assert_eq!(write.retried.len() as u32, WRITE_ATTEMPTS - 1);
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [INDEX_FILE], "no temp file is left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_analysis_is_rejected() {
        let (mut full, intra) = fixture();
        full.degraded.insert(
            "Net.connect(Addr)".into(),
            spo_guard::Diagnostic {
                phase: spo_guard::Phase::Analysis,
                root: "Net.connect(Addr)".into(),
                cause: spo_guard::Cause::Panic,
                severity: spo_guard::Severity::Warning,
                message: "boom".into(),
            },
        );
        let err = IndexBuilder::new("jdk", &AnalysisOptions::default(), &full, &intra)
            .build()
            .unwrap_err();
        assert!(err.contains("degraded"), "{err}");
    }

    #[test]
    fn corruption_degrades_not_wrong() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        // Bitflip anywhere in the body: checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(PolicyIndex::parse(&flipped)
            .unwrap_err()
            .contains("checksum"));
        // Truncation: missing checksum or framing damage.
        assert!(PolicyIndex::parse(&bytes[..bytes.len() - 3]).is_err());
        assert!(PolicyIndex::parse(&bytes[..10]).is_err());
        // Version bump: clean version error, no decode attempt.
        let mut bumped = bytes.clone();
        bumped[10] = b'9'; // "spo-index 3\n" -> "spo-index 9\n"
        assert!(PolicyIndex::parse(&bumped).unwrap_err().contains("version"));
        // Garbage header.
        assert!(PolicyIndex::parse(b"not an index\n").is_err());
    }

    #[test]
    fn chaos_bitflip_surfaces_as_parse_error() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let dir = std::env::temp_dir().join(format!("spo-index-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(INDEX_FILE);
        std::fs::write(&path, &bytes).unwrap();
        let plan = spo_chaos::FaultPlan::seeded(7).site_once(spo_chaos::sites::INDEX_READ_BITFLIP);
        let read = read_index_file_with(&path, &plan).unwrap();
        assert_ne!(read, bytes, "the chaos site must have flipped a byte");
        assert!(PolicyIndex::parse(&read).is_err());
        // The second read is clean (site fires once) and parses.
        let read = read_index_file_with(&path, &plan).unwrap();
        assert_eq!(read, bytes);
        assert!(PolicyIndex::parse(&read).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_rendered_matches_manual_composition() {
        let (full_a, intra_a) = fixture();
        let (mut full_b, intra_b) = fixture();
        full_b.name = "harmony".into();
        // Drop a check on one side to force a difference.
        Arc::make_mut(full_b.entries.get_mut("Net.accept()").unwrap())
            .events
            .insert(EventKey::Native("connect0".into()), EventPolicy::default());
        let (report, findings) = diff_rendered(&full_a, &intra_a, &full_b, &intra_b);
        assert!(findings);
        assert!(report.contains("jdk vs harmony"), "{report}");
    }
}
