//! Lattices for the security-policy dataflow analyses.
//!
//! The paper's dataflow lattice is "the power set of the 31
//! security-checking methods" (§4). [`BitSet32`] is that powerset;
//! [`MustSet`] adds the ⊤ (not-yet-visited) element needed by the
//! intersection-based MUST analysis; [`Dnf`] is the disjunctive MAY value
//! that reproduces Figure 2's `{{checkMulticast},{checkConnect,
//! checkAccept}}` policies.

use std::cell::Cell;
use std::fmt;

/// A join-semilattice value: `join` merges another value in, returning
/// whether anything changed. Used by the worklist engine's convergence
/// test.
pub trait JoinLattice: Clone + PartialEq {
    /// Merges `other` into `self`; returns `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A set over at most 32 elements, stored as a `u32` bit mask.
///
/// # Examples
///
/// ```
/// use spo_dataflow::BitSet32;
///
/// let mut s = BitSet32::empty();
/// s.insert(3);
/// s.insert(7);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitSet32(u32);

impl BitSet32 {
    /// The empty set.
    pub const fn empty() -> Self {
        BitSet32(0)
    }

    /// Constructs from a raw mask.
    pub const fn from_bits(bits: u32) -> Self {
        BitSet32(bits)
    }

    /// The raw mask.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Singleton set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn singleton(i: u8) -> Self {
        assert!(i < 32, "BitSet32 index out of range");
        BitSet32(1 << i)
    }

    /// Adds element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn insert(&mut self, i: u8) {
        assert!(i < 32, "BitSet32 index out of range");
        self.0 |= 1 << i;
    }

    /// Membership test.
    pub fn contains(self, i: u8) -> bool {
        i < 32 && self.0 & (1 << i) != 0
    }

    /// Set union.
    pub const fn union(self, other: Self) -> Self {
        BitSet32(self.0 | other.0)
    }

    /// Set intersection.
    pub const fn intersect(self, other: Self) -> Self {
        BitSet32(self.0 & other.0)
    }

    /// Elements in `self` but not `other`.
    pub const fn difference(self, other: Self) -> Self {
        BitSet32(self.0 & !other.0)
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub const fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of elements.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Emptiness test.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over element indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0..32u8).filter(move |&i| self.contains(i))
    }
}

impl fmt::Debug for BitSet32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u8> for BitSet32 {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = BitSet32::empty();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl JoinLattice for BitSet32 {
    /// Join for the MAY direction: set union.
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0;
        self.0 |= other.0;
        self.0 != before
    }
}

/// The MUST-analysis value: a [`BitSet32`] extended with ⊤.
///
/// ⊤ ("not yet visited") is the identity of intersection; the paper's
/// Algorithm 1 initializes MUST `OUT` values to ⊤ so that the first visit
/// replaces rather than empties them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MustSet {
    /// Not yet visited: the universe, identity of ∩.
    #[default]
    Top,
    /// A concrete set of checks guaranteed on every path.
    Set(BitSet32),
}

impl MustSet {
    /// The concrete set, treating ⊤ as the given universe-less empty view.
    ///
    /// ⊤ only survives to the end for unreachable events; callers decide how
    /// to read it. [`MustSet::unwrap_or_empty`] is the common conservative
    /// choice.
    pub fn as_set(self) -> Option<BitSet32> {
        match self {
            MustSet::Top => None,
            MustSet::Set(s) => Some(s),
        }
    }

    /// The concrete set, with ⊤ read as ∅ (conservative: no check
    /// guaranteed).
    pub fn unwrap_or_empty(self) -> BitSet32 {
        self.as_set().unwrap_or_default()
    }

    /// Adds a check to the set (gen). ⊤ stays ⊤ — gen on an unreachable
    /// state is meaningless and the engine never does it.
    pub fn insert(&mut self, i: u8) {
        if let MustSet::Set(s) = self {
            s.insert(i);
        }
    }
}

impl JoinLattice for MustSet {
    /// Join for the MUST direction: set intersection, with ⊤ as identity.
    fn join(&mut self, other: &Self) -> bool {
        match (*self, other) {
            (_, MustSet::Top) => false,
            (MustSet::Top, MustSet::Set(s)) => {
                *self = MustSet::Set(*s);
                true
            }
            (MustSet::Set(a), MustSet::Set(b)) => {
                let joined = a.intersect(*b);
                let changed = joined != a;
                *self = MustSet::Set(joined);
                changed
            }
        }
    }
}

/// Maximum number of disjuncts a [`Dnf`] holds before widening.
pub const DNF_WIDTH: usize = 64;

thread_local! {
    static WIDENINGS: Cell<u64> = const { Cell::new(0) };
}

/// How many times a [`Dnf`] on the calling thread has widened to its flat
/// union so far. Callers record the difference across a unit of work; the
/// policy analysis records it per root as the `dataflow.dnf.widened` work
/// counter.
pub fn dnf_widenings() -> u64 {
    WIDENINGS.with(Cell::get)
}

/// A disjunction of check sets: the MAY-policy value.
///
/// Where a flat union records *which* checks may precede an event, a `Dnf`
/// records the distinct per-path check sets — e.g. Figure 2's
/// `{{checkMulticast}, {checkConnect, checkAccept}}`. This distinction is
/// what lets differencing catch the Figure 1 vulnerability: the flat unions
/// `{checkMulticast, checkConnect, checkAccept}` vs `{checkMulticast,
/// checkConnect}` differ too, but only because the missing check never
/// appears anywhere; a check missing from one *path* while present via
/// another path is invisible to flat unions.
///
/// The empty disjunction (no paths known) is ⊥/unvisited; the singleton
/// `{∅}` is "one path with no checks".
///
/// Invariant: disjuncts are sorted and deduplicated. When the disjunct count
/// would exceed [`DNF_WIDTH`], the value widens to the singleton of its flat
/// union — a deterministic, conservative collapse.
///
/// Most program points see exactly one path's check set, so a single
/// disjunct is held inline and only a second one allocates.
#[derive(Clone, Default)]
pub struct Dnf {
    repr: Repr,
}

/// A [`Dnf`]'s storage. Canonical: exactly one disjunct is always `One`.
#[derive(Clone)]
enum Repr {
    /// Exactly one disjunct, held inline.
    One([BitSet32; 1]),
    /// No disjunct (⊥) or two or more, sorted and deduplicated.
    Many(Vec<BitSet32>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Many(Vec::new())
    }
}

impl Dnf {
    /// The bottom element: no paths.
    pub fn bottom() -> Self {
        Dnf::default()
    }

    /// A single path carrying the given check set.
    pub fn of(set: BitSet32) -> Self {
        Dnf {
            repr: Repr::One([set]),
        }
    }

    /// The single empty path — the entry state of the MAY analysis.
    pub fn empty_path() -> Self {
        Dnf::of(BitSet32::empty())
    }

    /// The disjuncts, sorted ascending.
    pub fn disjuncts(&self) -> &[BitSet32] {
        match &self.repr {
            Repr::One(one) => one,
            Repr::Many(many) => many,
        }
    }

    /// Union of all disjuncts: the flat MAY set.
    pub fn flat_union(&self) -> BitSet32 {
        self.disjuncts()
            .iter()
            .fold(BitSet32::empty(), |acc, &d| acc.union(d))
    }

    /// Intersection of all disjuncts: the MUST view implied by this MAY
    /// value (∅ for ⊥).
    pub fn must_view(&self) -> BitSet32 {
        let mut it = self.disjuncts().iter();
        match it.next() {
            None => BitSet32::empty(),
            Some(&first) => it.fold(first, |acc, &d| acc.intersect(d)),
        }
    }

    /// Adds check `i` to every path (the gen operation at a check
    /// statement).
    pub fn gen(&mut self, i: u8) {
        match &mut self.repr {
            Repr::One([d]) => d.insert(i),
            Repr::Many(many) => {
                for d in many.iter_mut() {
                    d.insert(i);
                }
                self.normalize();
            }
        }
    }

    /// Restores the invariant after `Many` was extended or rewritten:
    /// sorted, deduplicated, widened past [`DNF_WIDTH`], and a lone
    /// disjunct moved inline.
    fn normalize(&mut self) {
        let Repr::Many(many) = &mut self.repr else {
            return;
        };
        many.sort_unstable();
        many.dedup();
        if many.len() > DNF_WIDTH {
            self.widen();
        } else if let [one] = many[..] {
            self.repr = Repr::One([one]);
        }
    }

    /// Collapses to the flat union. Out of line: rare, and it keeps the
    /// thread-local counter off `normalize`'s hot path.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        self.repr = Repr::One([self.flat_union()]);
        WIDENINGS.with(|w| w.set(w.get() + 1));
    }
}

impl PartialEq for Dnf {
    fn eq(&self, other: &Self) -> bool {
        self.disjuncts() == other.disjuncts()
    }
}

impl Eq for Dnf {}

impl std::hash::Hash for Dnf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.disjuncts().hash(state);
    }
}

impl fmt::Debug for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dnf")
            .field("disjuncts", &self.disjuncts())
            .finish()
    }
}

impl JoinLattice for Dnf {
    /// Join for the MAY direction: union of path sets.
    fn join(&mut self, other: &Self) -> bool {
        let (mine, theirs) = (self.disjuncts(), other.disjuncts());
        // Both sides are sorted, so one merge walk finds whether `other`
        // brings any disjunct `self` lacks; a subset joins as a no-op.
        let mut i = 0;
        let subset = theirs.iter().all(|d| {
            while mine.get(i).is_some_and(|s| s < d) {
                i += 1;
            }
            mine.get(i) == Some(d)
        });
        if subset {
            return false;
        }
        if mine.is_empty() {
            // ⊥ joined with anything is that thing.
            *self = other.clone();
            return true;
        }
        let single = (mine.len() == 1).then(|| mine[0]);
        let mut many = match std::mem::take(&mut self.repr) {
            Repr::One([one]) => {
                let mut many = Vec::with_capacity(1 + theirs.len());
                many.push(one);
                many
            }
            Repr::Many(many) => many,
        };
        many.extend_from_slice(theirs);
        self.repr = Repr::Many(many);
        self.normalize();
        // Unwidened, the value gained a disjunct. Widened, it is one flat
        // union, which changed unless `self` already was exactly that.
        let joined = self.disjuncts();
        joined.len() > 1 || single != Some(joined[0])
    }
}

impl FromIterator<BitSet32> for Dnf {
    fn from_iter<T: IntoIterator<Item = BitSet32>>(iter: T) -> Self {
        let mut it = iter.into_iter();
        let Some(first) = it.next() else {
            return Dnf::bottom();
        };
        let Some(second) = it.next() else {
            return Dnf::of(first);
        };
        let mut many = vec![first, second];
        many.extend(it);
        let mut d = Dnf {
            repr: Repr::Many(many),
        };
        d.normalize();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(v: &[u8]) -> BitSet32 {
        v.iter().copied().collect()
    }

    #[test]
    fn bitset_basics() {
        let a = bs(&[1, 3]);
        let b = bs(&[3, 5]);
        assert_eq!(a.union(b), bs(&[1, 3, 5]));
        assert_eq!(a.intersect(b), bs(&[3]));
        assert_eq!(a.difference(b), bs(&[1]));
        assert!(bs(&[3]).is_subset(a));
        assert!(!a.is_subset(b));
        assert_eq!(a.len(), 2);
        assert!(BitSet32::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_rejects_large_index() {
        BitSet32::singleton(32);
    }

    #[test]
    fn bitset_join_is_union() {
        let mut a = bs(&[1]);
        assert!(a.join(&bs(&[2])));
        assert_eq!(a, bs(&[1, 2]));
        assert!(!a.join(&bs(&[1])));
    }

    #[test]
    fn mustset_join_is_intersection_with_top_identity() {
        let mut m = MustSet::Top;
        assert!(m.join(&MustSet::Set(bs(&[1, 2]))));
        assert_eq!(m, MustSet::Set(bs(&[1, 2])));
        assert!(m.join(&MustSet::Set(bs(&[2, 3]))));
        assert_eq!(m, MustSet::Set(bs(&[2])));
        assert!(!m.join(&MustSet::Top));
        assert_eq!(m, MustSet::Set(bs(&[2])));
    }

    #[test]
    fn mustset_gen_ignored_on_top() {
        let mut m = MustSet::Top;
        m.insert(5);
        assert_eq!(m, MustSet::Top);
        let mut m = MustSet::Set(BitSet32::empty());
        m.insert(5);
        assert_eq!(m, MustSet::Set(bs(&[5])));
    }

    #[test]
    fn dnf_models_figure_2() {
        // Path 1 performs checkMulticast (bit 0); path 2 performs
        // checkConnect (1) and checkAccept (2).
        let mut path1 = Dnf::empty_path();
        path1.gen(0);
        let mut path2 = Dnf::empty_path();
        path2.gen(1);
        path2.gen(2);
        let mut joined = path1;
        joined.join(&path2);
        assert_eq!(joined.disjuncts(), &[bs(&[0]), bs(&[1, 2])]);
        assert_eq!(joined.flat_union(), bs(&[0, 1, 2]));
        assert_eq!(joined.must_view(), BitSet32::empty());
    }

    #[test]
    fn dnf_gen_applies_to_all_paths() {
        let mut d: Dnf = [bs(&[0]), bs(&[1])].into_iter().collect();
        d.gen(5);
        assert_eq!(d.disjuncts(), &[bs(&[0, 5]), bs(&[1, 5])]);
        assert_eq!(d.must_view(), bs(&[5]));
    }

    #[test]
    fn dnf_join_dedupes() {
        let mut a = Dnf::of(bs(&[1]));
        let changed = a.join(&Dnf::of(bs(&[1])));
        assert!(!changed);
        assert_eq!(a.disjuncts().len(), 1);
    }

    #[test]
    fn dnf_gen_can_merge_paths() {
        // {{},{3}} after gen(3) collapses to {{3}}.
        let mut d: Dnf = [BitSet32::empty(), bs(&[3])].into_iter().collect();
        d.gen(3);
        assert_eq!(d.disjuncts(), &[bs(&[3])]);
    }

    #[test]
    fn dnf_widens_at_capacity() {
        // 65 distinct singletons exceed DNF_WIDTH and collapse to the union.
        let disjuncts: Vec<BitSet32> = (0..=12u8)
            .flat_map(|a| (13..=17u8).map(move |b| bs(&[a, b])))
            .collect();
        assert!(disjuncts.len() > DNF_WIDTH);
        let d: Dnf = disjuncts.into_iter().collect();
        assert_eq!(d.disjuncts().len(), 1);
        assert_eq!(d.disjuncts()[0], bs(&(0..=17).collect::<Vec<_>>()));
    }

    #[test]
    fn dnf_join_of_subset_is_unchanged_without_allocating() {
        let mut a: Dnf = [bs(&[0]), bs(&[1]), bs(&[1, 2]), bs(&[4])]
            .into_iter()
            .collect();
        let before = a.clone();
        let Repr::Many(v) = &a.repr else {
            panic!("four disjuncts spill to a Vec")
        };
        let (ptr, cap) = (v.as_ptr(), v.capacity());
        let sub: Dnf = [bs(&[1]), bs(&[4])].into_iter().collect();
        assert!(!a.join(&sub));
        assert!(!a.join(&before.clone()));
        assert!(!a.join(&Dnf::bottom()));
        assert_eq!(a, before);
        let Repr::Many(v) = &a.repr else {
            panic!("a subset join keeps the spilled Vec")
        };
        assert_eq!((v.as_ptr(), v.capacity()), (ptr, cap));
        // One missing disjunct is a change.
        assert!(a.join(&Dnf::of(bs(&[3]))));
        assert_eq!(a.disjuncts().len(), 5);
    }

    #[test]
    fn dnf_join_reports_change_exactly_at_the_widening_edge() {
        // 65 distinct pairs over checks 0..=17, sorted as the invariant
        // requires, widen to their flat union.
        let mut pairs: Vec<BitSet32> = (0..=12u8)
            .flat_map(|a| (13..=17u8).map(move |b| bs(&[a, b])))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), DNF_WIDTH + 1);
        let many = Dnf {
            repr: Repr::Many(pairs.clone()),
        };
        let flat = bs(&(0..=17).collect::<Vec<_>>());
        let widenings = dnf_widenings();
        // Joining into the already-widened union widens again but leaves
        // the value unchanged.
        let mut wide = Dnf::of(flat);
        assert!(!wide.join(&many));
        assert_eq!(wide.disjuncts(), &[flat]);
        // Joining into a narrower single disjunct widens to a new value.
        let mut narrow = Dnf::of(bs(&[0]));
        assert!(narrow.join(&many));
        assert_eq!(narrow.disjuncts(), &[flat]);
        // Exactly 64 disjuncts stay unwidened; one more widens.
        let mut edge = Dnf {
            repr: Repr::Many(pairs[..DNF_WIDTH - 1].to_vec()),
        };
        assert!(edge.join(&Dnf::of(pairs[DNF_WIDTH - 1])));
        assert_eq!(edge.disjuncts().len(), DNF_WIDTH);
        assert!(edge.join(&Dnf::of(pairs[DNF_WIDTH])));
        assert_eq!(edge.disjuncts().len(), 1);
        assert_eq!(dnf_widenings() - widenings, 3);
    }

    #[test]
    fn one_path_is_held_inline_in_the_space_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<Dnf>(),
            std::mem::size_of::<Vec<BitSet32>>()
        );
        let mut d = Dnf::empty_path();
        d.gen(3);
        assert!(matches!(d.repr, Repr::One(_)));
        // A second path spills to the heap; collapsing back to one path
        // (gen merging both) moves it inline again.
        assert!(d.join(&Dnf::of(BitSet32::empty())));
        assert!(matches!(d.repr, Repr::Many(_)));
        d.gen(3);
        assert!(matches!(d.repr, Repr::One(_)));
        assert_eq!(d, Dnf::of(bs(&[3])));
        let collected: Dnf = [bs(&[1]), bs(&[1])].into_iter().collect();
        assert!(matches!(collected.repr, Repr::One(_)));
        assert_eq!(collected.disjuncts(), &[bs(&[1])]);
    }

    #[test]
    fn dnf_bottom_is_join_identity() {
        let mut b = Dnf::bottom();
        let v: Dnf = [bs(&[2])].into_iter().collect();
        assert!(b.join(&v));
        assert_eq!(b, v);
        let mut v2 = v.clone();
        assert!(!v2.join(&Dnf::bottom()));
        assert_eq!(v2, v);
    }

    #[test]
    fn must_view_of_bottom_is_empty() {
        assert_eq!(Dnf::bottom().must_view(), BitSet32::empty());
        assert_eq!(Dnf::bottom().flat_union(), BitSet32::empty());
    }
}
