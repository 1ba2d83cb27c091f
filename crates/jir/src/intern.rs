//! String interning.
//!
//! Every identifier in a [`Program`](crate::Program) — class names, method
//! names, field names, local names, string literals — is interned into a
//! compact [`Symbol`] so that the analysis layers can compare and hash names
//! in O(1) and store them in dense tables.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// An interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] (and therefore
/// the [`Program`](crate::Program)) that produced them. Comparing symbols
/// from different interners is a logic error, though not memory-unsafe.
///
/// # Examples
///
/// ```
/// use spo_jir::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("java.lang.Object");
/// let b = interner.intern("java.lang.Object");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "java.lang.Object");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol, suitable for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A deduplicating string table mapping strings to [`Symbol`]s and back.
///
/// Interning the same string twice returns the same symbol. Resolution is
/// O(1). The interner never forgets a string, and stores each one once:
/// the lookup table and the symbol-indexed list share it.
#[derive(Clone, Default)]
pub struct Interner {
    map: FxHashMap<Arc<str>, Symbol>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, sym);
        sym
    }

    /// Returns the symbol for `s` if it has been interned before.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolves a symbol to the shared string the interner holds, for
    /// callers that keep the name: cloning it costs a reference count.
    ///
    /// # Panics
    ///
    /// As [`Interner::resolve`].
    pub fn resolve_shared(&self, sym: Symbol) -> &Arc<str> {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.strings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.resolve(b), "bar");
    }

    #[test]
    fn get_without_interning() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn empty_string_interns() {
        let mut i = Interner::new();
        let s = i.intern("");
        assert_eq!(i.resolve(s), "");
    }
}
