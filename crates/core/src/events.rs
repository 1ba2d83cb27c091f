//! Security-sensitive events.
//!
//! "The Java Native Interface (JNI) defines all interactions with the
//! outside environment [...] We therefore define all calls to native
//! methods as security-sensitive events. In addition, we consider all API
//! returns to be security-sensitive events." (§3)
//!
//! The *broad* definition (§3, "Broader definition of security-sensitive
//! events") additionally marks reads/writes of private variables and
//! accesses to API parameters — the definition needed to catch the
//! hypothetical Figure 3 bug.

use std::fmt;
use std::sync::Arc;

/// A shared name: a native routine, a private datum or a `Class.method`.
///
/// Policies hold every name this way, so copying a policy, an event key or
/// a summary record costs a reference count, not a string. Names compare,
/// hash and sort by their text, so policies of two programs (two
/// implementations, or an analysis and a decoded index) compare directly.
pub type Name = Arc<str>;

/// Which definition of security-sensitive events the analysis uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EventDef {
    /// JNI (native) calls and API returns only — the paper's primary
    /// configuration (≤16,700 policies per library).
    #[default]
    Narrow,
    /// Narrow plus private-variable reads/writes and API-parameter
    /// accesses (>90,000 policies per library).
    Broad,
}

/// Identifies one security-sensitive event of an API entry point.
///
/// Keys are compared *across independent implementations* of the same API,
/// so they are name-based: implementations matched on the entry-point
/// signature can structure their internals differently, but an event named
/// the same thing (the same native routine, the same private datum) is "the
/// same event" (§5; events unique to one implementation are ignored).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventKey {
    /// Return from the API entry point, exposing internal state to the
    /// caller.
    ApiReturn,
    /// A call to the named native (JNI) method; keyed by the method's
    /// simple name.
    Native(Name),
    /// Broad only: a read of the named private variable or API parameter.
    DataRead(Name),
    /// Broad only: a write of the named private variable or API parameter.
    DataWrite(Name),
}

impl EventKey {
    /// Returns `true` for events produced only under [`EventDef::Broad`].
    pub fn is_broad(&self) -> bool {
        matches!(self, EventKey::DataRead(_) | EventKey::DataWrite(_))
    }
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKey::ApiReturn => f.write_str("API return"),
            EventKey::Native(n) => write!(f, "native call {n}"),
            EventKey::DataRead(n) => write!(f, "read of {n}"),
            EventKey::DataWrite(n) => write!(f, "write of {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broad_predicate() {
        assert!(!EventKey::ApiReturn.is_broad());
        assert!(!EventKey::Native("connect0".into()).is_broad());
        assert!(EventKey::DataRead("data1".into()).is_broad());
        assert!(EventKey::DataWrite("data1".into()).is_broad());
    }

    #[test]
    fn display_forms() {
        assert_eq!(EventKey::ApiReturn.to_string(), "API return");
        assert_eq!(
            EventKey::Native("load0".into()).to_string(),
            "native call load0"
        );
        assert_eq!(EventKey::DataRead("x".into()).to_string(), "read of x");
    }

    #[test]
    fn ordering_is_stable_for_report_determinism() {
        let mut keys = [
            EventKey::Native("b".into()),
            EventKey::ApiReturn,
            EventKey::Native("a".into()),
        ];
        keys.sort();
        assert_eq!(keys[0], EventKey::ApiReturn);
        assert_eq!(keys[1], EventKey::Native("a".into()));
    }
}
