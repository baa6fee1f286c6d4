//! Typed ids for the interned dataset representation.
//!
//! The build pipeline used to address host records with raw `u32`
//! indices (`dataset.hosts[u.host as usize]`), which compiles happily
//! when a URL index is confused with a host index. [`HostId`] and
//! [`UrlId`] make those two index spaces distinct types: a table keyed
//! by one cannot be accidentally indexed by the other, and the `as
//! usize` casts live in exactly one place ([`HostId::index`] /
//! [`UrlId::index`]).
//!
//! [`HostInterner`] is the arena that assigns [`HostId`]s: each distinct
//! hostname is stored once, in first-interned order, and every later
//! occurrence is a 4-byte id instead of another `Arc` bump or `String`.
//! The interner's arena order *is* the host-record order of the built
//! dataset, so `HostId` doubles as the row index of the host table.

use crate::hash::DetHashMap;
use crate::host::Hostname;

/// Identifier of one host record: an index into the host arena of the
/// build that produced it. Ids from different builds (or different
/// [`HostInterner`]s) are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct HostId(u32);

impl HostId {
    /// Wrap a raw row index (the import path and tests build ids from
    /// known row numbers; pipeline code receives them from the interner).
    pub const fn new(raw: u32) -> HostId {
        HostId(raw)
    }

    /// The raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `usize` table index — the one sanctioned cast.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// Identifier of one URL row in a columnar URL table. Same contract as
/// [`HostId`]: valid only against the table that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct UrlId(u32);

impl UrlId {
    /// Wrap a raw row index.
    pub const fn new(raw: u32) -> UrlId {
        UrlId(raw)
    }

    /// The raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `usize` row index — the one sanctioned cast.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UrlId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "url#{}", self.0)
    }
}

/// A per-build hostname arena: every distinct hostname is assigned a
/// dense [`HostId`] in first-interned order.
///
/// `Hostname` is an `Arc<str>` internally, so interning an
/// already-known name costs one hash lookup and interning a new one
/// costs one reference-count bump — no string copies either way.
/// Hostnames are generated keys, so the lookup map uses the
/// deterministic [`DetHasher`](crate::hash::DetHasher).
///
/// ```
/// use govhost_types::{HostId, HostInterner, Hostname};
/// let mut interner = HostInterner::new();
/// let a: Hostname = "a.gov".parse().unwrap();
/// let (id, new) = interner.intern(&a);
/// assert!(new);
/// assert_eq!(id, HostId::new(0));
/// assert_eq!(interner.intern(&a), (id, false));
/// assert_eq!(interner.resolve(id), &a);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostInterner {
    names: Vec<Hostname>,
    ids: DetHashMap<Hostname, HostId>,
}

impl HostInterner {
    /// An empty interner.
    pub fn new() -> HostInterner {
        HostInterner::default()
    }

    /// Intern a hostname: returns its id and whether this call created
    /// it (`true` exactly on the first sighting).
    pub fn intern(&mut self, name: &Hostname) -> (HostId, bool) {
        if let Some(id) = self.ids.get(name) {
            return (*id, false);
        }
        let id = HostId::new(u32::try_from(self.names.len()).expect("host arena outgrew u32"));
        self.names.push(name.clone());
        self.ids.insert(name.clone(), id);
        (id, true)
    }

    /// Look a hostname up without interning it.
    pub fn get(&self, name: &Hostname) -> Option<HostId> {
        self.ids.get(name).copied()
    }

    /// The hostname behind an id.
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this interner.
    pub fn resolve(&self, id: HostId) -> &Hostname {
        &self.names[id.index()]
    }

    /// Number of distinct hostnames interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, hostname)` in arena (first-interned) order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, &Hostname)> {
        self.names.iter().enumerate().map(|(i, h)| (HostId::new(i as u32), h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(s: &str) -> Hostname {
        s.parse().unwrap()
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut it = HostInterner::new();
        let (a, new_a) = it.intern(&h("a.gov"));
        let (b, new_b) = it.intern(&h("b.gov"));
        assert!(new_a && new_b);
        assert_eq!((a.raw(), b.raw()), (0, 1));
        assert_eq!(it.intern(&h("a.gov")), (a, false));
        assert_eq!(it.len(), 2);
        let names: Vec<&Hostname> = it.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec![&h("a.gov"), &h("b.gov")]);
    }

    #[test]
    fn get_does_not_intern() {
        let mut it = HostInterner::new();
        assert_eq!(it.get(&h("a.gov")), None);
        let (id, _) = it.intern(&h("a.gov"));
        assert_eq!(it.get(&h("a.gov")), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = HostInterner::new();
        for name in ["x.gov", "y.gob.mx", "z.go.jp"] {
            let (id, _) = it.intern(&h(name));
            assert_eq!(it.resolve(id).as_str(), name);
        }
    }

    #[test]
    fn display_names_the_index_space() {
        assert_eq!(HostId::new(3).to_string(), "host#3");
        assert_eq!(UrlId::new(9).to_string(), "url#9");
        assert_eq!(UrlId::new(9).index(), 9);
    }
}
