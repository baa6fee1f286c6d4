//! Columnar URL storage for the interned build path.
//!
//! The seed-era pipeline kept every examined URL as a struct of owned
//! strings (`Vec<UrlRecord>` with a `Url` inside), which at scale 10 means
//! tens of millions of small heap allocations dominating both RSS and
//! cache behavior. [`UrlTable`] stores the same rows as four parallel
//! columns — scheme, interned [`HostId`], byte count, and a path slice
//! into one shared `String` — so a row costs ~17 bytes plus its path
//! bytes, with zero per-row allocations.
//!
//! [`UrlInterner`] wraps a table with a hash index so the build can dedup
//! URLs (the crawl visits the same URL from many pages) without ever
//! materializing an owned key: candidate rows are hashed from their parts
//! and verified against the columns on collision.
//!
//! ## One hash per row
//!
//! A row is hashed once, with the workspace's deterministic hasher
//! (`govhost_types::hash::DetHasher`: an FNV-style pass over scheme, host
//! id and the path's bytes, eight at a time, then a 64-bit finaliser;
//! `row_hash`). The index map keys on that finished `u64` and hashes it
//! no further (`PreHashed`). The hash only picks a bucket: a lookup is a
//! hit only when the stored row's columns equal the candidate's, and two
//! different rows that share a hash both get rows (the second through the
//! overflow list). So the choice of hash can change speed, never which
//! rows exist, their ids, their order or their bytes. The hash is
//! unkeyed: rows come from the generated world's corpus, never from
//! outside input that could be crafted to collide.

use govhost_types::url::Scheme;
use govhost_types::{HostId, UrlId};
use govhost_types::hash::DetHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One URL row viewed out of a [`UrlTable`]: copies of the fixed-width
/// columns plus a borrowed path slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlRef<'a> {
    /// URL scheme.
    pub scheme: Scheme,
    /// Interned id of the hostname (index into the build's host arena).
    pub host: HostId,
    /// Page bytes observed for this URL.
    pub bytes: u64,
    /// URL path, always starting with `/`.
    pub path: &'a str,
}

impl UrlRef<'_> {
    /// Render the full URL given the hostname the `host` id resolves to.
    /// Byte-identical to `govhost_types::Url`'s `Display`.
    pub fn render(&self, hostname: &govhost_types::Hostname) -> String {
        format!("{}://{}{}", self.scheme.as_str(), hostname, self.path)
    }
}

/// Columnar table of examined URLs.
///
/// Rows are append-only and addressed by [`UrlId`] in insertion order.
/// Paths live concatenated in one buffer with an offsets column, so
/// iteration touches four dense arrays instead of chasing a pointer per
/// row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UrlTable {
    schemes: Vec<Scheme>,
    hosts: Vec<HostId>,
    bytes: Vec<u64>,
    /// `path_offsets[i]..path_offsets[i+1]` bounds row `i`'s path in
    /// `paths`; always has `len() + 1` entries.
    path_offsets: Vec<u32>,
    paths: String,
}

impl UrlTable {
    /// An empty table.
    pub fn new() -> UrlTable {
        UrlTable::default()
    }

    /// An empty table with room for every row of `parts`, so appending
    /// them all with [`Self::append_mapped`] allocates each column once
    /// and leaves no spare capacity behind.
    pub fn with_capacity_for<'a>(parts: impl IntoIterator<Item = &'a UrlTable>) -> UrlTable {
        let (rows, path_bytes) = parts
            .into_iter()
            .fold((0, 0), |(rows, bytes), t| (rows + t.len(), bytes + t.paths.len()));
        UrlTable {
            schemes: Vec::with_capacity(rows),
            hosts: Vec::with_capacity(rows),
            bytes: Vec::with_capacity(rows),
            path_offsets: Vec::with_capacity(rows + 1),
            paths: String::with_capacity(path_bytes),
        }
    }

    /// Append a row; returns its id.
    ///
    /// # Panics
    ///
    /// If the table outgrows `u32` rows or ~4 GiB of path bytes.
    pub fn push(&mut self, scheme: Scheme, host: HostId, path: &str, bytes: u64) -> UrlId {
        let id = UrlId::new(u32::try_from(self.schemes.len()).expect("URL table outgrew u32"));
        if self.path_offsets.is_empty() {
            self.path_offsets.push(0);
        }
        self.schemes.push(scheme);
        self.hosts.push(host);
        self.bytes.push(bytes);
        self.paths.push_str(path);
        self.path_offsets
            .push(u32::try_from(self.paths.len()).expect("URL path column outgrew u32"));
        id
    }

    /// Append every row of `src` in order, its host column mapped
    /// through `hosts` (`src` host id → id in this table): the same
    /// table as pushing each row with [`Self::push`], in one columnar
    /// copy per column.
    ///
    /// # Panics
    ///
    /// If a `src` host id is out of bounds for `hosts`, or where
    /// [`Self::push`] would.
    pub fn append_mapped(&mut self, src: &UrlTable, hosts: &[HostId]) {
        if src.is_empty() {
            return;
        }
        u32::try_from(self.len() + src.len() - 1).expect("URL table outgrew u32");
        u32::try_from(self.paths.len() + src.paths.len()).expect("URL path column outgrew u32");
        let base = self.paths.len() as u32;
        if self.path_offsets.is_empty() {
            self.path_offsets.push(0);
        }
        self.schemes.extend_from_slice(&src.schemes);
        self.hosts.extend(src.hosts.iter().map(|h| hosts[h.index()]));
        self.bytes.extend_from_slice(&src.bytes);
        self.paths.push_str(&src.paths);
        // `src.path_offsets[0]` is 0: every offset after it ends a row.
        self.path_offsets.extend(src.path_offsets[1..].iter().map(|&end| base + end));
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// View one row.
    ///
    /// # Panics
    ///
    /// If `id` is out of bounds for this table.
    pub fn get(&self, id: UrlId) -> UrlRef<'_> {
        let i = id.index();
        UrlRef {
            scheme: self.schemes[i],
            host: self.hosts[i],
            bytes: self.bytes[i],
            path: &self.paths[self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize],
        }
    }

    /// Iterate all rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = UrlRef<'_>> {
        (0..self.len()).map(|i| self.get(UrlId::new(i as u32)))
    }

    /// Iterate `(host, bytes)` of every row in insertion order — two of
    /// the four columns, so a per-host rollup never slices a path.
    pub fn host_bytes(&self) -> impl Iterator<Item = (HostId, u64)> + '_ {
        self.hosts.iter().copied().zip(self.bytes.iter().copied())
    }
}

impl<'a> IntoIterator for &'a UrlTable {
    type Item = UrlRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = UrlRef<'a>> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A [`Hasher`] for keys that are already well-mixed `u64` hashes: it
/// keeps the last word written and returns it unchanged, so a map keyed
/// by a finished hash does not hash it a second time. Keys must be
/// written with [`Hasher::write_u64`] (the `Hash` impl of `u64` does).
#[derive(Debug, Clone, Copy, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed takes finished u64 hashes only");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A `HashMap` over pre-hashed keys (see [`PreHashed`]).
type PreHashedMap<K, V> = HashMap<K, V, BuildHasherDefault<PreHashed>>;

/// The row's hash: the workspace's deterministic hasher
/// ([`DetHasher`]) over one word packing the host id and the scheme, then
/// the path (its length, then its bytes eight at a time). Deterministic
/// across processes; only bucket choice depends on it.
fn row_hash(scheme: Scheme, host: HostId, path: &str) -> u64 {
    let mut h = DetHasher::default();
    h.write_u64(u64::from(host.raw()) << 1 | u64::from(scheme == Scheme::Https));
    h.write(path.as_bytes());
    h.finish()
}

/// Deduplicating writer over a [`UrlTable`].
///
/// The URL identity key is `(scheme, host, path)` — the same identity as
/// `govhost_types::Url` equality once hostnames are interned. `bytes` is
/// recorded from the first sighting only, matching the seed-era
/// `HashSet<Url>` dedup.
#[derive(Debug, Clone, Default)]
pub struct UrlInterner {
    table: UrlTable,
    /// hash → first row with that hash.
    index: PreHashedMap<u64, UrlId>,
    /// Rows whose hash collided with an earlier, different row.
    overflow: Vec<(u64, UrlId)>,
}

impl UrlInterner {
    /// An empty interner.
    pub fn new() -> UrlInterner {
        UrlInterner::default()
    }

    fn row_matches(&self, id: UrlId, scheme: Scheme, host: HostId, path: &str) -> bool {
        let row = self.table.get(id);
        row.scheme == scheme && row.host == host && row.path == path
    }

    /// Intern a URL row: returns its id and whether this call inserted it
    /// (`true` exactly on the first sighting).
    pub fn intern(&mut self, scheme: Scheme, host: HostId, path: &str, bytes: u64) -> (UrlId, bool) {
        self.intern_hashed(row_hash(scheme, host, path), scheme, host, path, bytes)
    }

    /// [`Self::intern`] with the row's hash given, so a test can make two
    /// different rows collide.
    fn intern_hashed(
        &mut self,
        hash: u64,
        scheme: Scheme,
        host: HostId,
        path: &str,
        bytes: u64,
    ) -> (UrlId, bool) {
        if let Some(&first) = self.index.get(&hash) {
            if self.row_matches(first, scheme, host, path) {
                return (first, false);
            }
            for &(h, id) in &self.overflow {
                if h == hash && self.row_matches(id, scheme, host, path) {
                    return (id, false);
                }
            }
            let id = self.table.push(scheme, host, path, bytes);
            self.overflow.push((hash, id));
            return (id, true);
        }
        let id = self.table.push(scheme, host, path, bytes);
        self.index.insert(hash, id);
        (id, true)
    }

    /// Number of distinct rows interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying table.
    pub fn table(&self) -> &UrlTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_in_insertion_order() {
        let mut t = UrlTable::new();
        let a = t.push(Scheme::Https, HostId::new(0), "/", 100);
        let b = t.push(Scheme::Http, HostId::new(1), "/deep/page", 42);
        assert_eq!((a.raw(), b.raw()), (0, 1));
        assert_eq!(t.len(), 2);
        let rows: Vec<UrlRef<'_>> = t.iter().collect();
        assert_eq!(rows[0].path, "/");
        assert_eq!(rows[0].bytes, 100);
        assert_eq!(rows[1].scheme, Scheme::Http);
        assert_eq!(rows[1].host, HostId::new(1));
        assert_eq!(rows[1].path, "/deep/page");
        let host: govhost_types::Hostname = "a.gov".parse().unwrap();
        assert_eq!(rows[1].render(&host), "http://a.gov/deep/page");
    }

    #[test]
    fn interner_dedups_on_scheme_host_path() {
        let mut it = UrlInterner::new();
        let (a, new) = it.intern(Scheme::Https, HostId::new(0), "/x", 10);
        assert!(new);
        // Same identity, different bytes: first sighting wins.
        assert_eq!(it.intern(Scheme::Https, HostId::new(0), "/x", 99), (a, false));
        assert_eq!(it.table().get(a).bytes, 10);
        // Any part differing makes a new row.
        let (b, _) = it.intern(Scheme::Http, HostId::new(0), "/x", 10);
        let (c, _) = it.intern(Scheme::Https, HostId::new(1), "/x", 10);
        let (d, _) = it.intern(Scheme::Https, HostId::new(0), "/y", 10);
        assert_eq!(it.len(), 4);
        assert!(a != b && b != c && c != d);
    }

    #[test]
    fn colliding_rows_stay_distinct() {
        let mut it = UrlInterner::new();
        let (a, _) = it.intern_hashed(7, Scheme::Https, HostId::new(0), "/a", 1);
        let (b, new_b) = it.intern_hashed(7, Scheme::Https, HostId::new(0), "/b", 2);
        let (c, new_c) = it.intern_hashed(7, Scheme::Http, HostId::new(0), "/a", 3);
        assert!(new_b && new_c);
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
        // Repeats find their rows through the index and the overflow list.
        assert_eq!(it.intern_hashed(7, Scheme::Https, HostId::new(0), "/a", 9), (a, false));
        assert_eq!(it.intern_hashed(7, Scheme::Https, HostId::new(0), "/b", 9), (b, false));
        assert_eq!(it.intern_hashed(7, Scheme::Http, HostId::new(0), "/a", 9), (c, false));
        assert_eq!(it.table().get(c).bytes, 3);
    }

    #[test]
    fn empty_paths_are_distinct_rows() {
        let mut t = UrlTable::new();
        let a = t.push(Scheme::Https, HostId::new(0), "", 1);
        let b = t.push(Scheme::Https, HostId::new(0), "/p", 2);
        assert_eq!(t.get(a).path, "");
        assert_eq!(t.get(b).path, "/p");
    }
}
