//! DNS domain names.

use govhost_types::{Hostname, ParseError};
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// A DNS domain name: a sequence of lowercase labels. The root name has no
/// labels.
///
/// Enforces RFC 1035 limits: labels of 1–63 bytes, total encoded length of
/// at most 255 bytes.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnsName {
    labels: Vec<Vec<u8>>,
}

impl DnsName {
    /// The root name (`.`).
    pub fn root() -> Self {
        Self { labels: Vec::new() }
    }

    /// Construct from raw labels (already-validated byte strings).
    ///
    /// Returns an error if any label is empty or over 63 bytes, or the
    /// total wire length would exceed 255.
    pub fn from_labels(labels: Vec<Vec<u8>>) -> Result<Self, ParseError> {
        let mut total = 1; // terminal root byte
        for label in &labels {
            if label.is_empty() {
                return Err(ParseError::new("DnsName", "<labels>", "empty label"));
            }
            if label.len() > 63 {
                return Err(ParseError::new("DnsName", "<labels>", "label over 63 bytes"));
            }
            total += label.len() + 1;
        }
        if total > 255 {
            return Err(ParseError::new("DnsName", "<labels>", "name over 255 bytes"));
        }
        let labels = labels
            .into_iter()
            .map(|l| l.iter().map(u8::to_ascii_lowercase).collect())
            .collect();
        Ok(Self { labels })
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Whether `self` is `other` or falls under it (`www.gov.br` is under
    /// `gov.br` and under the root).
    pub fn is_under(&self, other: &DnsName) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..] == other.labels[..]
    }

    /// The parent name (one label removed from the left); `None` for the
    /// root.
    pub fn parent(&self) -> Option<DnsName> {
        if self.is_root() {
            None
        } else {
            Some(DnsName { labels: self.labels[1..].to_vec() })
        }
    }

    /// Construct from labels the caller already knows to be lowercase and
    /// within the RFC 1035 limits, without re-checking or copying them.
    pub(crate) fn from_valid_labels(labels: Vec<Vec<u8>>) -> Self {
        let name = Self { labels };
        debug_assert_eq!(Self::from_labels(name.labels.clone()).as_ref(), Ok(&name));
        name
    }

    /// Prepend a label, if limits allow.
    pub fn child(&self, label: &str) -> Result<DnsName, ParseError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_bytes().to_vec());
        labels.extend(self.labels.iter().cloned());
        Self::from_labels(labels)
    }

    /// Encoded wire length in bytes (sum of labels + length bytes + root).
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }
}

/// A name borrows as its label slice, so a map keyed by `DnsName` can be
/// probed with any label suffix (`&name.labels()[i..]`) without building
/// the parent name. The derived `Hash`, `Eq` and `Ord` all delegate to
/// the `Vec` of labels, which hashes and compares exactly as its slice.
impl Borrow<[Vec<u8>]> for DnsName {
    fn borrow(&self) -> &[Vec<u8>] {
        &self.labels
    }
}

impl From<&Hostname> for DnsName {
    fn from(h: &Hostname) -> Self {
        let labels = h.labels().map(|l| l.as_bytes().to_vec()).collect();
        // Hostname enforces the same limits, so this cannot fail.
        Self::from_labels(labels).expect("hostname respects DNS limits")
    }
}

impl FromStr for DnsName {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        let labels = s.split('.').map(|l| l.as_bytes().to_vec()).collect();
        Self::from_labels(labels)
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(&String::from_utf8_lossy(label))?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("WWW.Gov.BR").to_string(), "www.gov.br");
        assert_eq!(n("www.gov.br.").to_string(), "www.gov.br");
        assert_eq!(DnsName::root().to_string(), ".");
        assert_eq!("".parse::<DnsName>().unwrap(), DnsName::root());
        assert_eq!(".".parse::<DnsName>().unwrap(), DnsName::root());
    }

    #[test]
    fn limits_enforced() {
        let long_label = "a".repeat(64);
        assert!(long_label.parse::<DnsName>().is_err());
        let ok_label = "a".repeat(63);
        assert!(ok_label.parse::<DnsName>().is_ok());
        // 50 labels of 4 bytes = 250 + root > 255.
        let long_name = vec!["abcd"; 51].join(".");
        assert!(long_name.parse::<DnsName>().is_err());
    }

    #[test]
    fn is_under_relation() {
        assert!(n("www.gov.br").is_under(&n("gov.br")));
        assert!(n("www.gov.br").is_under(&n("br")));
        assert!(n("www.gov.br").is_under(&DnsName::root()));
        assert!(n("gov.br").is_under(&n("gov.br")));
        assert!(!n("gov.br").is_under(&n("www.gov.br")));
        assert!(!n("xgov.br").is_under(&n("gov.br")));
    }

    #[test]
    fn parent_and_child() {
        let name = n("a.b.c");
        assert_eq!(name.parent().unwrap(), n("b.c"));
        assert_eq!(n("c").parent().unwrap(), DnsName::root());
        assert!(DnsName::root().parent().is_none());
        assert_eq!(n("b.c").child("a").unwrap(), name);
    }

    #[test]
    fn from_hostname() {
        let h: Hostname = "portal.gub.uy".parse().unwrap();
        assert_eq!(DnsName::from(&h), n("portal.gub.uy"));
    }

    #[test]
    fn a_map_keyed_by_name_answers_label_suffixes() {
        let mut map = std::collections::HashMap::new();
        map.insert(n("gov.br"), 1);
        let name = n("www.gov.br");
        assert_eq!(map.get(&name.labels()[1..]), Some(&1));
        assert_eq!(map.get(name.labels()), None);
        assert_eq!(map.get(&name.labels()[2..]), None);
    }

    #[test]
    fn wire_len() {
        assert_eq!(DnsName::root().wire_len(), 1);
        assert_eq!(n("ab.cd").wire_len(), 1 + 3 + 3);
    }

    #[test]
    fn names_compare_case_insensitively_via_lowercase_storage() {
        assert_eq!(n("EXAMPLE.COM"), n("example.com"));
    }
}
