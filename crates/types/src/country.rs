//! ISO 3166-1 alpha-2 country codes.

use crate::error::ParseError;
use std::fmt;
use std::str::FromStr;

/// An ISO 3166-1 alpha-2 country code (e.g. `US`, `AR`, `NC`).
///
/// Stored as two uppercase ASCII letters; `Copy` and cheap to compare, so it
/// is used pervasively as a map key throughout the workspace.
///
/// ```
/// use govhost_types::CountryCode;
/// let us: CountryCode = "us".parse().unwrap();
/// assert_eq!(us.as_str(), "US");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Construct from two ASCII letters; lowercase input is uppercased.
    ///
    /// Returns an error if either byte is not an ASCII letter.
    pub fn new(a: u8, b: u8) -> Result<Self, ParseError> {
        if a.is_ascii_alphabetic() && b.is_ascii_alphabetic() {
            Ok(Self([a.to_ascii_uppercase(), b.to_ascii_uppercase()]))
        } else {
            Err(ParseError::new(
                "CountryCode",
                String::from_utf8_lossy(&[a, b]).into_owned(),
                "must be two ASCII letters",
            ))
        }
    }

    /// Infallible construction from a two-letter literal.
    ///
    /// # Panics
    /// Panics if `s` is not exactly two ASCII letters. Intended for static
    /// tables of known codes; use [`FromStr`] for untrusted input.
    pub const fn literal(s: &str) -> Self {
        let b = s.as_bytes();
        assert!(b.len() == 2, "country code literal must be two bytes");
        assert!(b[0].is_ascii_uppercase() && b[1].is_ascii_uppercase());
        Self([b[0], b[1]])
    }

    /// The code's two uppercase ASCII letters.
    pub const fn as_bytes(&self) -> &[u8; 2] {
        &self.0
    }

    /// The code as an uppercase string slice.
    pub fn as_str(&self) -> &str {
        // Invariant: constructed from ASCII letters only.
        std::str::from_utf8(&self.0).expect("country code is ASCII")
    }
}

impl FromStr for CountryCode {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let b = s.as_bytes();
        if b.len() != 2 {
            return Err(ParseError::new("CountryCode", s, "must be exactly two letters"));
        }
        Self::new(b[0], b[1])
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountryCode({})", self.as_str())
    }
}

/// Convenience macro producing a `CountryCode` from an uppercase literal.
///
/// ```
/// use govhost_types::cc;
/// assert_eq!(cc!("US").as_str(), "US");
/// ```
#[macro_export]
macro_rules! cc {
    ($s:literal) => {
        $crate::country::CountryCode::literal($s)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_uppercases() {
        let c: CountryCode = "ar".parse().unwrap();
        assert_eq!(c.as_str(), "AR");
        assert_eq!(c, "AR".parse().unwrap());
    }

    #[test]
    fn rejects_wrong_length() {
        assert!("USA".parse::<CountryCode>().is_err());
        assert!("U".parse::<CountryCode>().is_err());
        assert!("".parse::<CountryCode>().is_err());
    }

    #[test]
    fn rejects_non_letters() {
        assert!("1A".parse::<CountryCode>().is_err());
        assert!("A ".parse::<CountryCode>().is_err());
    }

    #[test]
    fn literal_macro_works() {
        assert_eq!(cc!("NC").to_string(), "NC");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let ar = cc!("AR");
        let br = cc!("BR");
        assert!(ar < br);
    }

    #[test]
    #[should_panic]
    fn literal_rejects_lowercase() {
        let _ = CountryCode::literal("us");
    }
}
