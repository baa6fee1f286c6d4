//! A minimal CSV writer and reader (RFC 4180 quoting), enough for the
//! experiment outputs and the dataset export/import round trip without
//! pulling a serialization stack.
//!
//! The reader is a real record reader, not a line splitter: quoted fields
//! may contain commas, escaped quotes, and *newlines* (`\n` or `\r\n`),
//! exactly what [`Csv`]'s escaping emits — so `read_records(csv.finish())`
//! always reproduces the rows that were written.

/// CSV builder.
#[derive(Debug, Default, Clone)]
pub struct Csv {
    out: String,
}

impl Csv {
    /// Start an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row, quoting fields that need it.
    pub fn row<I, S>(&mut self, fields: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut first = true;
        for field in fields {
            if !first {
                self.out.push(',');
            }
            first = false;
            let field = field.as_ref();
            if field.contains([',', '"', '\n', '\r']) {
                self.out.push('"');
                for c in field.chars() {
                    if c == '"' {
                        self.out.push('"');
                    }
                    self.out.push(c);
                }
                self.out.push('"');
            } else {
                self.out.push_str(field);
            }
        }
        self.out.push('\n');
        self
    }

    /// The document so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Peek at the document.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// Parse an RFC 4180 document into records of fields.
///
/// Records are separated by `\n` or `\r\n`; a quoted field consumes
/// commas, doubled quotes, and embedded newlines without ending the
/// record. A trailing record separator does not produce an empty final
/// record. The parser is total: any input yields *some* records (stray
/// quotes are kept literally), so corrupt documents surface as
/// wrong-arity records for the caller to reject with a row number.
pub fn read_records(text: &str) -> Vec<Vec<String>> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    // Whether the current record has any content (field text or a
    // completed field); a separator-only tail emits no record.
    let mut record_started = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) => {
                in_quotes = true;
                record_started = true;
            }
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => {
                fields.push(std::mem::take(&mut field));
                record_started = true;
            }
            ('\r', false) if chars.peek() == Some(&'\n') => {
                chars.next();
                if record_started {
                    fields.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut fields));
                    record_started = false;
                }
            }
            ('\n', false) => {
                if record_started {
                    fields.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut fields));
                    record_started = false;
                }
            }
            (c, _) => {
                field.push(c);
                record_started = true;
            }
        }
    }
    if record_started {
        fields.push(field);
        records.push(fields);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_unquoted() {
        let mut c = Csv::new();
        c.row(["a", "b", "c"]);
        assert_eq!(c.finish(), "a,b,c\n");
    }

    #[test]
    fn quoting_rules() {
        let mut c = Csv::new();
        c.row(["with,comma", "with\"quote", "with\nnewline", "plain"]);
        assert_eq!(c.finish(), "\"with,comma\",\"with\"\"quote\",\"with\nnewline\",plain\n");
    }

    #[test]
    fn multiple_rows() {
        let mut c = Csv::new();
        c.row(["h1", "h2"]).row(["1", "2"]);
        assert_eq!(c.as_str().lines().count(), 2);
    }

    #[test]
    fn read_records_handles_quotes_and_commas() {
        let recs = read_records("a,b,c\n\"x,y\",z\n");
        assert_eq!(recs, vec![vec!["a", "b", "c"], vec!["x,y", "z"]]);
    }

    #[test]
    fn read_records_consumes_quoted_newlines() {
        let recs = read_records("org,cc\n\"Line1\nLine2\",UY\n");
        assert_eq!(recs, vec![vec!["org", "cc"], vec!["Line1\nLine2", "UY"]]);
        // CRLF record separators and CR inside quotes both survive.
        let recs = read_records("a,b\r\n\"x\r\ny\",q\r\n");
        assert_eq!(recs, vec![vec!["a", "b"], vec!["x\r\ny", "q"]]);
    }

    #[test]
    fn read_records_unescapes_doubled_quotes() {
        let recs = read_records("\"say \"\"hi\"\"\",x\n");
        assert_eq!(recs, vec![vec!["say \"hi\"", "x"]]);
    }

    #[test]
    fn read_records_edge_cases() {
        assert!(read_records("").is_empty());
        assert!(read_records("\n").is_empty(), "a blank line is not a record");
        assert_eq!(read_records("a"), vec![vec!["a"]], "missing trailing newline is fine");
        assert_eq!(read_records("a,\n"), vec![vec!["a", ""]], "trailing empty field kept");
        assert_eq!(read_records("\"\"\n"), vec![vec![""]], "quoted empty field is a record");
    }

    #[test]
    fn writer_reader_round_trip_is_exact() {
        let rows: Vec<Vec<String>> = vec![
            vec!["hostname".into(), "org".into()],
            vec!["a.gov".into(), "Cloudflare, Inc.".into()],
            vec!["b.gov".into(), "Multi\nLine \"Org\"\r\nGmbH".into()],
            vec!["c.gov".into(), "Türkiye İş — Dirección".into()],
        ];
        let mut c = Csv::new();
        for row in &rows {
            c.row(row.iter().map(String::as_str));
        }
        assert_eq!(read_records(&c.finish()), rows);
    }
}
