//! HAR 1.2 JSON export.
//!
//! The paper consolidates each rendered page "into an HTTP Archive (HAR)
//! file" (§3.2). This module serializes a [`HarLog`] into the HAR 1.2
//! JSON structure (creator/entries/request/response with transfer sizes)
//! so crawl artifacts can be inspected with standard HAR tooling, and
//! provides a size-extracting reader for round-trip tests. JSON is
//! emitted by hand — the structure is small and fixed, and the workspace
//! deliberately avoids a serialization stack.

use crate::har::HarLog;

/// Serialize a crawl log as HAR 1.2 JSON.
pub fn to_har_json(log: &HarLog) -> String {
    let mut out = String::with_capacity(log.entries.len() * 160 + 256);
    out.push_str(
        "{\n  \"log\": {\n    \"version\": \"1.2\",\n    \"creator\": {\"name\": \"govhost-crawler\", \"version\": \"0.1\"},\n    \"entries\": [\n",
    );
    for (i, entry) in log.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "      {{\"request\": {{\"method\": \"GET\", \"url\": \"{url}\"}}, \"response\": {{\"status\": 200, \"content\": {{\"mimeType\": \"{mime}\", \"size\": {size}}}, \"_transferSize\": {size}}}, \"_depth\": {depth}}}",
            url = escape_json(&entry.url.to_string()),
            mime = entry.content_type,
            size = entry.bytes,
            depth = entry.depth,
        ));
    }
    out.push_str(&format!(
        "\n    ],\n    \"_failures\": {}\n  }}\n}}\n",
        log.failures
    ));
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Minimal reader for our own HAR output: extracts `(url, size, depth)`
/// triples. Not a general JSON parser — a round-trip check for the
/// exporter and a convenience for tests and tools.
pub fn read_har_entries(json: &str) -> Vec<(String, u64, u32)> {
    let mut out = Vec::new();
    for chunk in json.split("\"request\"").skip(1) {
        let url = extract_str(chunk, "\"url\": \"");
        let size = extract_num(chunk, "\"size\": ");
        let depth = extract_num(chunk, "\"_depth\": ");
        if let (Some(url), Some(size), Some(depth)) = (url, size, depth) {
            out.push((url, size, depth as u32));
        }
    }
    out
}

fn extract_str(chunk: &str, key: &str) -> Option<String> {
    let start = chunk.find(key)? + key.len();
    let rest = &chunk[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn extract_num(chunk: &str, key: &str) -> Option<u64> {
    let start = chunk.find(key)? + key.len();
    let digits: String =
        chunk[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::har::HarEntry;
    use crate::resource::ContentType;

    fn sample_log() -> HarLog {
        let mut log = HarLog::new();
        log.push(HarEntry {
            url: "https://www.gub.uy/".parse().unwrap(),
            bytes: 8192,
            content_type: ContentType::Html,
            depth: 0,
        });
        log.push(HarEntry {
            url: "https://cdn.example.net/app.js".parse().unwrap(),
            bytes: 90000,
            content_type: ContentType::Script,
            depth: 0,
        });
        log.push(HarEntry {
            url: "https://www.gub.uy/tramites".parse().unwrap(),
            bytes: 7000,
            content_type: ContentType::Html,
            depth: 1,
        });
        log.record_failure();
        log
    }

    #[test]
    fn exports_valid_structure() {
        let json = to_har_json(&sample_log());
        assert!(json.contains("\"version\": \"1.2\""));
        assert!(json.contains("govhost-crawler"));
        assert!(json.contains("https://www.gub.uy/"));
        assert!(json.contains("\"_failures\": 1"));
        // Balanced braces (cheap sanity check of the hand-rolled JSON).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn round_trips_sizes_and_depths() {
        let log = sample_log();
        let json = to_har_json(&log);
        let entries = read_har_entries(&json);
        assert_eq!(entries.len(), log.entries.len());
        for (parsed, original) in entries.iter().zip(&log.entries) {
            assert_eq!(parsed.0, original.url.to_string());
            assert_eq!(parsed.1, original.bytes);
            assert_eq!(parsed.2, original.depth);
        }
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("tab\there"), "tab\\u0009here");
        let round = extract_str(&format!("\"url\": \"{}\"", escape_json("a\"b\\c")), "\"url\": \"");
        assert_eq!(round.as_deref(), Some("a\"b\\c"));
    }

    #[test]
    fn empty_log_exports() {
        let json = to_har_json(&HarLog::new());
        assert!(json.contains("\"entries\": [\n\n    ]"));
        assert!(read_har_entries(&json).is_empty());
    }
}
