//! Incremental HTTP/1.1 request parsing with hard limits.
//!
//! The parser consumes bytes pushed into an internal buffer
//! ([`RequestParser::push`]) and yields complete [`Request`]s
//! ([`RequestParser::next_request`]), leaving any pipelined remainder
//! buffered for the next call. Every limit in [`Limits`] maps to a
//! typed [`HttpError`] with a concrete status code, and limits are
//! enforced *incrementally* — an attacker cannot make the server buffer
//! an unbounded request line, header block, or body before being
//! rejected.
//!
//! Scope: origin-form targets, strict CRLF line endings, `Content-Length`
//! bodies only (`Transfer-Encoding` is rejected with 400). That is the
//! full surface the `govhost-serve` router needs, and a deliberately
//! small one to harden: `tests/prop_http.rs` feeds the parser arbitrary
//! bytes in arbitrary chunkings and requires it never panics.

/// Hard limits on one request. Exceeding any of them produces a typed
/// [`HttpError`] instead of unbounded buffering.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    /// Exceeding it is `414 URI Too Long`.
    pub max_request_line: usize,
    /// Longest accepted header block, bytes. Exceeding it is
    /// `431 Request Header Fields Too Large`.
    pub max_header_bytes: usize,
    /// Most accepted header fields. Exceeding it is `431`.
    pub max_headers: usize,
    /// Largest accepted `Content-Length` body, bytes. Exceeding it is
    /// `400 Bad Request`.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8192,
            max_header_bytes: 16384,
            max_headers: 64,
            max_body: 65536,
        }
    }
}

/// A typed request-rejection: every variant maps to one HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// `400`: malformed request line, malformed or conflicting headers,
    /// truncated or oversized body, unsupported transfer coding.
    BadRequest(&'static str),
    /// `400` with a dynamic detail naming the offending query
    /// parameter (e.g. `unknown parameter "verbose"`). Kept separate
    /// from [`HttpError::BadRequest`] so parse-layer rejections stay
    /// `&'static str` while the query engine can name what it saw.
    InvalidQuery(String),
    /// `404`: the router knows no such path (or no such country code).
    NotFound,
    /// `405`: the router serves `GET` and `HEAD` only.
    MethodNotAllowed,
    /// `414`: the request line exceeds [`Limits::max_request_line`].
    UriTooLong,
    /// `431`: the header block exceeds [`Limits::max_header_bytes`] or
    /// [`Limits::max_headers`].
    HeaderFieldsTooLarge(&'static str),
    /// `503`: the server shed this connection because the accept/ready
    /// queue is saturated. The response carries `Retry-After` so
    /// well-behaved clients back off instead of hammering.
    Overloaded,
}

impl HttpError {
    /// The HTTP status code of this rejection.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) | HttpError::InvalidQuery(_) => 400,
            HttpError::NotFound => 404,
            HttpError::MethodNotAllowed => 405,
            HttpError::UriTooLong => 414,
            HttpError::HeaderFieldsTooLarge(_) => 431,
            HttpError::Overloaded => 503,
        }
    }

    /// The canonical reason phrase for [`HttpError::status`].
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::BadRequest(_) | HttpError::InvalidQuery(_) => "Bad Request",
            HttpError::NotFound => "Not Found",
            HttpError::MethodNotAllowed => "Method Not Allowed",
            HttpError::UriTooLong => "URI Too Long",
            HttpError::HeaderFieldsTooLarge(_) => "Request Header Fields Too Large",
            HttpError::Overloaded => "Service Unavailable",
        }
    }

    /// A short machine-stable detail string for the response body.
    pub fn detail(&self) -> &str {
        match self {
            HttpError::BadRequest(d) | HttpError::HeaderFieldsTooLarge(d) => d,
            HttpError::InvalidQuery(d) => d,
            HttpError::NotFound => "no such route",
            HttpError::MethodNotAllowed => "only GET and HEAD are served",
            HttpError::UriTooLong => "request line too long",
            HttpError::Overloaded => "server overloaded, retry shortly",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status(), self.reason(), self.detail())
    }
}

impl std::error::Error for HttpError {}

/// The HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0` — connections close by default.
    Http10,
    /// `HTTP/1.1` — connections are keep-alive by default.
    Http11,
}

/// One fully-parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The raw origin-form target, including any query string,
    /// exactly as it appeared on the wire (no decoding).
    pub target: String,
    /// The HTTP version.
    pub version: Version,
    /// Header fields in arrival order, values trimmed of optional
    /// whitespace.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length` body (empty when none was declared).
    pub body: Vec<u8>,
    /// The percent-decoded path portion of `target` (before any `?`).
    path: String,
    /// The raw query string after the first `?`, if present. Stays
    /// undecoded here: the query engine decodes each component
    /// separately so `%26` inside a value does not become a separator.
    query: Option<String>,
}

impl Request {
    /// The percent-decoded target path, without the query string.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw (undecoded) query string after the first `?`, if the
    /// target carried one. `Some("")` means a bare trailing `?`.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection stays open after this exchange. Every
    /// `Connection` field is one comma-separated token list (RFC 9110
    /// §7.6.1), matched case-insensitively: a `close` token anywhere
    /// forces a close, else a `keep-alive` token forces keep-alive,
    /// else the version default applies.
    pub fn keep_alive(&self) -> bool {
        let mut keep_alive = false;
        let tokens = self
            .headers
            .iter()
            .filter(|(name, _)| name.eq_ignore_ascii_case("connection"))
            .flat_map(|(_, value)| value.split(','))
            .map(|token| token.trim_matches([' ', '\t']));
        for token in tokens {
            if token.eq_ignore_ascii_case("close") {
                return false;
            }
            keep_alive |= token.eq_ignore_ascii_case("keep-alive");
        }
        keep_alive || self.version == Version::Http11
    }
}

/// The incremental parser: a byte buffer plus the [`Limits`] it
/// enforces while the buffer grows.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    limits: Limits,
}

/// Find the first occurrence of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// RFC 9110 `tchar`: the characters legal in a method or header name.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

impl RequestParser {
    /// A fresh parser enforcing `limits`.
    pub fn new(limits: Limits) -> RequestParser {
        RequestParser { buf: Vec::new(), limits }
    }

    /// Append newly-received bytes to the buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether undelivered bytes remain buffered (an EOF here means a
    /// truncated request).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Try to parse the next complete request out of the buffer.
    ///
    /// `Ok(Some(_))` consumes the request's bytes (pipelined successors
    /// stay buffered); `Ok(None)` means more bytes are needed; `Err(_)`
    /// means the connection should answer with the error and close.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        // Request line, with incremental length enforcement.
        let Some(line_end) = find(&self.buf, b"\r\n") else {
            if self.buf.len() > self.limits.max_request_line {
                return Err(HttpError::UriTooLong);
            }
            if self.buf.contains(&b'\n') {
                return Err(HttpError::BadRequest("bare LF in request line"));
            }
            return Ok(None);
        };
        if line_end > self.limits.max_request_line {
            return Err(HttpError::UriTooLong);
        }
        let (method, target, version) = parse_request_line(&self.buf[..line_end])?;

        // Header block, with incremental size enforcement. `head_end`
        // points at the "\r\n\r\n" terminator.
        let Some(rel) = find(&self.buf[line_end..], b"\r\n\r\n") else {
            if self.buf.len() - (line_end + 2) > self.limits.max_header_bytes {
                return Err(HttpError::HeaderFieldsTooLarge("header block too large"));
            }
            return Ok(None);
        };
        let head_end = line_end + rel;
        if head_end - line_end > self.limits.max_header_bytes {
            return Err(HttpError::HeaderFieldsTooLarge("header block too large"));
        }
        let headers = parse_headers(&self.buf[line_end + 2..head_end + 2], &self.limits)?;

        // Body: Content-Length only; Transfer-Encoding is out of scope.
        if headers.iter().any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding")) {
            return Err(HttpError::BadRequest("transfer-encoding unsupported"));
        }
        let body_len = content_length(&headers, &self.limits)?;
        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        let (path, query) = match target.find('?') {
            Some(q) => (&target[..q], Some(target[q + 1..].to_string())),
            None => (target.as_str(), None),
        };
        let path = percent_decode(path)
            .map_err(HttpError::BadRequest)?;
        Ok(Some(Request { method, target, version, headers, body, path, query }))
    }
}

/// Strictly percent-decode one target component.
///
/// Rejections (all `400`): a `%` not followed by two hex digits, a
/// decoded control byte (anything below 0x20, or 0x7f) — those can
/// smuggle CRLF or NUL past the request-line checks — and byte
/// sequences that do not decode to UTF-8. Unreserved bytes pass
/// through unchanged; this is a decoder, not a normalizer.
pub fn percent_decode(raw: &str) -> Result<String, &'static str> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' {
            let (Some(&hi), Some(&lo)) = (bytes.get(i + 1), bytes.get(i + 2)) else {
                return Err("truncated percent-escape");
            };
            let (Some(hi), Some(lo)) = ((hi as char).to_digit(16), (lo as char).to_digit(16))
            else {
                return Err("non-hex percent-escape");
            };
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(b);
            i += 1;
        }
    }
    if out.iter().any(|&b| b < 0x20 || b == 0x7f) {
        return Err("percent-escape decodes to a control byte");
    }
    String::from_utf8(out).map_err(|_| "percent-escapes decode to invalid UTF-8")
}

/// Parse `METHOD SP target SP HTTP/1.x` (single spaces, no extras).
fn parse_request_line(line: &[u8]) -> Result<(String, String, Version), HttpError> {
    if line.is_empty() {
        return Err(HttpError::BadRequest("empty request line"));
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8"))?;
    let mut parts = text.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest("request line is not 'METHOD TARGET VERSION'"));
    };
    if method.is_empty() || !method.bytes().all(is_tchar) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest("target must be origin-form"));
    }
    if target.bytes().any(|b| b.is_ascii_control()) {
        return Err(HttpError::BadRequest("control bytes in target"));
    }
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };
    Ok((method.to_string(), target.to_string(), version))
}

/// Parse the header block (every line still ends with `\r\n`).
fn parse_headers(
    block: &[u8],
    limits: &Limits,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let end = find(rest, b"\r\n").expect("block is CRLF-terminated lines");
        let line = &rest[..end];
        rest = &rest[end + 2..];
        if headers.len() == limits.max_headers {
            return Err(HttpError::HeaderFieldsTooLarge("too many header fields"));
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8"))?;
        if text.starts_with(' ') || text.starts_with('\t') {
            return Err(HttpError::BadRequest("obsolete header folding"));
        }
        if text.contains('\n') || text.contains('\r') {
            return Err(HttpError::BadRequest("bare CR or LF in header"));
        }
        let Some(colon) = text.find(':') else {
            return Err(HttpError::BadRequest("header line without colon"));
        };
        let name = &text[..colon];
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        let value = text[colon + 1..].trim_matches([' ', '\t']);
        headers.push((name.to_string(), value.to_string()));
    }
    Ok(headers)
}

/// Resolve the declared body length: absent means zero, repeated
/// headers must agree, the value must be pure digits within
/// [`Limits::max_body`].
fn content_length(headers: &[(String, String)], limits: &Limits) -> Result<usize, HttpError> {
    let mut declared: Option<&str> = None;
    for (k, v) in headers {
        if k.eq_ignore_ascii_case("content-length") {
            match declared {
                Some(prev) if prev != v => {
                    return Err(HttpError::BadRequest("conflicting content-length"));
                }
                _ => declared = Some(v),
            }
        }
    }
    let Some(raw) = declared else { return Ok(0) };
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadRequest("malformed content-length"));
    }
    let len: usize =
        raw.parse().map_err(|_| HttpError::BadRequest("content-length overflows"))?;
    if len > limits.max_body {
        return Err(HttpError::BadRequest("body exceeds the size limit"));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new(Limits::default());
        p.push(bytes);
        p.next_request()
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse_one(b"GET /hhi?x=1 HTTP/1.1\r\nHost: a\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/hhi");
        assert_eq!(req.header("host"), Some("a"));
        assert!(req.keep_alive());
    }

    #[test]
    fn incremental_push_completes_the_request() {
        let mut p = RequestParser::new(Limits::default());
        for chunk in [&b"GET / HT"[..], b"TP/1.1\r\nA:", b" b\r\n\r"] {
            p.push(chunk);
            assert!(p.next_request().unwrap().is_none());
        }
        p.push(b"\n");
        assert!(p.next_request().unwrap().is_some());
        assert!(!p.has_partial());
    }

    #[test]
    fn body_is_delivered_and_pipelined_remainder_stays() {
        let mut p = RequestParser::new(Limits::default());
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET / HTTP/1.1\r\n\r\n");
        let first = p.next_request().unwrap().unwrap();
        assert_eq!(first.body, b"abc");
        let second = p.next_request().unwrap().unwrap();
        assert_eq!(second.method, "GET");
    }

    #[test]
    fn limits_fire_before_the_request_completes() {
        let limits = Limits { max_request_line: 16, ..Limits::default() };
        let mut p = RequestParser::new(limits);
        p.push(&[b'A'; 64]);
        assert_eq!(p.next_request(), Err(HttpError::UriTooLong));

        let limits = Limits { max_header_bytes: 16, ..Limits::default() };
        let mut p = RequestParser::new(limits);
        p.push(b"GET / HTTP/1.1\r\nX: ");
        p.push(&[b'y'; 64]);
        assert!(matches!(p.next_request(), Err(HttpError::HeaderFieldsTooLarge(_))));
    }

    #[test]
    fn malformed_inputs_are_bad_requests() {
        for bad in [
            &b"GET /\r\n\r\n"[..],
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET  / HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\nHost: a\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColon\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse_one(bad), Err(HttpError::BadRequest(_))),
                "expected 400 for {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn path_is_percent_decoded_and_query_kept_raw() {
        let req = parse_one(b"GET /country/%55%53?x=%311 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.path(), "/country/US");
        assert_eq!(req.query(), Some("x=%311"), "query components stay undecoded");
        assert_eq!(req.target, "/country/%55%53?x=%311", "wire target is verbatim");

        let req = parse_one(b"GET /hhi? HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query(), Some(""), "bare trailing '?' is an empty query");
        let req = parse_one(b"GET /hhi HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query(), None);
    }

    #[test]
    fn hostile_percent_escapes_in_the_path_are_rejected() {
        for bad in [
            &b"GET /x% HTTP/1.1\r\n\r\n"[..],     // truncated escape
            b"GET /x%2 HTTP/1.1\r\n\r\n",         // truncated escape
            b"GET /x%zz HTTP/1.1\r\n\r\n",        // non-hex
            b"GET /x%00 HTTP/1.1\r\n\r\n",        // NUL
            b"GET /x%0d%0a HTTP/1.1\r\n\r\n",     // CRLF smuggling
            b"GET /x%7f HTTP/1.1\r\n\r\n",        // DEL
            b"GET /x%ff HTTP/1.1\r\n\r\n",        // invalid UTF-8
        ] {
            assert!(
                matches!(parse_one(bad), Err(HttpError::BadRequest(_))),
                "expected 400 for {:?}",
                String::from_utf8_lossy(bad)
            );
        }
        // But escapes in the query do not fail at parse time: the query
        // engine owns per-component decoding.
        let req = parse_one(b"GET /hhi?x=% HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query(), Some("x=%"));
    }

    #[test]
    fn percent_decode_accepts_multibyte_utf8() {
        assert_eq!(percent_decode("%C3%A9tat").unwrap(), "état");
        assert_eq!(percent_decode("plain-safe_~").unwrap(), "plain-safe_~");
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let req =
            parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req =
            parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive());
        let req = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
    }
}
