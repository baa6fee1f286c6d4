//! The benchmark's side of an in-process connection.
//!
//! [`BenchConn`] is the client: the production event loop reads the
//! next request from it and writes the response into it. It hands out
//! one request at a time (a closed loop, one request in flight),
//! timestamps the hand-off and the last response byte, and checks each
//! response against its reference. Only the socket syscalls are
//! replaced; the pool, event loop, readiness and clock are production.

use crate::mix::{render_request, Class, Mix, Pick};
use govhost_det::DetRng;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// One framed response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub status: u16,
    pub body_len: usize,
    /// The response carried `Connection: close`.
    pub close: bool,
}

/// The header block of `bytes` (status line through the last header),
/// once the blank line that ends it has arrived.
pub fn split_head(bytes: &[u8]) -> Option<&str> {
    let end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    std::str::from_utf8(&bytes[..end]).ok()
}

/// Client-side HTTP/1.1 response framing over arbitrary write splits.
/// A response without a body (`304`, `204`, `1xx`) ends at its header
/// block; any other must declare `Content-Length`.
#[derive(Debug, Default)]
pub struct Framer {
    head: Vec<u8>,
    /// Set once the header block is parsed: the frame and its body
    /// bytes still to come.
    body: Option<(Frame, usize)>,
}

impl Framer {
    /// Feed response bytes. Returns the frame once its last byte has
    /// arrived; bytes past the end of a frame are an error, since one
    /// request is in flight at a time.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<Option<Frame>, String> {
        if self.body.is_none() {
            let scan_from = self.head.len().saturating_sub(3);
            self.head.extend_from_slice(bytes);
            let Some(end) = self.head[scan_from..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            else {
                return Ok(None);
            };
            let end = scan_from + end + 4;
            let frame = parse_head(&self.head[..end])?;
            let consumed_before = self.head.len() - bytes.len();
            bytes = &bytes[end - consumed_before..];
            self.head.clear();
            self.body = Some((frame, frame.body_len));
        }
        let (frame, left) = self.body.as_mut().expect("header block parsed above");
        if bytes.len() > *left {
            return Err(format!(
                "{} bytes past the end of a {} response",
                bytes.len() - *left,
                frame.status
            ));
        }
        *left -= bytes.len();
        if *left > 0 {
            return Ok(None);
        }
        let frame = *frame;
        self.body = None;
        Ok(Some(frame))
    }
}

fn parse_head(head: &[u8]) -> Result<Frame, String> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let (mut length, mut close) = (None, false);
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let bodyless = status == 304 || status == 204 || status < 200;
    let body_len = match (bodyless, length) {
        (true, _) => 0,
        (false, Some(n)) => n,
        (false, None) => return Err(format!("{status} response without Content-Length")),
    };
    Ok(Frame {
        status,
        body_len,
        close,
    })
}

/// What one connection did, sent back to `drive` when it closes.
#[derive(Debug, Default)]
pub struct ConnReport {
    pub attempted: u64,
    pub failed: u64,
    /// Hand-off to last response byte, per completed request, in ns.
    pub latencies_ns: Vec<u32>,
    /// Completion time of the same requests, in µs since the origin.
    pub ends_us: Vec<u32>,
    /// `(request id, start ns, end ns)` per request, when traced.
    pub spans: Vec<(u64, u64, u64)>,
    /// Requests per [`Class`], in `Class::ALL` order.
    pub per_class: [u64; 5],
    pub status_304: u64,
    pub status_400: u64,
    /// Why the connection ended before its last request, if it did.
    pub error: Option<String>,
}

/// The in-flight request.
#[derive(Debug)]
struct Pending {
    pick: Pick,
    id: u64,
    handed: usize,
    start: Instant,
}

/// A closed-loop client connection of `requests` keep-alive requests,
/// the last of which asks the server to close.
pub struct BenchConn {
    mix: Arc<Mix>,
    rng: DetRng,
    first_id: u64,
    requests: u64,
    sent: u64,
    request: Vec<u8>,
    pending: Option<Pending>,
    framer: Framer,
    origin: Instant,
    trace: bool,
    report: ConnReport,
    done: Option<Sender<ConnReport>>,
}

impl BenchConn {
    /// Connection number `conn`; its requests have global ids
    /// `conn * requests ..`.
    pub fn new(
        mix: Arc<Mix>,
        conn: u64,
        requests: u64,
        origin: Instant,
        trace: bool,
        done: Sender<ConnReport>,
    ) -> BenchConn {
        let rng = mix.rng_for(conn);
        BenchConn {
            mix,
            rng,
            first_id: conn * requests,
            requests,
            sent: 0,
            request: Vec::new(),
            pending: None,
            framer: Framer::default(),
            origin,
            trace,
            report: ConnReport {
                latencies_ns: Vec::with_capacity(requests as usize),
                ends_us: Vec::with_capacity(requests as usize),
                ..ConnReport::default()
            },
            done: Some(done),
        }
    }

    fn fail(&mut self, why: String) {
        self.report.failed += 1;
        self.report.error.get_or_insert(why);
    }

    fn complete(&mut self, frame: Frame, end: Instant) {
        let pending = self
            .pending
            .take()
            .expect("a response answers the pending request");
        let ns = end.duration_since(pending.start).as_nanos();
        self.report
            .latencies_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
        let end_ns = end.duration_since(self.origin).as_nanos();
        self.report
            .ends_us
            .push(u32::try_from(end_ns / 1000).unwrap_or(u32::MAX));
        if self.trace {
            let start = pending.start.duration_since(self.origin).as_nanos() as u64;
            self.report
                .spans
                .push((pending.id, start, start + ns as u64));
        }
        self.sent += 1;
        let expect = self.mix.target(pending.pick).expect;
        let last = self.sent == self.requests;
        if frame.status != expect.status || expect.body_len.is_some_and(|n| n != frame.body_len) {
            let why = format!(
                "{}: got {} with {} body bytes, expected {expect:?}",
                self.mix.target(pending.pick).path,
                frame.status,
                frame.body_len
            );
            self.fail(why);
        } else if frame.close != last {
            self.fail(format!(
                "request {} of {}: Connection: close = {}",
                self.sent, self.requests, frame.close
            ));
        }
        match frame.status {
            304 => self.report.status_304 += 1,
            400 => self.report.status_400 += 1,
            _ => {}
        }
    }
}

impl Read for BenchConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_none() {
            if self.sent == self.requests {
                return Err(ErrorKind::WouldBlock.into());
            }
            let id = self.first_id + self.sent;
            let pick = self.mix.draw(&mut self.rng, id);
            let target = self.mix.target(pick);
            self.request.clear();
            if self.sent + 1 == self.requests {
                let etag =
                    (pick.class == Class::Conditional).then(|| conditional_etag(&target.request));
                self.request
                    .extend(render_request(&target.path, etag.flatten(), true));
            } else {
                self.request.extend_from_slice(&target.request);
            }
            self.report.attempted += 1;
            let class = Class::ALL
                .iter()
                .position(|c| *c == pick.class)
                .expect("every class is listed");
            self.report.per_class[class] += 1;
            self.pending = Some(Pending {
                pick,
                id,
                handed: 0,
                start: Instant::now(),
            });
        }
        let pending = self.pending.as_mut().expect("set above");
        if pending.handed == self.request.len() {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.request.len() - pending.handed);
        buf[..n].copy_from_slice(&self.request[pending.handed..pending.handed + n]);
        pending.handed += n;
        Ok(n)
    }
}

/// The `If-None-Match` value of a rendered conditional request.
fn conditional_etag(request: &[u8]) -> Option<&str> {
    let head = std::str::from_utf8(request).ok()?;
    head.split("\r\n")
        .find_map(|line| line.strip_prefix("If-None-Match: "))
}

impl Write for BenchConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// Takes every slice, as `writev` on a socket with room would.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let mut total = 0;
        for buf in bufs {
            total += buf.len();
            if self.pending.is_none() {
                if !buf.is_empty() {
                    self.fail(format!(
                        "{} response bytes with no request in flight",
                        buf.len()
                    ));
                }
                continue;
            }
            match self.framer.feed(buf) {
                Ok(Some(frame)) => self.complete(frame, Instant::now()),
                Ok(None) => {}
                Err(e) => self.fail(e),
            }
        }
        Ok(total)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for BenchConn {
    fn drop(&mut self) {
        if self.sent < self.requests {
            self.fail(format!(
                "closed after {} of {} requests",
                self.sent, self.requests
            ));
        }
        if let Some(done) = self.done.take() {
            let _ = done.send(std::mem::take(&mut self.report));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_304_without_content_length_ends_at_its_head() {
        let mut framer = Framer::default();
        let bytes = b"HTTP/1.1 304 Not Modified\r\nServer: govhost-serve\r\nETag: \"abc\"\r\nConnection: keep-alive\r\n\r\n";
        // Split mid-terminator: the frame completes only with the last byte.
        assert_eq!(framer.feed(&bytes[..bytes.len() - 2]).unwrap(), None);
        let frame = framer.feed(&bytes[bytes.len() - 2..]).unwrap().unwrap();
        assert_eq!(
            frame,
            Frame {
                status: 304,
                body_len: 0,
                close: false
            }
        );
    }

    #[test]
    fn bodies_frame_across_writes_and_overruns_fail() {
        let mut framer = Framer::default();
        assert_eq!(
            framer
                .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nab")
                .unwrap(),
            None
        );
        let frame = framer.feed(b"cde").unwrap().unwrap();
        assert_eq!(
            frame,
            Frame {
                status: 200,
                body_len: 5,
                close: true
            }
        );
        assert!(framer
            .feed(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nxy")
            .is_err());
        let mut framer = Framer::default();
        assert!(
            framer.feed(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "a 200 needs a length"
        );
    }
}
