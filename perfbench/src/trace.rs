//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are recorded from the benchmark's side of each public call:
//! nothing inside the program is instrumented. A disabled tracer runs
//! the wrapped call and records nothing, so traced and untraced code
//! share one path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The request a serve span belongs to.
    pub req: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; spans nest through the closures of [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_req(name, None, f)
    }

    /// Run `f` inside a span named `name` that carries a request id.
    pub fn span_req<R>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a span timed elsewhere (a pool connection's request),
    /// under the currently open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: Option<u64>) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    /// Children of one span run one after another, so their durations
    /// add up to the covered part.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// For every span named `root`, the summed duration (ms) of the
    /// spans named `name` below it: a layer's time per op.
    pub fn per_root_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<usize, f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for span in self.spans.iter().filter(|s| s.name == name) {
            if let Some(r) = self.ancestor_named(span, root) {
                *totals.get_mut(&r).expect("root collected above") += span.dur_ns() as f64 / 1e6;
            }
        }
        totals.into_values().collect()
    }

    fn ancestor_named(&self, span: &Span, root: &str) -> Option<usize> {
        let mut at = span.parent;
        while let Some(i) = at {
            if self.spans[i].name == root {
                return Some(i);
            }
            at = self.spans[i].parent;
        }
        None
    }

    /// Per span name: calls, inclusive ms and self ms, in name order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ns();
        let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.dur_ns();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(n, (c, inc, own))| (n, c, inc as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }

    /// Write the spans `keep` accepts as CSV
    /// (`id,parent,req,name,start_ns,end_ns`); returns how many.
    pub fn write_csv(
        &self,
        path: &Path,
        mut keep: impl FnMut(&Span) -> bool,
    ) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s) {
                continue;
            }
            written += 1;
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let req = s.req.map_or(String::new(), |r| r.to_string());
            writeln!(
                out,
                "{i},{parent},{req},{},{},{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| ());
        });
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(t.per_root_ms("op", "a").len(), 1);
        assert!(t.per_root_ms("op", "a")[0] >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("op", |_| 7), 7);
        t.record("x", 0, 1, Some(1));
        assert!(t.spans().is_empty());
    }
}
