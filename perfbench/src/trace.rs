//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer: name,
//! start, end, parent span and request id. Spans stay in memory until
//! the run ends and are written out then. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Request the call served; spans of one request share it.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id (also used as request id).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span that ran from `start` to `end` under `parent`;
    /// returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.id();
        self.push(id, name, parent, request, start, end);
        id
    }

    /// Record the root span of `request`, whose id is the request id, so
    /// its children can name it as parent before it ends.
    pub fn record_root(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.push(request, name, 0, request, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Time `f` as a span; returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span lock").iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, µs: its duration minus the part of its
/// interval covered by its children (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 10_000),
            span(2, 1, 1_000, 4_000),
            // Overlaps the first child by 1 µs; counted once.
            span(3, 1, 3_000, 6_000),
            span(4, 3, 3_000, 3_500),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 5.0);
        assert_eq!(st[&2], 3.0);
        assert_eq!(st[&3], 2.5);
        assert_eq!(st[&4], 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, now, now), 0);
        assert_eq!(t.time("y", 0, 0, || 7), 7);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let request = on.id();
        let child = on.record("x", request, request, now, Instant::now());
        on.record_root("r", request, now, Instant::now());
        let spans = on.spans();
        assert_eq!((spans[0].id, spans[0].parent), (child, request));
        assert_eq!(
            (spans[1].id, spans[1].parent, spans[1].request),
            (request, 0, request)
        );
    }
}
