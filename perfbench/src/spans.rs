//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the program's layers from the outside (`prepare`,
//! `register`, `spmm`, `submit`, the wait on a response, `mutate`,
//! `quiesce_compactions`, `stats`). Each span has a name, a start, an end,
//! a parent, and the id of the operation it belongs to, so every span of
//! one request shares an id. Spans live in memory on the single client
//! thread and are written out as Chrome Trace Event JSON at exit. With the
//! recorder off, [`Tracer::call`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation id shared by every span of one request (or one pass).
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from the spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Drops every recorded span (a repeated set-up keeps only its last
    /// round's spans).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.begin(name, op);
        let out = f();
        self.end(idx);
        out
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[idx].end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
    }

    /// Records an interval measured elsewhere (the wait on one response,
    /// which overlaps the waits on the rest of its burst).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the part of it covered by the union of its children.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in covered {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        union += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                union += cb - ca;
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += s.dur_ns() as f64 / 1e6;
            e.self_ms += s.dur_ns().saturating_sub(union) as f64 / 1e6;
        }
        out
    }

    /// Chrome Trace Event JSON ("X" complete events on one client track),
    /// loadable by Perfetto and `chrome://tracing`.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            json::string(process_name)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                json::string(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.dur_ns() as f64 / 1e3),
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("burst", 0);
        let base = Instant::now();
        // Two overlapping children covering [0, 30) ms of the root.
        t.record("wait", 1, base, base + Duration::from_millis(20));
        t.record(
            "wait",
            2,
            base + Duration::from_millis(10),
            base + Duration::from_millis(30),
        );
        std::thread::sleep(Duration::from_millis(40));
        t.end(root);
        let lt = t.layer_times();
        let burst = &lt["burst"];
        assert_eq!(lt["wait"].count, 2);
        assert!((lt["wait"].total_ms - 40.0).abs() < 1.0);
        assert!(burst.total_ms >= 40.0);
        assert!((burst.total_ms - burst.self_ms - 30.0).abs() < 1.0);
        let trace = json::parse(&t.chrome_trace("test")).unwrap();
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(json::Value::as_array)
                .map(<[_]>::len),
            Some(4)
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.call("spmm", 0, || 7), 7);
        assert!(t.layer_times().is_empty());
    }
}
