//! In-memory span recorder around the harness's calls into each layer.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`], which
//! always measure wall time; with recording on they also keep a span (name,
//! start, end, parent). Layers are the span-name prefix before the first
//! `.` (`encode.compress` belongs to `encode`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    pub recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open timing; hand it back to [`Tracer::end`].
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        });
        Open { start, id }
    }

    /// Close `open`, returning its wall time in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
        (end - open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, summed over the spans in `ids`: each span's
    /// duration minus the part its direct children cover. `ids` must hold
    /// whole trees (every span's parent is in `ids` or is none).
    pub fn layer_self_seconds(&self, ids: Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[ids.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - ids.start] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per line: id, name, start/end in ns since the
    /// tracer was created, and the parent's id (or null).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let round = t.begin("bench.round");
        let c = t.begin("encode.compress");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(c);
        t.end(round);
        let probe = t.begin("bench.probe_round");
        let d = t.begin("decode.parse");
        t.end(d);
        t.end(probe);

        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.layer_self_seconds(0..4);
        assert!(own["encode"] >= 0.005);
        let total: u64 = [0, 2]
            .iter()
            .map(|&i| spans[i].end_ns - spans[i].start_ns)
            .sum();
        let sum: f64 = own.values().sum();
        assert!(
            (sum - total as f64 * 1e-9).abs() < 1e-6,
            "self times partition the roots"
        );
        assert!(own.contains_key("decode"));
        let probe = t.layer_self_seconds(2..4);
        assert!(probe.contains_key("decode") && !probe.contains_key("encode"));
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let o = t.begin("encode.compress");
        assert!(t.end(o) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
