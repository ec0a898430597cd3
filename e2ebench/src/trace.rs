//! The benchmark's span recorder: spans around calls into each layer's
//! public functions, recorded from the benchmark's own code.
//!
//! A span has a name (`layer.call`), a start and end on one monotonic
//! clock, and the span that caused it. Spans stay in memory until the
//! run ends; [`Tracer::write`] then saves them as one JSON document. A
//! layer's self time is the summed duration of its spans minus the part
//! of each interval that child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder, shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it ends when [`Tracer::close`] is called with the
    /// returned id.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Summed duration in milliseconds of every span named `name` or
    /// named with `name.` as a prefix.
    pub fn total_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("no span holder panics");
        spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span holder panics").len()
    }

    /// Self time in milliseconds per layer, where a span's layer is its
    /// name up to the first `.`.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut layers = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            *layers.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        layers
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no span holder panics");
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n")))
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (45, 48)];
        assert_eq!(covered_ns(&mut v, 0, 100), 30);
        // Clipped to the parent's interval.
        let mut v = vec![(0, 20), (90, 120)];
        assert_eq!(covered_ns(&mut v, 10, 100), 20);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.open("op.test", None);
        t.span("work.child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.close(root);
        let layers = t.self_ms_by_layer();
        let child = layers["work"];
        assert!(child >= 5.0, "{child}");
        assert!((layers["op"] + child - total).abs() < 1e-6);
        assert_eq!(t.len(), 2);
        assert!((t.total_ms("work.child") - child).abs() < 1e-9);
        assert!((t.total_ms("work") - child).abs() < 1e-9);
        assert_eq!(t.total_ms("wor"), 0.0);
    }
}
