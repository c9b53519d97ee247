//! In-memory span recorder for the traced run.
//!
//! A span marks one call from the benchmark into a layer of the program:
//! its name, start, end, the span that caused it, and the cell or job it
//! served. Parents are passed explicitly, so spans opened on worker
//! threads still nest under the pass that spawned them. Spans stay in
//! memory until the run ends; [`Tracer::write_jsonl`] then writes them out
//! in one go. A disabled tracer records nothing and costs one branch per
//! call. The untraced grid runs call the program's `run_grid_full`; the
//! traced run drives the grid with the benchmark's own workers, and its
//! tracing overhead is measured against that same runner with the tracer
//! off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::POISONED;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The cell, job or kernel the span served.
    pub owner: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f` the
    /// new span's id for its own children (`None` when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        owner: &dyn Fn() -> String,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect(POISONED).push(Span {
            id,
            parent,
            name,
            owner: owner(),
            start_ns,
            end_ns,
        });
        out
    }

    /// A snapshot of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect(POISONED).clone()
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.spans.lock().expect(POISONED).iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"owner\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.owner.replace('"', "'"),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.clone(), s.dur_ns() - covered)
        })
        .collect()
}

/// Summed self time, in milliseconds, per span name.
#[must_use]
pub fn self_ms_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    let mut out = std::collections::BTreeMap::new();
    for (s, t) in self_times(spans) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Summed duration, in milliseconds, of every span named `name`.
#[must_use]
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            owner: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(t[0].1, 50);
        assert_eq!(t[1].1, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, &String::new, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("outer", None, &|| "cell".into(), |id| {
            t.span("inner", id, &String::new, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
