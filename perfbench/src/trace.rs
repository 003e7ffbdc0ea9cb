//! In-memory span recorder for the traced run.
//!
//! Spans (name, start, end, parent) are recorded around calls into each
//! layer's public functions, kept in memory, and written out once at the
//! end as Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`) and as a self-time table. A disabled tracer
//! records nothing, so the untraced run pays one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the part covered by direct children.
    pub self_s: f64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            self.tracer.spans.borrow_mut()[i].end = self.tracer.origin.elapsed();
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let now = self.origin.elapsed();
        spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.stack.borrow().last().copied(),
        });
        self.stack.borrow_mut().push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.enter(name);
        f()
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds of the last span named `name` and of its direct children.
    pub fn last_with_children(&self, name: &str) -> Option<(f64, f64)> {
        let spans = self.spans.borrow();
        let i = spans.iter().rposition(|s| s.name == name)?;
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::secs)
            .sum();
        Some((spans[i].secs(), children))
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_s) {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_s += s.secs();
            e.self_s += s.secs() - covered;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span
    /// on a single thread track, so nesting shows as a flame chart.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| format!("\"{}\"", spans[p].name));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or("bench"),
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.enter("outer");
            t.time("inner", || std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        }
        let table = t.self_times();
        let outer = &table["outer"];
        let inner = &table["inner"];
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        let (wall, children) = t.last_with_children("outer").unwrap();
        assert!((children - inner.total_s).abs() < 1e-9 && wall >= children);
        assert!(t.chrome_json().contains("\"parent\":\"outer\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.time("x", || ());
        assert!(t.durations("x").is_empty());
        assert!(t.self_times().is_empty());
    }
}
