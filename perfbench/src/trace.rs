//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! never inside the program.  They stay in memory while the run measures
//! and are written out once it ends.  A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Span recorder of one thread.  When off, [`Tracer::span`] only runs its
/// closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Operation id stamped on every span opened from now on.
    pub op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Move every span of `other` into this recorder (per-thread recorders
    /// of one run are merged before the run is summarised).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child) {
            let own = (span.end - span.start).saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(6)));
        });
        let ms = t.self_ms();
        assert!(ms["inner"] >= 6.0);
        assert!(ms["outer"] >= 4.0 && ms["outer"] < 6.0 + 4.0);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.self_ms().is_empty());
    }
}
