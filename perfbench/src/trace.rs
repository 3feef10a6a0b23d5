//! In-memory spans and per-name self-time summaries.
//!
//! A span is (name, start, end, parent, op id). Spans are only recorded
//! from this crate, around calls into the program's public functions;
//! they stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. Each thread owns one; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    /// An instant as an offset from this tracer's t0.
    pub fn at(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.t0)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records a span with explicit bounds (relative to the tracer's t0).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another tracer's spans (same t0), re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children's intervals cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals: (count, total duration, total self time).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.duration();
            entry.2 += own;
        }
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes the spans as TSV: index, name, start_us, end_us, parent, op.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tname\tstart_us\tend_us\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let ms = Duration::from_millis;
        let root = t.record("op", ms(0), ms(100), None, 1);
        t.record("a", ms(10), ms(40), Some(root), 1);
        t.record("b", ms(30), ms(50), Some(root), 1);
        t.record("c", ms(90), ms(120), Some(root), 1);
        let own = t.self_times();
        // Children cover 10..50 and 90..100: 50 ms of the root's 100.
        assert_eq!(own[root], ms(50));
        assert_eq!(own[1], ms(30));
    }
}
