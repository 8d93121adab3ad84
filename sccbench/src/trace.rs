//! In-memory spans for the traced run.
//!
//! The benchmark times each layer from outside, around calls into that
//! layer's public functions; the program itself carries no tracing. A
//! span has a name, start, end, the span that caused it, and the id of
//! the request it belongs to. Spans stay in memory until the run ends,
//! then go to a JSON-lines file.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer. Threads record into their own tracer and
/// the buffers are merged with [`Tracer::absorb`] after the join, so
/// recording takes no lock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> (R, SpanId) {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        let r = f(self, id);
        self.spans[id].end = self.epoch.elapsed();
        (r, id)
    }

    /// Records a span measured elsewhere (e.g. a wire round trip timed
    /// by a client thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: None,
            request,
        });
    }

    /// Moves `other`'s spans into `self`, re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut ivs: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                ivs.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in ivs {
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

    /// Self times of every span called `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request,
                own.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let ms = Duration::from_millis;
        t.spans = vec![
            Span {
                name: "root",
                start: ms(0),
                end: ms(10),
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start: ms(1),
                end: ms(4),
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start: ms(3),
                end: ms(6),
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "leaf",
                start: ms(1),
                end: ms(2),
                parent: Some(1),
                request: 1,
            },
        ];
        let selfs = t.self_times();
        // Children cover [1,6) of the root, overlapping intervals once.
        assert_eq!(selfs, vec![ms(5), ms(2), ms(3), ms(1)]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", None, 0, |_, _| ());
        let mut b = Tracer::new(epoch);
        b.span("outer", None, 5, |t, id| {
            t.span("inner", Some(id), 5, |_, _| ())
        });
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 5);
    }
}
