//! In-memory spans around calls into the program's layers, written out
//! when the run ends. Only the traced run records any.

use std::io::Write;
use std::time::Instant;

/// One timed call: which request it served, which layer was called, when,
/// and the span (index into the same log) it was made under.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// One thread's spans, timed from a clock origin shared by the whole run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, req: u64, layer: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(req, layer, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Append `other`'s spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations (µs) of every span of `layer`.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::us)
            .collect()
    }

    /// Each span's self time (µs): its duration minus the part of it that
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Write every span as a tab-separated line: id, request, layer, start
    /// and end in ns since the run's origin, parent id (`-` for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\treq\tlayer\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{parent}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            req: 0,
            layer: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            span(0, 10_000, None),
            span(1_000, 3_000, Some(0)),
            // Overlaps the next child: the union is counted, not the sum.
            span(4_000, 7_000, Some(0)),
            span(6_000, 8_000, Some(0)),
            // A grandchild does not count against the root.
            span(4_500, 5_000, Some(2)),
        ];
        let own = log.self_times();
        assert_eq!(own, vec![4.0, 2.0, 2.5, 2.0, 0.5]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        a.spans = vec![span(0, 1, None)];
        let mut b = SpanLog::new(origin);
        b.spans = vec![span(0, 5, None), span(1, 2, Some(0))];
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
