//! The benchmark's own span recorder for `--trace 1` runs. Spans are
//! recorded around calls into the program's layers from outside — the
//! program itself is not instrumented — kept in memory, and written out
//! as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval that was timed by the caller; returns its id
    /// for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Moves another tracer's spans (recorded against the same origin)
    /// into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span, the time its direct children cover. Children of one
    /// parent never overlap: every recorder is sequential.
    fn child_cover_ns(&self) -> Vec<u64> {
        let mut cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                cover[p] += s.duration_ns();
            }
        }
        cover
    }

    /// Share of the time of the root spans called one of `roots`, in
    /// percent, that no child span covers.
    pub fn unattributed_pct(&self, roots: &[&str]) -> f64 {
        let cover = self.child_cover_ns();
        let (mut root, mut uncovered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && roots.contains(&s.name) {
                root += s.duration_ns();
                uncovered += s.duration_ns().saturating_sub(cover[i]);
            }
        }
        if root == 0 {
            return 0.0;
        }
        100.0 * uncovered as f64 / root as f64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span: id, name, op, parent, start and
    /// end in ns from the run's start.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
