//! In-memory span recorder for the traced run.
//!
//! Each span holds a name, start and end (nanoseconds since the recorder
//! was created) and the span that was open when it began. Spans stay in
//! memory until [`Tracer::write_jsonl`] at the end of the run, so the only
//! cost inside a timed region is two clock reads and a push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed, e.g. `backward`.
    pub name: String,
    /// The span open when this one began.
    pub parent: Option<SpanId>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans for one run.
pub struct Tracer {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recorder whose spans all carry the run identifier `run`.
    pub fn new(run: String) -> Self {
        Self { run, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children. Returns `f`'s result and the span's id.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, SpanId) {
        let id = self.spans.len();
        let name = name.into();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close in order");
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// [`Tracer::span`] without the id.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span(name, f).0
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Direct children of `id`, in start order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = (SpanId, &Span)> + '_ {
        self.spans.iter().enumerate().filter(move |(_, s)| s.parent == Some(id))
    }

    /// Self time of `id` in ms: its duration minus the part its direct
    /// children cover (children never overlap: the recorder is serial).
    pub fn self_ms(&self, id: SpanId) -> f64 {
        self.get(id).ms() - self.children(id).map(|(_, c)| c.ms()).sum::<f64>()
    }

    /// Summed duration (ms) of the spans named `name` below `id`, at any
    /// depth.
    pub fn total_ms_within(&self, id: SpanId, name: &str) -> f64 {
        self.descendants(id).filter(|(_, s)| s.name == name).map(|(_, s)| s.ms()).sum()
    }

    /// Summed duration (ms) of the leaf spans below `id`: the part of its
    /// wall time that timed library calls account for.
    pub fn leaf_ms_within(&self, id: SpanId) -> f64 {
        self.descendants(id)
            .filter(|(cid, _)| self.children(*cid).next().is_none())
            .map(|(_, s)| s.ms())
            .sum()
    }

    fn descendants(&self, id: SpanId) -> impl Iterator<Item = (SpanId, &Span)> + '_ {
        // Spans are pushed in start order, so every descendant of `id` lies
        // after it and before the first later span that is not nested in it.
        let end = self.spans[id].end_ns;
        self.spans
            .iter()
            .enumerate()
            .skip(id + 1)
            .take_while(move |(_, s)| s.start_ns <= end)
            .filter(move |(cid, _)| self.is_within(*cid, id))
    }

    fn is_within(&self, mut cid: SpanId, ancestor: SpanId) -> bool {
        while let Some(p) = self.spans[cid].parent {
            if p == ancestor {
                return true;
            }
            cid = p;
        }
        false
    }

    /// Writes one JSON object per span (`run`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`) to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let self_ns = (self.self_ms(id) * 1e6).round() as i64;
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_leaves() {
        let mut tr = Tracer::new("t".into());
        let ((), root) = tr.span("root", |tr| {
            tr.time("a", |tr| tr.time("a1", |_| std::hint::black_box(1 + 1)));
            tr.time("b", |_| ());
        });
        tr.time("after", |_| ());
        let names: Vec<_> = tr.children(root).map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let leaves = tr.leaf_ms_within(root);
        let a1 = tr.total_ms_within(root, "a1");
        let b = tr.total_ms_within(root, "b");
        assert!((leaves - (a1 + b)).abs() < 1e-9);
        assert_eq!(tr.total_ms_within(root, "after"), 0.0);
        assert!(tr.self_ms(root) >= -1e-9);
    }
}
