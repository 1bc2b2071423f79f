//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans go into a buffer allocated up front and are written once, at the
//! end of the run, as JSON lines. A disabled tracer records nothing and
//! reads no clock, so untraced runs pay for none of this.

use optinter_serve::Clock;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: usize = usize::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.forward`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: usize,
    /// Step, epoch or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The benchmark's one time base, shared by spans and the serving front
/// door so request timestamps and spans line up.
#[derive(Debug, Clone, Copy)]
pub struct BenchClock {
    origin: Instant,
}

impl BenchClock {
    /// A clock counting from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for BenchClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    clock: BenchClock,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: usize,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans; `enabled = false` makes
    /// every call a no-op.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            clock: BenchClock::new(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(if enabled { 64 } else { 0 }),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The tracer's clock, for code that stamps times itself.
    pub fn clock(&self) -> BenchClock {
        self.clock
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        if !self.enabled {
            return ROOT;
        }
        let now = self.now_ns();
        let idx = self.push(name, now, 0, id);
        if idx != ROOT {
            self.open.push(idx);
        }
        idx
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, idx: usize) {
        if idx == ROOT {
            return;
        }
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Records an already-finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) -> usize {
        if !self.enabled {
            return ROOT;
        }
        self.push(name, start_ns, end_ns, id)
    }

    /// Records an already-finished span under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        id: u64,
    ) -> usize {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) -> usize {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.record_under(parent, name, start_ns, end_ns, id)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost because the buffer was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total self time (ns) of spans called `name`: each span's duration
    /// minus the part its direct children cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64)
            .sum()
    }

    /// Top-level span time over the time from tracer creation to `end_ns`.
    pub fn coverage(&self, end_ns: u64) -> f64 {
        let top: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(Span::dur_ns)
            .sum();
        ratio(top as f64, end_ns as f64)
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        out.flush()
    }
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans: root [0,100], children [10,40] and
    /// [50,90], grandchild [20,30] under the first child.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(true, 16);
        let root = t.record_under(ROOT, "root", 0, 100, 0);
        let a = t.record_under(root, "child", 10, 40, 1);
        t.record_under(root, "child", 50, 90, 2);
        t.record_under(a, "leaf", 20, 30, 1);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        assert_eq!(t.self_time("root"), 30.0);
        assert_eq!(t.self_time("child"), 60.0);
        assert_eq!(t.self_time("leaf"), 10.0);
        assert_eq!(t.total("child"), 70.0);
    }

    #[test]
    fn coverage_counts_top_level_spans() {
        let t = fixture();
        assert_eq!(t.coverage(200), 0.5);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut t = Tracer::new(true, 8);
        let outer = t.enter("outer", 0);
        let inner = t.enter("inner", 0);
        t.exit(inner);
        let after = t.enter("sibling", 1);
        t.exit(after);
        t.exit(outer);
        let s = t.spans();
        assert_eq!((s[1].parent, s[2].parent), (outer, outer));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(true, 2);
        for i in 0..5 {
            t.record("x", i, i + 1, i);
        }
        assert_eq!((t.spans().len(), t.dropped()), (2, 3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let s = t.enter("x", 0);
        t.exit(s);
        t.record("y", 0, 1, 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let t = fixture();
        let path = std::env::temp_dir().join(format!("trace-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"name\":\"root\",\"start_ns\":0,\"end_ns\":100,\"parent\":-1"));
    }
}
