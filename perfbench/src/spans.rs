//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out as JSON lines
//! when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.step`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The execution (or replay) this span belongs to.
    pub exec: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder: a flat span list plus a stack of open spans.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    exec: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            exec: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new execution id for the spans that follow.
    pub fn next_exec(&mut self) {
        self.exec += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            exec: self.exec,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty `f64` sum is -0.0.
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"exec\":{}}}",
                s.name, s.start_ns, s.end_ns, s.exec
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let mut s = Spans::new();
        s.next_exec();
        s.open("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close();
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].exec, 1);
        let outer = s.total_ns("outer");
        let inner = s.total_ns("inner");
        assert!(inner >= 2e6 && outer >= inner);
        assert_eq!(s.durations("inner").len(), 1);
    }
}
