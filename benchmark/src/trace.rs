//! The benchmark's own span recorder: spans are kept in memory while a
//! traced run measures and written to `out/trace-<workload>.json` when it
//! ends. Spans are taken around calls into the program's public functions;
//! nothing inside the program is instrumented.

use crate::metrics::Checks;
use crate::Args;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval. `calls` is how many calls into the layer the
/// interval covers (a drive step times each layer's calls per node as one
/// block, so the clock reads do not swamp ~100 ns operations).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub trace_id: u64,
    pub calls: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id (for children to name).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Make `parent` the parent of the spans in `children`.
    pub fn adopt(&mut self, children: std::ops::Range<u32>, parent: u32) {
        for s in &mut self.spans[children.start as usize..children.end as usize] {
            s.parent = parent;
        }
    }

    /// Write the run's trace file, `<out-dir>/trace-<workload>.json`; a
    /// file that cannot be written is a failed check.
    pub fn save(&self, args: &Args, checks: &mut Checks) {
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        match self.write(&path, &args.workload, args.seed) {
            Ok(()) => println!("# trace: {} spans -> {}", self.len(), path.display()),
            Err(e) => checks.fail(format!("cannot write {}: {e}", path.display())),
        }
    }

    /// Write every span as one JSON document.
    fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since recorder start\", \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace_id\": {}, \"calls\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.trace_id, s.calls
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
