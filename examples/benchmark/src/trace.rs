//! Spans recorded by the benchmark around its own calls into the program.
//!
//! A span has a name `<layer>.<call>`, an id, the id of the span that
//! caused it, the period it served (0 when none), and its start and end in
//! nanoseconds since the tracer started. Spans stay in memory and are
//! written as JSON lines when the run ends. When tracing is off every call
//! is a branch on a flag and nothing is stored.
//!
//! A span's self time is its duration minus its children's durations.
//! The root span `bench.run` covers the traced section; its self time is
//! the part no layer span covers, so `coverage = 1 - root self / root wall`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span every traced section hangs under.
pub const ROOT: &str = "bench.run";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub period: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the last `.`.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, period: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: self.spans.len() as u64 + 1,
            parent,
            period,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, period: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, period);
        let out = f();
        self.exit();
        out
    }

    /// Records child spans of the innermost open span from durations a
    /// layer measured itself, laid end to end from the parent's start and
    /// clipped to the current time.
    pub fn stages(&mut self, stages: &[(&'static str, f64)]) {
        if !self.on {
            return;
        }
        let parent = *self.stack.last().expect("stages sit inside a span");
        let (parent_id, period) = (self.spans[parent].id, self.spans[parent].period);
        let end = self.now_ns();
        let mut at = self.spans[parent].start_ns;
        for &(name, secs) in stages {
            let stop = (at + (secs * 1e9) as u64).min(end);
            self.spans.push(Span {
                name,
                id: self.spans.len() as u64 + 1,
                parent: parent_id,
                period,
                start_ns: at,
                end_ns: stop,
            });
            at = stop;
        }
    }

    /// The recorded spans. A span left open by a panic is closed now.
    pub fn into_spans(mut self) -> Vec<Span> {
        while !self.stack.is_empty() {
            self.exit();
        }
        self.spans
    }
}

/// Self time of every span, by span index.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(Span::dur_s).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            own[p] -= s.dur_s();
        }
    }
    own
}

/// Seconds of self time per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Share of the root spans' wall time covered by layer spans.
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut wall, mut uncovered) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(own) {
        if s.name == ROOT {
            wall += s.dur_s();
            uncovered += t;
        }
    }
    if wall == 0.0 {
        0.0
    } else {
        1.0 - uncovered / wall
    }
}

/// Drops every span of `layer`, as the self-test's damaged trace.
pub fn without_layer(spans: &[Span], layer: &str) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| s.layer() != layer)
        .cloned()
        .collect()
}

/// The layer with the most self time, the root excluded.
pub fn largest_layer(spans: &[Span]) -> &'static str {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.name != ROOT {
            *by_layer.entry(s.layer()).or_insert(0.0) += t;
        }
    }
    by_layer
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(layer, _)| layer)
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"workload\":\"{}\",\"period\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, workload, s.period, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Prints the per-layer table: calls, total and self seconds per span name.
pub fn print_table(spans: &[Span]) {
    let own = self_times(spans);
    let mut rows: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        let row = rows.entry(s.name).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += s.dur_s();
        row.2 += t;
    }
    println!(
        "{:<44} {:>8} {:>11} {:>11}",
        "span", "calls", "total s", "self s"
    );
    for (name, (calls, total, own)) in rows {
        println!("{name:<44} {calls:>8} {total:>11.4} {own:>11.4}");
    }
}
