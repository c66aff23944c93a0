//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side, around the public calls
//! into each layer: name, start, end, parent and the id of the period the
//! span belongs to (all spans of one period share it). They stay in memory
//! while the workload runs and are written out as JSON lines at the end.
//! A span named `bench.*` is the benchmark's own bracket (one period, one
//! pass); every other name is `<layer>.<stage>`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_str;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub period: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn is_bench(&self) -> bool {
        self.name.starts_with("bench.")
    }
}

/// Span recorder. Disabled, it still times calls (the untraced run needs
/// period latencies) but keeps nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span measured by the caller; returns its id (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        period: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            period,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        period: u64,
    ) -> Option<usize> {
        let now = self.now_ns();
        self.record(name, parent, period, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` and returns its result with its duration in nanoseconds,
    /// recording a span when enabled.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        period: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, period, start, end);
        (out, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in milliseconds, of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Per-layer self time in milliseconds: each span's duration minus the
    /// part its children cover, summed by layer (the name up to the first
    /// dot). The cluster crate's stages (`solve.*`, `summary.*`) count as
    /// layer `cluster`.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = match s.name.split('.').next().unwrap_or(s.name) {
                "solve" | "summary" => "cluster",
                other => other,
            };
            *out.entry(layer).or_insert(0.0) += s.dur_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Time, in milliseconds, covered by layer spans: the top-most
    /// non-`bench` spans (no parent, or a `bench` parent). Layer spans of
    /// one thread never overlap, so this is their plain sum.
    pub fn covered_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.is_bench() && s.parent.is_none_or(|p| self.spans[p].is_bench()))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"period\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.period
            )?;
        }
        out.flush()
    }
}
