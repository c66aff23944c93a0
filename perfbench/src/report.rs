//! Statistics, fingerprints, host facts and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 80 / 75 / 50
/// that leaves at least ten of `n` samples beyond it (nearest rank), or
/// 100 (the maximum) when even the median does not.
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|q| n.saturating_sub(((q / 100.0) * n as f64).ceil() as usize) >= 10)
        .unwrap_or(100.0)
}

/// 64-bit FNV-1a over a stream of words: the placement fingerprint.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was taken from, when it still has its `.git`
/// directory; `None` in an exported tree.
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over every file under `crates/*/src`, in sorted path order: an
/// identity for the measured code that survives an export without `.git`.
pub fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.retain(|p| p.components().any(|c| c.as_os_str() == "src"));
    files.sort();
    let mut fp = Fingerprint::default();
    for path in files {
        fp.words(path.to_string_lossy().bytes().map(u64::from));
        if let Ok(bytes) = std::fs::read(&path) {
            fp.words(bytes.into_iter().map(u64::from));
        }
    }
    fp.value()
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Named facts of one run, rendered as a flat JSON object in insertion
/// order. Values are already-rendered JSON.
#[derive(Default)]
pub struct Facts(Vec<(String, String)>);

impl Facts {
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.push((key.to_string(), json_num(v)));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.to_string(), v.to_string()));
    }

    pub fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), json_str(v)));
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.to_string(), json));
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;
