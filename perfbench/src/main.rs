//! The repository benchmark: `serve`, `fleet` and `drift` workloads with
//! end-to-end metrics (untraced runs) and per-layer metrics (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are the run's record (host and run facts, fingerprints,
//! checks). The record and, for a traced run, every span are also written
//! under `perfbench/out/`. The process exits non-zero when any correctness
//! check fails. `--workload all` runs every workload, each in a process of
//! its own. `perfbench/README.md` describes the workloads and metrics.

mod drift;
mod fleet;
mod layers;
mod report;
mod serve;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{json_num, json_str, median, percentile, tail_percentile, Facts, Metrics};
use trace::Tracer;
use world::SetupTimes;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics, reported by every untraced run: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_acc_per_s", "1/s"),
    ("period_latency_p50_ms", "ms"),
    ("mean_delay_ms", "ms"),
    ("migration_usd", "USD"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A
/// workload that bypasses a layer reports 0 for its metrics and lists
/// them under `bypassed` in its record.
const PER_LAYER: [(&str, &str); 43] = [
    ("serve.poll_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.idle_poll_ratio", "ratio"),
    ("serve.backlog_max", "accesses"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("fleet.route_ns", "ns"),
    ("fleet.ingest_ms", "ms"),
    ("fleet.rebalance_ms", "ms"),
    ("fleet.ingest_serial_ms", "ms"),
    ("fleet.rebalance_serial_ms", "ms"),
    ("fleet.rebalance_nested_ms", "ms"),
    ("fleet.active_owners", "count"),
    ("fleet.commit_ratio", "ratio"),
    ("fleet.deferred", "count"),
    ("manager.route_ns", "ns"),
    ("manager.ingest_ms", "ms"),
    ("manager.ingest_acc_per_s", "1/s"),
    ("manager.propose_ms", "ms"),
    ("manager.commit_ms", "ms"),
    ("manager.applied_ratio", "ratio"),
    ("manager.replicas_moved", "count"),
    ("manager.summary_bytes", "bytes"),
    ("cluster.absorbed", "count"),
    ("cluster.created", "count"),
    ("cluster.merged", "count"),
    ("cluster.absorb_ratio", "ratio"),
    ("solve.kmeans_ms", "ms"),
    ("summary.encode_ms", "ms"),
    ("solve.kmeans_iterations", "count"),
    ("solve.kmeans_restarts", "count"),
    ("solve.prune_rate", "ratio"),
    ("setup.topology_ms", "ms"),
    ("setup.embedding_ms", "ms"),
    ("setup.construct_ms", "ms"),
    ("self.serve_pct", "%"),
    ("self.fleet_pct", "%"),
    ("self.manager_pct", "%"),
    ("self.cluster_pct", "%"),
    ("trace.uncovered_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["serve", "fleet", "drift"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?} (serve, fleet, drift, all)"
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one pass of a period loop measured.
#[derive(Default)]
pub struct LoopTimes {
    pub wall_s: f64,
    pub accesses: u64,
    pub served: u64,
    pub failed_rounds: u64,
    /// Per period: the ingest call and the rebalance that closed it.
    pub ingest_ms: Vec<f64>,
    pub rebalance_ms: Vec<f64>,
    /// Sum over accesses of the true RTT to the replica `route` picked.
    pub delay_ms_sum: f64,
}

impl LoopTimes {
    /// Ingest plus rebalance of each period.
    pub fn period_ms(&self) -> Vec<f64> {
        self.ingest_ms
            .iter()
            .zip(&self.rebalance_ms)
            .map(|(i, r)| i + r)
            .collect()
    }

    pub fn mean_delay_ms(&self) -> f64 {
        self.delay_ms_sum / self.accesses.max(1) as f64
    }
}

/// Runs closed-loop passes until `args.seconds` are up, at least one. A
/// traced run alternates an untraced and a traced pass, so the tracing
/// overhead is measured on the same inputs. `pass(traced)` runs one pass
/// on a fresh system. Returns the untraced and the traced passes.
pub fn timed_passes<P>(args: &Args, mut pass: impl FnMut(bool) -> P) -> (Vec<P>, Vec<P>) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || Instant::now() < deadline {
        plain.push(pass(false));
        if args.trace {
            traced.push(pass(true));
        }
    }
    (plain, traced)
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Offered accesses plus attempted rebalance rounds.
    pub attempted: u64,
    /// Accesses never absorbed plus rounds that errored.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub facts: Facts,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn problem(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    pub fn setup(&mut self, times: SetupTimes, setup_s: f64) {
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("setup.topology_ms", times.topology_ms);
        self.metrics
            .insert("setup.embedding_ms", times.embedding_ms);
        self.metrics
            .insert("setup.construct_ms", times.construct_ms);
        self.facts.int("setup_reps", SETUP_REPS as u64);
    }

    /// [`Outcome::check_run`] for one pass of a period loop.
    pub fn check_pass(&mut self, pass: &LoopTimes) {
        let rounds = pass.rebalance_ms.len() as u64;
        self.check_run(pass.accesses, pass.served, rounds, pass.failed_rounds);
    }

    /// Accounts a run: every offered access must be absorbed and no
    /// rebalance round may error.
    pub fn check_run(&mut self, offered: u64, served: u64, rounds: u64, failed_rounds: u64) {
        self.attempted += offered + rounds;
        self.failed += offered.saturating_sub(served) + failed_rounds;
        if served != offered {
            self.problem(format!("served {served} of {offered} offered accesses"));
        }
        if failed_rounds > 0 {
            self.problem(format!(
                "{failed_rounds} of {rounds} rebalance rounds errored"
            ));
        }
    }

    /// Every pass over the same inputs must end in the same fingerprint.
    pub fn check_fingerprint(&mut self, reference: &mut Option<u64>, fp: u64, what: &str) {
        match *reference {
            None => *reference = Some(fp),
            Some(r) if r != fp => self.problem(format!(
                "{what} fingerprint {fp:016x} differs from {r:016x}"
            )),
            Some(_) => {}
        }
    }

    pub fn finish_fingerprint(&mut self, fp: Option<u64>) {
        self.facts
            .text("fingerprint", &format!("{:016x}", fp.unwrap_or(0)));
    }

    /// The seed-determined outcome of the placement.
    pub fn deterministic(&mut self, mean_delay_ms: f64, migration_usd: f64) {
        self.metrics.insert("mean_delay_ms", mean_delay_ms);
        self.metrics.insert("migration_usd", migration_usd);
    }

    /// Throughput (the median over passes) and period latency of
    /// closed-loop passes.
    pub fn closed_loop(&mut self, passes: &[&LoopTimes]) {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.accesses as f64 / p.wall_s)
            .collect();
        let periods: Vec<f64> = passes.iter().flat_map(|p| p.period_ms()).collect();
        self.facts.int("passes", passes.len() as u64);
        self.facts.raw("pass_acc_per_s", format!("{rates:.0?}"));
        self.metrics.insert("throughput_acc_per_s", median(&rates));
        self.period_latency(&periods);
    }

    /// [`Outcome::trace_summary`] for closed-loop passes: the overhead
    /// compares the median traced and untraced pass.
    pub fn trace_passes(
        &mut self,
        tracer: &Tracer,
        untraced: &[&LoopTimes],
        traced: &[&LoopTimes],
    ) {
        let wall_ms =
            |passes: &[&LoopTimes]| passes.iter().map(|p| p.wall_s * 1e3).collect::<Vec<_>>();
        let traced_ms = wall_ms(traced);
        let self_ms = tracer.self_ms_by_layer();
        self.trace_summary(
            tracer,
            &self_ms,
            traced_ms.iter().sum(),
            median(&traced_ms),
            median(&wall_ms(untraced)),
        );
    }

    /// Median and tail of the period latencies. The tail, the highest
    /// percentile with at least ten samples beyond it, goes into the
    /// record with that percentile and the sample count, not into the
    /// metrics: host stalls move it by more than any regression bound
    /// could absorb.
    pub fn period_latency(&mut self, samples: &[f64]) {
        let q = tail_percentile(samples.len());
        self.metrics
            .insert("period_latency_p50_ms", median(samples));
        self.facts
            .num("period_latency_tail_ms", percentile(samples, q));
        self.facts.num("period_latency_tail_percentile", q);
        self.facts
            .int("period_latency_samples", samples.len() as u64);
    }

    /// Self time per layer, span coverage and tracing overhead of a traced
    /// run. `self_ms` is self time by layer over the traced window of
    /// `wall_ms`; `traced` and `untraced` are the same work's wall time
    /// with and without tracing.
    pub fn trace_summary(
        &mut self,
        tracer: &Tracer,
        self_ms: &std::collections::BTreeMap<&'static str, f64>,
        wall_ms: f64,
        traced: f64,
        untraced: f64,
    ) {
        for (layer, metric) in [
            ("serve", "self.serve_pct"),
            ("fleet", "self.fleet_pct"),
            ("manager", "self.manager_pct"),
            ("cluster", "self.cluster_pct"),
        ] {
            let ms = self_ms.get(layer).copied().unwrap_or(0.0);
            self.metrics.insert(metric, 100.0 * ms / wall_ms);
        }
        let uncovered = 100.0 * (1.0 - tracer.covered_ms() / wall_ms);
        self.metrics.insert("trace.uncovered_pct", uncovered);
        self.metrics
            .insert("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
        self.facts.int("spans", tracer.spans().len() as u64);
        self.metrics.insert("trace.wall_ms", traced);
        self.metrics.insert("trace.untraced_wall_ms", untraced);
        let layers: Vec<String> = self_ms
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        self.facts
            .raw("self_ms_by_layer", format!("{{{}}}", layers.join(", ")));
        if uncovered > 10.0 {
            self.problem(format!(
                "layer spans cover only {:.1} % of the traced wall time",
                100.0 - uncovered
            ));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload serve|fleet|drift|all --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // The benchmark runs from the repository root; refuse anywhere else
    // before doing any work.
    if !std::path::Path::new("crates/core/src/fleet/mod.rs").is_file() {
        eprintln!("error: run from the repository root (crates/ not found)");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }

    let mut out = Outcome::default();
    out.facts.text("workload", &args.workload);
    out.facts.int("seed", args.seed);
    out.facts.num("seconds", args.seconds);
    out.facts.int("trace", u64::from(args.trace));
    out.facts.int(
        "nproc",
        georep_core::threads::available_parallelism() as u64,
    );
    out.facts.text("program_threads", "auto");
    match report::commit() {
        Some(c) => out.facts.text("commit", &c),
        None => out.facts.raw("commit", "null".to_string()),
    }
    out.facts.text(
        "source_fnv",
        &format!("{:016x}", report::source_fingerprint()),
    );

    match args.workload.as_str() {
        "serve" => serve::run(&args, &mut out),
        "fleet" => fleet::run(&args, &mut out),
        _ => drift::run(&args, &mut out),
    }
    let rss = report::peak_rss_mb();
    out.metrics.insert("peak_rss_mb", rss);

    // Select the reported set; a missing end-to-end metric is a bug, a
    // missing per-layer one is a layer this workload does not go through.
    let (names, kind): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, "per_layer")
    } else {
        (&END_TO_END, "end_to_end")
    };
    let mut bypassed = Vec::new();
    let mut rendered = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => {
                bypassed.push(json_str(name));
                0.0
            }
            None => {
                out.problem(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.problem(format!("metric {name} is not finite"));
        }
        rendered.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    out.facts
        .raw("bypassed", format!("[{}]", bypassed.join(", ")));
    out.facts.raw(
        "problems",
        format!(
            "[{}]",
            out.problems
                .iter()
                .map(|p| json_str(p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );

    // Human-readable table, then the record, then the result line.
    println!("{} ({kind}, seed {})", args.workload, args.seed);
    for &(name, unit) in names {
        println!(
            "  {name:<28} {:>16.4} {unit}",
            out.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let record = out.facts.render();
    println!("record {record}");
    let stem = format!(
        "perfbench/out/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = write_outputs(&stem, &record, out.tracer.as_ref()) {
        eprintln!("warning: cannot write {stem}.*: {e}");
    }

    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        rendered.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own (peak memory is per
/// workload) with the same seed, length and trace setting, waiting for
/// each. Fails when any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_outputs(stem: &str, record: &str, tracer: Option<&Tracer>) -> std::io::Result<()> {
    let record_path = PathBuf::from(format!("{stem}.json"));
    if let Some(dir) = record_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&record_path, format!("{record}\n"))?;
    if let Some(tracer) = tracer {
        tracer.write_jsonl(&PathBuf::from(format!("{stem}-spans.jsonl")))?;
    }
    Ok(())
}
