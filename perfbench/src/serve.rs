//! The `serve` workload: an open loop through the ingest service.
//!
//! One producer thread submits a seeded keyed trace into the
//! [`IngestService`] ring at a fixed offered rate, each access at its own
//! due time, sleeping between batches. The service thread polls; every
//! poll drains the ring, merges behind the watermark and flushes each
//! complete period (ingest plus rebalance on the fleet behind it). Periods
//! are cut by size: the loop never calls `maybe_tick`. Keys are uniform
//! over a few thousand objects held by a few dozen owners, so the access
//! path dominates and each rebalance is a few dozen small solves.
//!
//! After the run, a fresh fleet replays the recorded flush partition; the
//! online fleet must match it bit for bit. The replay also routes every
//! access under the placement live when it arrived (`mean_delay_ms`) and
//! times the fleet's share of the poll time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use georep_core::experiment::DIMS;
use georep_core::fleet::FleetConfig;
use georep_core::manager::ManagerConfig;
use georep_serve::{IngestService, ServeConfig, ShardProducer, SystemClock};
use georep_workload::AliasTable;

use crate::fleet::{self, fleet_fingerprint, fleet_pass, keyed_trace, KeyedTrace};
use crate::report::{median, percentile, Metrics};
use crate::trace::Tracer;
use crate::world::{repeated_setup, World};
use crate::{Args, Outcome, SETUP_REPS};

/// Key space, uniform.
const OBJECTS: u64 = 4_096;
/// Exact managers and cold groups: 24 owners.
const HOT: u64 = 16;
const COLD: usize = 8;
/// Accesses per period.
const PERIOD: usize = 50_000;
/// Offered rate, accesses per second: about a quarter of what the service
/// sustains on a quiet 2-vCPU host (2M accesses/s keeps its poll loop
/// about 90 % busy), so that it stays below half when CPU steal from
/// other tenants halves the service's speed and latency measures the
/// service rather than a queue building up.
const RATE: f64 = 500_000.0;
/// Distinct accesses in the trace; a longer run cycles through it.
const TRACE_LEN: usize = 4_000_000;
/// Ring slots between the producer and the service.
const RING: usize = 1 << 16;
/// Least time between producer batches: waking once per tick instead of
/// once per access keeps the producer from preempting the fleet's
/// workers on a small host. Lateness this adds counts in the latency.
const PRODUCER_TICK: Duration = Duration::from_millis(1);
/// How long the service sleeps after a poll that found nothing.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

type Service = IngestService<DIMS, SystemClock>;

fn new_service(world: &World, config: FleetConfig) -> (Service, Vec<ShardProducer>) {
    let regions = Arc::new(world.clients.iter().map(|&c| world.coords[c]).collect());
    IngestService::new(
        fleet::new_fleet(world, config),
        regions,
        SystemClock::new(),
        ServeConfig {
            shards: 1,
            ring_capacity: RING,
            period_accesses: PERIOD,
            tick_interval_ms: 1_000,
            latency_sample: 0,
        },
    )
}

/// What one open-loop run measured.
#[derive(Default)]
struct LiveRun {
    wall_ms: f64,
    /// Per flushed period: last access due → return of the poll that
    /// flushed it.
    period_ms: Vec<f64>,
    busy_ms: f64,
    polls: u64,
    idle_polls: u64,
    backlog_max: u64,
    backlog_grew: bool,
    lag_ms: Vec<f64>,
    served: u64,
    failed_rounds: u64,
    flush_sizes: Vec<usize>,
    fingerprint: u64,
    spent_usd: f64,
    served_per_owner: Vec<u64>,
}

/// Submits `total` accesses of `trace` at `RATE` from `t0`: each access
/// once it is due, in batches of whatever is due, sleeping at least
/// `PRODUCER_TICK` between batches. Returns how late each batch started
/// after its first access was due, in milliseconds.
fn produce(
    mut producer: ShardProducer,
    trace: &KeyedTrace,
    total: usize,
    t0: Instant,
    submitted: &AtomicU64,
) -> Vec<f64> {
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / RATE);
    let mut lags = Vec::new();
    let mut next = 0usize;
    while next < total {
        let now = Instant::now();
        let first_due = due(next);
        if now < first_due {
            std::thread::sleep(first_due - now);
            continue;
        }
        lags.push((now - first_due).as_secs_f64() * 1e3);
        let elapsed = (now - t0).as_secs_f64();
        let end = ((elapsed * RATE).floor() as usize + 1).clamp(next + 1, total);
        for i in next..end {
            let a = trace.get(i);
            producer.submit_stamped(i as u64, u64::from(a.object), a.client, a.weight);
        }
        next = end;
        // A statistic for the backlog; it publishes no other data.
        submitted.store(next as u64, Ordering::Relaxed);
        let wake = (now + PRODUCER_TICK).max(due(next));
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    lags
}

/// One open-loop run of `total` accesses through a fresh service.
fn open_loop(
    world: &World,
    config: FleetConfig,
    trace: &KeyedTrace,
    total: u64,
    tracer: &mut Tracer,
) -> LiveRun {
    let (mut svc, mut producers) = new_service(world, config);
    let producer = producers.pop().expect("one shard");
    let submitted = AtomicU64::new(0);
    let mut out = LiveRun::default();
    let mut backlog: Vec<u64> = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(5);
    let t0_ns = tracer.now_ns() + 5_000_000;

    std::thread::scope(|scope| {
        let loadgen = scope.spawn(|| produce(producer, trace, total as usize, t0, &submitted));
        let mut stamps_flushed = 0u64;
        let mut idle_since: Option<u64> = None;
        let mut period = 0u64;
        while svc.served_total() < total {
            let start = tracer.now_ns();
            let result = svc.poll();
            let end = tracer.now_ns();
            out.polls += 1;
            let flushed = &svc.flush_sizes()[period as usize..];
            // A failed rebalance still ingested its period; keep draining
            // so the producer never blocks on a full ring.
            let drained = result.unwrap_or_else(|_| {
                out.failed_rounds += 1;
                1
            });
            if drained == 0 && flushed.is_empty() {
                out.idle_polls += 1;
                idle_since.get_or_insert(start);
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
            if let Some(idle_start) = idle_since.take() {
                tracer.record("serve.idle", None, period, idle_start, start);
            }
            tracer.record("serve.poll", None, period, start, end);
            out.busy_ms += (end - start) as f64 / 1e6;
            for &size in flushed {
                stamps_flushed += size;
                let due_ns = t0_ns + ((stamps_flushed - 1) as f64 * 1e9 / RATE) as u64;
                out.period_ms.push(end.saturating_sub(due_ns) as f64 / 1e6);
            }
            period = svc.flush_sizes().len() as u64;
            let queued = submitted
                .load(Ordering::Relaxed)
                .saturating_sub(svc.served_total());
            out.backlog_max = out.backlog_max.max(queued);
            backlog.push(queued);
        }
        if let Some(idle_start) = idle_since.take() {
            tracer.record("serve.idle", None, period, idle_start, tracer.now_ns());
        }
        out.lag_ms = loadgen.join().expect("the load generator does not panic");
    });
    if svc.finish().is_err() {
        out.failed_rounds += 1;
    }
    out.wall_ms = (tracer.now_ns() - t0_ns) as f64 / 1e6;
    out.backlog_grew = grew(&backlog);
    out.served = svc.served_total();
    out.flush_sizes = svc.flush_sizes().iter().map(|&s| s as usize).collect();
    out.fingerprint = fleet_fingerprint(svc.fleet());
    out.spent_usd = svc.fleet().stats().spent_usd;
    out.served_per_owner = svc.served().to_vec();
    out
}

/// Whether the backlog, sampled after every busy poll, grew over the run:
/// its mean over the last quarter of the samples exceeds the mean over the
/// second quarter by more than a period (a sustainable rate saw-tooths
/// between zero and about a period).
fn grew(samples: &[u64]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().map(|&b| b as f64).sum::<f64>() / s.len() as f64;
    mean(&samples[samples.len() - q..]) > mean(&samples[q..2 * q]) + PERIOD as f64
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut manager = ManagerConfig::new(3, 8);
    manager.seed = 0x5E7E;
    let config = FleetConfig::new(OBJECTS, HOT, COLD, manager);
    let (world, setup, setup_s) = repeated_setup(SETUP_REPS, |w| new_service(w, config));
    // Whole periods only, so every flush is a size cut.
    let total = ((RATE * args.seconds) as usize / PERIOD).max(1) * PERIOD;
    let uniform = AliasTable::new(&vec![1.0; OBJECTS as usize]).expect("uniform weights");
    let trace = keyed_trace(&world, uniform, total.min(TRACE_LEN), args.seed);
    let total = total as u64;

    out.facts.int("objects", OBJECTS);
    out.facts.int("hot_objects", HOT);
    out.facts.int("cold_groups", COLD as u64);
    out.facts.int("owners", HOT + COLD as u64);
    out.facts.text("keys", "uniform");
    out.facts.int("period_accesses", PERIOD as u64);
    out.facts.int("accesses", total);
    out.facts
        .int("distinct_trace_accesses", trace.accesses.len() as u64);
    out.facts.num("offered_rate_per_s", RATE);
    out.facts.int("producer_threads", 1);
    out.facts.int("ring_slots", RING as u64);
    out.facts.text("loop", "open");
    out.setup(setup, setup_s);

    // The traced run repeats the open loop untraced first: the busy time
    // of the two is the tracing overhead.
    let baseline = open_loop(&world, config, &trace, total, &mut Tracer::new(false));
    check_live(out, &baseline, total);
    let untraced_busy_ms = baseline.busy_ms;
    let mut tracer = Tracer::new(args.trace);
    let live = if args.trace {
        let live = open_loop(&world, config, &trace, total, &mut tracer);
        check_live(out, &live, total);
        if live.fingerprint != baseline.fingerprint
            || live.served_per_owner != baseline.served_per_owner
        {
            out.problem("the traced run's fleet differs from the untraced run's".to_string());
        }
        live
    } else {
        baseline
    };

    // The offline twin: a fresh fleet replays the flush partition.
    let mut fleet = fleet::new_fleet(&world, config);
    let replay = fleet_pass(
        &world,
        &mut fleet,
        &config,
        &trace,
        &live.flush_sizes,
        &mut Tracer::new(false),
        args.trace,
    );
    let mut reference = Some(live.fingerprint);
    out.check_fingerprint(&mut reference, replay.fingerprint, "offline replay");
    if replay.times.served != live.served {
        out.problem(format!(
            "replay served {} accesses, online {}",
            replay.times.served, live.served
        ));
    }
    out.deterministic(replay.times.mean_delay_ms(), live.spent_usd);
    out.metrics.insert(
        "throughput_acc_per_s",
        live.served as f64 / (live.wall_ms / 1e3),
    );
    out.period_latency(&live.period_ms);
    out.facts.int("flushes", live.flush_sizes.len() as u64);

    if args.trace {
        fleet::insert_fleet_layer(&replay, &mut out.metrics);
        // The service runs the fleet at its default thread settings.
        let rebalance_ms = median(&replay.times.rebalance_ms);
        out.metrics
            .insert("fleet.rebalance_nested_ms", rebalance_ms);
        fleet::serial_pass(
            out,
            &world,
            config,
            &trace,
            &live.flush_sizes,
            &mut reference,
        );
        fleet::shadow_facts(out, std::slice::from_ref(&replay));

        // Inside a poll the fleet's share is the replayed ingest and
        // rebalance time; the rest is the service's own.
        let fleet_ms: f64 = replay
            .times
            .ingest_ms
            .iter()
            .chain(&replay.times.rebalance_ms)
            .sum();
        insert_serve_layer(&live, fleet_ms, &mut out.metrics);
        let self_ms = [
            ("serve", live.busy_ms - fleet_ms),
            ("fleet", fleet_ms),
            ("idle", tracer.total_ms("serve.idle")),
        ]
        .into_iter()
        .collect();
        out.trace_summary(
            &tracer,
            &self_ms,
            live.wall_ms,
            live.busy_ms,
            untraced_busy_ms,
        );
        out.tracer = Some(tracer);
    }
    out.finish_fingerprint(reference);
}

/// Accounts a live run and checks it: everything offered is served, no
/// round errors, and the backlog stays bounded.
fn check_live(out: &mut Outcome, live: &LiveRun, offered: u64) {
    out.check_run(
        offered,
        live.served,
        live.flush_sizes.len() as u64,
        live.failed_rounds,
    );
    if live.backlog_grew {
        out.problem(format!(
            "invalid run: the backlog grew at {RATE} accesses/s (max {})",
            live.backlog_max
        ));
    }
}

/// The serve and load-generator metrics of a live run; `fleet_ms` is the
/// fleet's share of the poll time.
fn insert_serve_layer(live: &LiveRun, fleet_ms: f64, metrics: &mut Metrics) {
    metrics.insert("serve.poll_ms", live.busy_ms);
    metrics.insert("serve.self_ms", live.busy_ms - fleet_ms);
    metrics.insert(
        "serve.idle_poll_ratio",
        live.idle_polls as f64 / live.polls.max(1) as f64,
    );
    metrics.insert("serve.backlog_max", live.backlog_max as f64);
    metrics.insert("loadgen.lag_p50_ms", median(&live.lag_ms));
    metrics.insert("loadgen.lag_max_ms", percentile(&live.lag_ms, 100.0));
}
