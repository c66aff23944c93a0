//! The `drift` workload: one object whose demand follows the sun.
//!
//! Closed loop over a single [`ReplicaManager`] (k = 3, m = 8) fed a
//! [`PhasedWorkload::diurnal`] stream of three days over three regional
//! populations. Every
//! access is routed with [`ReplicaManager::route`]; each period of a few
//! hundred thousand accesses is ingested in one
//! [`ReplicaManager::ingest_period`] call, which takes the within-owner
//! parallel path the fleet never reaches, and closed by one rebalance.
//! Demand moves between periods, so the migration gate commits moves and
//! the mean delay depends on how well the placement follows. One pass is
//! a fresh manager over all three days; passes repeat until the time is
//! up.

use std::time::Instant;

use georep_coord::Coord;
use georep_core::experiment::DIMS;
use georep_core::manager::{ManagerConfig, ReplicaManager};
use georep_workload::population::Population;
use georep_workload::stream::{PhasedWorkload, StreamConfig};

use crate::layers::{self, Counts};
use crate::report::{median, Fingerprint};
use crate::trace::Tracer;
use crate::world::{repeated_setup, World};
use crate::{timed_passes, Args, LoopTimes, Outcome, SETUP_REPS};

/// Replicas and micro-clusters per replica.
const K: usize = 3;
const M: usize = 8;
/// Simulated hours in one pass (three days), and their length.
const HOURS: usize = 72;
const HOUR_MS: f64 = 1_000.0;
/// Mean accesses per simulated millisecond: 50k accesses an hour.
const RATE_PER_MS: f64 = 50.0;
/// Hours per period.
const PERIOD_HOURS: usize = 4;
/// The manager's k-means seed.
const SEED: u64 = 0xD21F7;

/// The accesses of one pass, cut into periods: client (index into
/// [`World::clients`]) and weight of each.
struct DriftTrace {
    accesses: Vec<(u32, f64)>,
    /// Accesses per period.
    sizes: Vec<usize>,
}

/// Three populations peaking eight hours apart (Americas, Europe, Asia
/// by longitude, each with a small floor elsewhere), over `HOURS` hours.
fn drift_trace(world: &World, seed: u64) -> DriftTrace {
    let by_lon = |lo: f64, hi: f64| -> Population {
        Population::from_weights(
            world
                .clients
                .iter()
                .map(|&c| {
                    let lon = world.topology.nodes()[c].location.lon_deg();
                    if (lo..hi).contains(&lon) {
                        1.0
                    } else {
                        0.02
                    }
                })
                .collect(),
        )
        .expect("every population has clients")
    };
    let regions = [
        (by_lon(-130.0, -30.0), 4.0),
        (by_lon(-30.0, 60.0), 12.0),
        (by_lon(60.0, 180.0), 20.0),
    ];
    let events = PhasedWorkload::diurnal(&regions, HOURS, HOUR_MS)
        .expect("a valid diurnal workload")
        .generate(&StreamConfig {
            rate_per_ms: RATE_PER_MS,
            seed,
            ..Default::default()
        });
    let period_ms = PERIOD_HOURS as f64 * HOUR_MS;
    let mut sizes = vec![0usize; HOURS / PERIOD_HOURS];
    for e in &events {
        let p = ((e.at_ms / period_ms) as usize).min(sizes.len() - 1);
        sizes[p] += 1;
    }
    DriftTrace {
        accesses: events
            .iter()
            .map(|e| (e.client as u32, e.bytes_kib))
            .collect(),
        sizes,
    }
}

fn new_manager(world: &World) -> ReplicaManager<DIMS> {
    let mut config = ManagerConfig::new(K, M);
    config.seed = SEED;
    ReplicaManager::new(
        world.coords.clone(),
        world.candidates.clone(),
        world.initial_placement(),
        config,
    )
    .expect("the benchmark's manager config is valid")
}

/// What one pass over the trace measured.
#[derive(Default)]
struct DriftPass {
    times: LoopTimes,
    route_ns: u64,
    propose_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    kmeans_ms: Vec<f64>,
    shadow_unmatched: u64,
    applied: u64,
    spent_usd: f64,
    /// The manager at the end of the pass.
    fingerprint: u64,
    counts: Counts,
}

/// One pass through a fresh manager. Traced, each rebalance is split into
/// its propose and commit halves and preceded by the shadow encode and
/// solve.
fn drift_pass(world: &World, trace: &DriftTrace, tracer: &mut Tracer) -> DriftPass {
    let mut m = new_manager(world);
    let mut out = DriftPass::default();
    let t = &mut out.times;
    let start = Instant::now();
    let mut offset = 0usize;
    let mut chunk: Vec<(Coord<DIMS>, f64)> = Vec::new();
    for (p, &size) in trace.sizes.iter().enumerate() {
        let p = p as u64;
        let period = tracer.open("bench.period", None, p);
        let accesses = &trace.accesses[offset..offset + size];
        offset += size;
        chunk.clear();
        chunk.extend(
            accesses
                .iter()
                .map(|&(c, w)| (world.coords[world.clients[c as usize]], w)),
        );
        let chunk = &chunk[..];

        let (delay, route_ns) = tracer.time("manager.route", period, p, || {
            let mut sum = 0.0;
            for (&(client, _), (coord, _)) in accesses.iter().zip(chunk) {
                sum += world
                    .matrix
                    .get(world.clients[client as usize], m.route(coord));
            }
            sum
        });
        t.delay_ms_sum += delay;
        out.route_ns += route_ns;

        let (served, ingest_ns) =
            tracer.time("manager.ingest", period, p, || m.ingest_period(chunk));
        t.ingest_ms.push(ingest_ns as f64 / 1e6);
        t.served += served.iter().sum::<u64>();
        t.accesses += size as u64;

        let decision = if tracer.enabled() {
            let ((summaries, encode_ns), _) =
                tracer.time("summary.encode", period, p, || layers::shadow_encode(&m));
            out.encode_ms.push(encode_ns as f64 / 1e6);
            let before = m.kmeans_stats();
            let (solve, _) = tracer.time("solve.kmeans", period, p, || {
                layers::shadow_solve(&m, &summaries, SEED)
            });
            let (pending, propose_ns) =
                tracer.time("manager.propose", period, p, || m.propose_rebalance());
            out.propose_ms.push(propose_ns as f64 / 1e6);
            match solve {
                Some((stats, ns)) if layers::same_effort(&stats, &before, &m.kmeans_stats()) => {
                    out.kmeans_ms.push(ns as f64 / 1e6)
                }
                Some(_) => out.shadow_unmatched += 1,
                None => {}
            }
            let (decision, commit_ns) = tracer.time("manager.commit", period, p, || {
                pending.map(|pending| m.commit_rebalance(pending))
            });
            out.commit_ms.push(commit_ns as f64 / 1e6);
            t.rebalance_ms.push((propose_ns + commit_ns) as f64 / 1e6);
            decision
        } else {
            let (decision, rebalance_ns) =
                tracer.time("manager.rebalance", period, p, || m.rebalance());
            t.rebalance_ms.push(rebalance_ns as f64 / 1e6);
            decision
        };
        match decision {
            Ok(d) if d.applied => {
                out.applied += 1;
                out.spent_usd += d.cost_usd;
            }
            Ok(_) => {}
            Err(_) => t.failed_rounds += 1,
        }
        tracer.close(period);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    out.fingerprint = manager_fingerprint(&m);
    out.counts.add_manager(&m);
    out.counts.applied = out.applied;
    out
}

/// FNV-1a over the placement and every counter of the manager.
fn manager_fingerprint(m: &ReplicaManager<DIMS>) -> u64 {
    let mut fp = Fingerprint::default();
    fp.word(m.placement().len() as u64);
    fp.words(m.placement().iter().map(|&n| n as u64));
    let s = m.stats();
    fp.words([
        s.rounds,
        s.replicas_moved,
        s.summary_bytes,
        s.accesses,
        s.failures,
    ]);
    let c = m.stream_stats();
    fp.words([c.absorbed, c.created, c.merged]);
    let k = m.kmeans_stats();
    fp.words([
        k.restarts,
        k.iterations,
        k.pruned_upper,
        k.pruned_tightened,
        k.full_scans,
    ]);
    fp.value()
}

pub fn run(args: &Args, out: &mut Outcome) {
    let (world, setup, setup_s) = repeated_setup(SETUP_REPS, new_manager);
    let trace = drift_trace(&world, args.seed);

    out.facts.int("k", K as u64);
    out.facts.int("micro_clusters", M as u64);
    out.facts.int("hours", HOURS as u64);
    out.facts.int("period_hours", PERIOD_HOURS as u64);
    out.facts
        .int("accesses_per_pass", trace.accesses.len() as u64);
    out.facts.int("periods_per_pass", trace.sizes.len() as u64);
    out.facts.text("loop", "closed");
    out.setup(setup, setup_s);

    let mut tracer = Tracer::new(args.trace);
    let mut reference = None;
    let (passes, traced) = timed_passes(args, |traced| {
        let mut untraced = Tracer::new(false);
        let pass = drift_pass(
            &world,
            &trace,
            if traced { &mut tracer } else { &mut untraced },
        );
        out.check_pass(&pass.times);
        out.check_fingerprint(&mut reference, pass.fingerprint, "pass");
        pass
    });
    out.deterministic(passes[0].times.mean_delay_ms(), passes[0].spent_usd);
    out.facts.int("applied_per_pass", passes[0].applied);
    fn times(ps: &[DriftPass]) -> Vec<&LoopTimes> {
        ps.iter().map(|p| &p.times).collect()
    }
    out.closed_loop(&times(&passes));

    if args.trace {
        let first = &traced[0];
        let t = &first.times;
        let ingest_s: f64 = t.ingest_ms.iter().sum::<f64>() / 1e3;
        out.metrics.insert(
            "manager.route_ns",
            first.route_ns as f64 / t.accesses.max(1) as f64,
        );
        out.metrics
            .insert("manager.ingest_ms", median(&t.ingest_ms));
        out.metrics
            .insert("manager.ingest_acc_per_s", t.accesses as f64 / ingest_s);
        out.metrics
            .insert("manager.propose_ms", median(&first.propose_ms));
        out.metrics
            .insert("manager.commit_ms", median(&first.commit_ms));
        out.metrics
            .insert("summary.encode_ms", median(&first.encode_ms));
        out.metrics
            .insert("solve.kmeans_ms", median(&first.kmeans_ms));
        first.counts.insert(&mut out.metrics);
        out.facts.int(
            "shadow_kmeans_unmatched",
            traced.iter().map(|p| p.shadow_unmatched).sum(),
        );
        out.trace_passes(&tracer, &times(&passes), &times(&traced));
        out.tracer = Some(tracer);
    }
    out.finish_fingerprint(reference);
}
