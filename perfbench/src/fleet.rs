//! The `fleet` workload, and the keyed period loop it shares with the
//! offline replay of `serve`.
//!
//! Closed loop over a million-object key space: every access is first
//! routed with [`FleetManager::route`] (the read path), then each period is
//! ingested with [`FleetManager::ingest_period`] (the write path) and
//! closed by one [`FleetManager::rebalance`]. One pass is a fresh fleet fed
//! the whole seeded trace; the run repeats passes until its time is up,
//! and every pass must end in the same placement fingerprint. A traced run
//! adds one pass on a single fan-out thread.

use std::time::Instant;

use georep_cluster::KMeansStats;
use georep_coord::Coord;
use georep_core::experiment::DIMS;
use georep_core::fleet::{FleetConfig, FleetManager, FleetStats};
use georep_core::manager::ManagerConfig;
use georep_workload::population::Population;
use georep_workload::stream::{ShardedStream, StreamConfig};
use georep_workload::{AliasTable, Zipf};

use crate::layers::{self, Counts};
use crate::report::{median, Fingerprint, Metrics};
use crate::trace::Tracer;
use crate::world::{repeated_setup, World};
use crate::{timed_passes, Args, LoopTimes, Outcome, SETUP_REPS};

/// Key space.
const OBJECTS: u64 = 1_000_000;
/// Objects with an exact manager of their own (the Zipf head).
const HOT: u64 = 4_096;
/// Aggregated managers for the cold tail.
const COLD: usize = 64;
/// Accesses in one pass.
const ACCESSES: usize = 1_000_000;
/// Accesses per period.
const PERIOD: usize = 100_000;
/// Zipf exponent of both the object keys and the client popularity.
const ZIPF_S: f64 = 1.1;
/// Shards of the trace generator.
const SHARDS: usize = 64;

/// One keyed access: object id, client (index into [`World::clients`])
/// and weight.
#[derive(Clone, Copy)]
pub struct KeyedAccess {
    pub object: u32,
    pub client: u32,
    pub weight: f64,
}

/// A keyed access trace, stored compactly. Access `i` of a run is entry
/// `i mod len`, so a run may cycle through the trace; [`KeyedTrace::period`]
/// expands one period into what the fleet ingests.
pub struct KeyedTrace {
    pub accesses: Vec<KeyedAccess>,
}

impl KeyedTrace {
    pub fn get(&self, i: usize) -> KeyedAccess {
        self.accesses[i % self.accesses.len()]
    }

    /// `(object, client coordinate, weight)` for each access of `range`.
    pub fn period(
        &self,
        world: &World,
        range: std::ops::Range<usize>,
        out: &mut Vec<(u64, Coord<DIMS>, f64)>,
    ) {
        out.clear();
        out.extend(range.map(|i| {
            let a = self.get(i);
            (
                u64::from(a.object),
                world.coords[world.clients[a.client as usize]],
                a.weight,
            )
        }));
    }
}

/// `accesses` keyed accesses drawn from the seed, keys from `objects`.
/// Client popularity is Zipf-skewed over the topology's client nodes in a
/// fixed rank order, so seeds vary the sample, not which clients are
/// heavy. Shards are generated on up to `nproc` threads and converted as
/// they come, so the full event list never exists at once.
pub fn keyed_trace(world: &World, objects: AliasTable, accesses: usize, seed: u64) -> KeyedTrace {
    let pop = Population::zipf_skewed(world.clients.len(), ZIPF_S, 0x21F);
    let cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed,
        ..Default::default()
    };
    // A Poisson stream of 2 % more expected accesses than needed, cut to
    // the exact count.
    let stream =
        ShardedStream::new(&pop, &cfg, accesses as f64 * 1.02, SHARDS).with_objects(objects);
    let threads = georep_core::threads::available_parallelism().min(SHARDS);
    let per = SHARDS.div_ceil(threads);
    let parts: Vec<Vec<KeyedAccess>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SHARDS)
            .step_by(per)
            .map(|first| {
                let stream = &stream;
                scope.spawn(move || {
                    (first..(first + per).min(SHARDS))
                        .flat_map(|shard| stream.shard_events(shard))
                        .map(|e| KeyedAccess {
                            object: u32::try_from(e.object).expect("object ids fit in u32"),
                            client: e.client as u32,
                            weight: e.bytes_kib,
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a generator thread does not panic"))
            .collect()
    });
    let mut trace: Vec<KeyedAccess> = parts.concat();
    assert!(
        trace.len() >= accesses,
        "the generator fell short of {accesses} accesses ({})",
        trace.len()
    );
    trace.truncate(accesses);
    KeyedTrace { accesses: trace }
}

pub fn new_fleet(world: &World, config: FleetConfig) -> FleetManager<DIMS> {
    FleetManager::new(
        world.coords.clone(),
        world.candidates.clone(),
        world.initial_placement(),
        config,
    )
    .expect("the benchmark's fleet config is valid")
}

/// What one pass over a keyed trace measured.
#[derive(Default)]
pub struct FleetPass {
    pub times: LoopTimes,
    pub route_ns: u64,
    /// Owners with at least one access, summed over periods.
    pub active_owners: u64,
    /// Owner proposals that would move or resize a placement.
    pub would_move: u64,
    pub committed: u64,
    /// Per period: shadow encode time and the shadow solve time of the
    /// owners whose shadow reproduced their own round.
    pub encode_ms: Vec<f64>,
    pub kmeans_ms: Vec<f64>,
    pub shadow_matched: u64,
    pub shadow_unmatched: u64,
    /// The fleet at the end of the pass.
    pub fingerprint: u64,
    pub stats: FleetStats,
    pub counts: Counts,
}

/// Feeds `trace` through `fleet` in periods of `sizes` accesses: route
/// every access, ingest the period, rebalance. With `shadow`, each
/// rebalance is preceded by shadow encode and solve calls on every owner.
pub fn fleet_pass(
    world: &World,
    fleet: &mut FleetManager<DIMS>,
    config: &FleetConfig,
    trace: &KeyedTrace,
    sizes: &[usize],
    tracer: &mut Tracer,
    shadow: bool,
) -> FleetPass {
    let mut out = FleetPass::default();
    let t = &mut out.times;
    let start = Instant::now();
    let mut offset = 0usize;
    let mut chunk = Vec::new();
    for (p, &size) in sizes.iter().enumerate() {
        let p = p as u64;
        let period = tracer.open("bench.period", None, p);
        let range = offset..offset + size;
        offset += size;
        trace.period(world, range.clone(), &mut chunk);
        let chunk = &chunk[..];

        let (delay, route_ns) = tracer.time("fleet.route", period, p, || {
            let mut sum = 0.0;
            for a in range.map(|i| trace.get(i)) {
                let node = world.clients[a.client as usize];
                sum += world
                    .matrix
                    .get(node, fleet.route(u64::from(a.object), node));
            }
            sum
        });
        t.delay_ms_sum += delay;
        out.route_ns += route_ns;

        let (served, ingest_ns) =
            tracer.time("fleet.ingest", period, p, || fleet.ingest_period(chunk));
        t.ingest_ms.push(ingest_ns as f64 / 1e6);
        t.served += served.iter().sum::<u64>();
        t.accesses += size as u64;
        out.active_owners += served.iter().filter(|&&s| s > 0).count() as u64;

        let shadows = shadow.then(|| shadow_round(fleet, config, tracer, period, p));
        let (round, rebalance_ns) = tracer.time("fleet.rebalance", period, p, || fleet.rebalance());
        t.rebalance_ms.push(rebalance_ns as f64 / 1e6);
        match round {
            Ok(round) => {
                out.committed += round.committed as u64;
                out.would_move += round
                    .decisions
                    .iter()
                    .filter(|d| d.moved > 0 || d.proposed.len() != d.old.len())
                    .count() as u64;
            }
            Err(_) => t.failed_rounds += 1,
        }
        if let Some((encode_ns, solves)) = shadows {
            let mut kmeans_ns = 0u64;
            for (owner, (before, solve)) in solves.into_iter().enumerate() {
                let Some((stats, ns)) = solve else { continue };
                if layers::same_effort(&stats, &before, &fleet.owner(owner).kmeans_stats()) {
                    out.shadow_matched += 1;
                    kmeans_ns += ns;
                } else {
                    out.shadow_unmatched += 1;
                }
            }
            out.encode_ms.push(encode_ns as f64 / 1e6);
            out.kmeans_ms.push(kmeans_ns as f64 / 1e6);
        }
        tracer.close(period);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    out.fingerprint = fleet_fingerprint(fleet);
    out.stats = fleet.stats();
    for m in fleet.owners() {
        out.counts.add_manager(m);
    }
    out.counts.applied = out.stats.committed;
    out
}

/// Per-owner kmeans counters before the round, and the shadow solve.
type OwnerShadow = (KMeansStats, Option<(KMeansStats, u64)>);

/// Shadow encode and solve on every owner, as spans `summary.encode` and
/// `solve.kmeans`. Returns the total encode time and, per owner, its
/// counters before the round with the shadow solve's counters and time.
fn shadow_round(
    fleet: &FleetManager<DIMS>,
    config: &FleetConfig,
    tracer: &mut Tracer,
    period: Option<usize>,
    p: u64,
) -> (u64, Vec<OwnerShadow>) {
    let (summaries, encode_ns) = tracer.time("summary.encode", period, p, || {
        fleet
            .owners()
            .iter()
            .map(|m| layers::shadow_encode(m).0)
            .collect::<Vec<_>>()
    });
    let (solves, _) = tracer.time("solve.kmeans", period, p, || {
        fleet
            .owners()
            .iter()
            .zip(&summaries)
            .enumerate()
            .map(|(o, (m, s))| {
                let seed = FleetManager::<DIMS>::owner_config(config, o).seed;
                (m.kmeans_stats(), layers::shadow_solve(m, s, seed))
            })
            .collect()
    });
    (encode_ns, solves)
}

/// FNV-1a over every owner's placement and counters plus the fleet's.
pub fn fleet_fingerprint(fleet: &FleetManager<DIMS>) -> u64 {
    let mut fp = Fingerprint::default();
    for m in fleet.owners() {
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
    }
    let s = fleet.stats();
    fp.words([
        s.accesses,
        s.hot_accesses,
        s.rounds,
        s.committed,
        s.deferred,
        s.replicas_moved,
        s.spent_usd.to_bits(),
        s.failures,
    ]);
    fp.value()
}

/// The fleet, manager and cluster metrics of one traced pass.
pub fn insert_fleet_layer(pass: &FleetPass, metrics: &mut Metrics) {
    let t = &pass.times;
    let periods = t.ingest_ms.len().max(1) as f64;
    metrics.insert(
        "fleet.route_ns",
        pass.route_ns as f64 / t.accesses.max(1) as f64,
    );
    metrics.insert("fleet.ingest_ms", median(&t.ingest_ms));
    metrics.insert("fleet.rebalance_ms", median(&t.rebalance_ms));
    metrics.insert("fleet.active_owners", pass.active_owners as f64 / periods);
    metrics.insert(
        "fleet.commit_ratio",
        layers::ratio(pass.committed, pass.would_move),
    );
    metrics.insert("fleet.deferred", pass.stats.deferred as f64);
    metrics.insert("summary.encode_ms", median(&pass.encode_ms));
    metrics.insert("solve.kmeans_ms", median(&pass.kmeans_ms));
    pass.counts.insert(metrics);
}

/// The same periods through a fresh fleet built from `config`, untraced.
/// Thread settings never change results, so the fleet must end where the
/// timed passes did.
pub fn replay_pass(
    out: &mut Outcome,
    world: &World,
    config: FleetConfig,
    trace: &KeyedTrace,
    sizes: &[usize],
    reference: &mut Option<u64>,
    what: &str,
) -> FleetPass {
    let mut fleet = new_fleet(world, config);
    let pass = fleet_pass(
        world,
        &mut fleet,
        &config,
        trace,
        sizes,
        &mut Tracer::new(false),
        false,
    );
    out.check_pass(&pass.times);
    out.check_fingerprint(reference, pass.fingerprint, what);
    pass
}

/// `fleet.*_serial_ms`: the same calls on one fan-out thread
/// (`FleetConfig.threads = 1`).
pub fn serial_pass(
    out: &mut Outcome,
    world: &World,
    config: FleetConfig,
    trace: &KeyedTrace,
    sizes: &[usize],
    reference: &mut Option<u64>,
) {
    let mut serial = config;
    serial.threads = 1;
    let pass = replay_pass(out, world, serial, trace, sizes, reference, "serial pass");
    let t = &pass.times;
    out.metrics
        .insert("fleet.ingest_serial_ms", median(&t.ingest_ms));
    out.metrics
        .insert("fleet.rebalance_serial_ms", median(&t.rebalance_ms));
}

/// Shadow solves that did and did not reproduce their manager's round.
pub fn shadow_facts(out: &mut Outcome, passes: &[FleetPass]) {
    out.facts.int(
        "shadow_kmeans_matched",
        passes.iter().map(|p| p.shadow_matched).sum(),
    );
    out.facts.int(
        "shadow_kmeans_unmatched",
        passes.iter().map(|p| p.shadow_unmatched).sum(),
    );
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut manager = ManagerConfig::new(3, 8);
    manager.seed = 0x5CA1E;
    // Each owner's k-means restarts run on the owner's fan-out thread. At
    // the default (restarts fanned out again inside every one of the 4160
    // solves a round) the rebalance spawns threads per solve, and on a
    // 2-vCPU host with CPU steal its wall time swings up to threefold
    // between runs, which no regression bound can hold. The traced run
    // measures that default as `fleet.rebalance_nested_ms`.
    manager.restart_threads = 1;
    let config = FleetConfig::new(OBJECTS, HOT, COLD, manager);
    let (world, setup, setup_s) = repeated_setup(SETUP_REPS, |w| new_fleet(w, config));
    let trace = keyed_trace(
        &world,
        Zipf::new(OBJECTS as usize, ZIPF_S).alias(),
        ACCESSES,
        args.seed,
    );
    let sizes = vec![PERIOD; ACCESSES / PERIOD];

    out.facts.int("objects", OBJECTS);
    out.facts.int("hot_objects", HOT);
    out.facts.int("cold_groups", COLD as u64);
    out.facts.int("owners", HOT + COLD as u64);
    out.facts.int("accesses_per_pass", ACCESSES as u64);
    out.facts.int("period_accesses", PERIOD as u64);
    out.facts.num("zipf_objects", ZIPF_S);
    out.facts.num("zipf_clients", ZIPF_S);
    out.facts.text("budget_usd", "unlimited");
    out.facts.int("restart_threads", 1);
    out.facts.text("loop", "closed");
    out.setup(setup, setup_s);

    let mut tracer = Tracer::new(args.trace);
    let mut reference = None;
    let (passes, traced) = timed_passes(args, |traced| {
        let mut fleet = new_fleet(&world, config);
        let mut untraced = Tracer::new(false);
        let t = if traced { &mut tracer } else { &mut untraced };
        let pass = fleet_pass(&world, &mut fleet, &config, &trace, &sizes, t, traced);
        out.check_pass(&pass.times);
        out.check_fingerprint(&mut reference, pass.fingerprint, "pass");
        pass
    });
    out.deterministic(passes[0].times.mean_delay_ms(), passes[0].stats.spent_usd);
    fn times(ps: &[FleetPass]) -> Vec<&LoopTimes> {
        ps.iter().map(|p| &p.times).collect()
    }
    out.closed_loop(&times(&passes));

    if args.trace {
        insert_fleet_layer(&traced[0], &mut out.metrics);
        serial_pass(out, &world, config, &trace, &sizes, &mut reference);
        let mut nested = config;
        nested.manager.restart_threads = 0;
        let pass = replay_pass(
            out,
            &world,
            nested,
            &trace,
            &sizes,
            &mut reference,
            "nested pass",
        );
        out.metrics.insert(
            "fleet.rebalance_nested_ms",
            median(&pass.times.rebalance_ms),
        );
        shadow_facts(out, &traced);
        out.trace_passes(&tracer, &times(&passes), &times(&traced));
        out.tracer = Some(tracer);
    }
    out.finish_fingerprint(reference);
}
