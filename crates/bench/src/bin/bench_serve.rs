//! Serving benchmark: sustained ring-to-fleet ingest throughput.
//!
//! One JSON record (`BENCH_serve.json`) covering the `georep-serve`
//! envelope:
//!
//! * **pipeline** — N producer threads submit pre-stamped accesses
//!   through per-shard SPSC rings; the service thread drains, reassembles
//!   global stamp order behind the watermark, absorbs what each poll has
//!   in hand with [`FleetManager::ingest_period`] and closes every full
//!   period with a rebalance — the full online path, measured end to end
//!   from first submit to final close;
//! * **latency** — one in `LATENCY_SAMPLE` accesses carries a monotonic
//!   enqueue timestamp; the recorder's exponential histogram yields the
//!   p50/p99 enqueue-to-absorb time: queueing (including any rebalance
//!   the service ran meanwhile) plus the absorb of the access's slice;
//! * **equivalence** — the trace is a pure function of the stamp, so an
//!   offline replay of the service's recorded flush partition must leave
//!   a fresh fleet bit-identical to the online one (`identical_result`).
//!
//! `check_bench` gates the record at ≥ 3.3M sustained ops/sec and a
//! bounded p99.
//!
//! Run with `cargo run -p georep-bench --release --bin bench_serve`
//! (`--quick` shrinks the trace for the CI sanity gate, `--out DIR`
//! moves the JSON).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use georep_coord::Coord;
use georep_core::fleet::{FleetConfig, FleetManager};
use georep_core::manager::ManagerConfig;
use georep_net::hash::splitmix64;
use georep_serve::{IngestService, MockClock, ServeConfig};

/// Coordinate dimensionality of the serving tier (smaller than the
/// offline experiment's 7: the paper's clustering quality results do not
/// depend on it, and the serving gate is a throughput envelope).
const D: usize = 3;
/// Region coordinate table size.
const REGIONS: usize = 32;
/// Fleet key space.
const OBJECTS: u64 = 4_096;
/// Exact hot managers / hashed cold groups.
const HOT: u64 = 16;
const COLD: usize = 8;
/// Producer threads (one ring each).
const PRODUCERS: usize = 2;
/// One in this many accesses carries an enqueue timestamp.
const LATENCY_SAMPLE: u64 = 1_024;
/// Throughput floor `check_bench` enforces on the record.
const MIN_OPS_PER_SEC: f64 = 3_300_000.0;
/// Latency ceiling `check_bench` enforces on the record.
const MAX_P99_MS: f64 = 1_000.0;

/// Deterministic region coordinates (an LCG stand-in for an embedding).
fn regions() -> Arc<Vec<Coord<D>>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    Arc::new(
        (0..REGIONS)
            .map(|_| {
                Coord::new(std::array::from_fn(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f64 / 1e4
                }))
            })
            .collect(),
    )
}

fn fleet(regions: &Arc<Vec<Coord<D>>>) -> FleetManager<D> {
    let mut mgr = ManagerConfig::new(2, 4);
    mgr.seed = 0x5CA1E;
    let candidates: Vec<usize> = (0..REGIONS).step_by(5).collect();
    FleetManager::new_shared(
        Arc::clone(regions),
        candidates,
        vec![0, 5],
        FleetConfig::new(OBJECTS, HOT, COLD, mgr),
    )
    .expect("valid fleet")
}

/// SplitMix64: the access for stamp `s` is a pure function of `s`, so
/// producers generate on the fly and the offline replay regenerates the
/// identical trace without ever materializing it twice.
fn access_for(stamp: u64) -> (u64, u32, f64) {
    let z = splitmix64(stamp);
    let object = (z >> 20) % OBJECTS;
    let region = ((z >> 8) % REGIONS as u64) as u32;
    let weight = 0.5 + (z % 128) as f64 / 64.0;
    (object, region, weight)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} (supported: --quick, --out DIR)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (total, period) = if quick {
        (1_000_000u64, 200_000usize)
    } else {
        (4_000_000u64, 250_000usize)
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "serve benchmark ({}): {total} accesses, {PRODUCERS} producers, \
         period {period}, {threads} cores\n",
        if quick { "quick" } else { "full" }
    );

    let regions = regions();
    let config = ServeConfig {
        shards: PRODUCERS,
        ring_capacity: 1 << 16,
        period_accesses: period,
        // The bench drives flushes by size alone; a clock tick would cut a
        // timing-dependent partial period and break replay determinism.
        tick_interval_ms: u64::MAX / 2,
        latency_sample: LATENCY_SAMPLE,
    };
    let clock = MockClock::new();
    let (mut svc, producers) =
        IngestService::new(fleet(&regions), Arc::clone(&regions), clock, config);

    // ---- Online run: producers stream, the service drains and ingests. ----
    let start = Instant::now();
    let handles: Vec<_> = producers
        .into_iter()
        .enumerate()
        .map(|(shard, mut p)| {
            std::thread::Builder::new()
                .name(format!("producer-{shard}"))
                .spawn(move || {
                    // Pre-assigned round-robin stamps: ring `shard` sees
                    // stamps shard, shard+P, shard+2P, ... — strictly
                    // increasing per ring, globally dense.
                    let mut stamp = shard as u64;
                    while stamp < total {
                        let (object, region, weight) = access_for(stamp);
                        p.submit_stamped(stamp, object, region, weight);
                        stamp += PRODUCERS as u64;
                    }
                })
                .expect("spawn producer")
        })
        .collect();
    svc.finish().expect("serve finish");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for h in handles {
        h.join().expect("producer thread");
    }
    assert_eq!(svc.served_total(), total, "service lost accesses");

    let sustained = total as f64 / (wall_ms / 1e3);
    let hist = svc
        .recorder()
        .histogram("serve.enqueue_to_absorb_ms")
        .expect("latency samples recorded");
    let (p50, p99) = (hist.percentile(0.50), hist.percentile(0.99));
    println!(
        "online          {wall_ms:>10.1} ms   {:.2}M ops/s   {} flushes   \
         p50 {p50:.1} ms   p99 {p99:.1} ms ({} samples)",
        sustained / 1e6,
        svc.flush_sizes().len(),
        hist.count,
    );

    // ---- Offline replay of the recorded partition: must be identical. ----
    let replay_start = Instant::now();
    let mut offline = fleet(&regions);
    let mut offline_served = vec![0u64; offline.owner_count()];
    let mut cursor = 0u64;
    for &chunk in svc.flush_sizes() {
        let batch: Vec<(u64, Coord<D>, f64)> = (cursor..cursor + chunk)
            .map(|stamp| {
                let (object, region, weight) = access_for(stamp);
                (object, regions[region as usize], weight)
            })
            .collect();
        for (t, s) in offline_served.iter_mut().zip(offline.ingest_period(&batch)) {
            *t += s;
        }
        offline.rebalance().expect("offline rebalance");
        cursor += chunk;
    }
    let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cursor, total, "flush partition does not cover the trace");
    let identical = svc.fleet().stats() == offline.stats()
        && svc.served() == offline_served
        && (0..offline.owner_count()).all(|o| {
            svc.fleet().owner(o).placement() == offline.owner(o).placement()
                && svc.fleet().owner(o).stats() == offline.owner(o).stats()
        });
    println!(
        "equivalence     online == offline replay over {} owners: {identical} \
         (replay {replay_ms:.1} ms)",
        offline.owner_count()
    );
    assert!(identical, "online serving diverged from the offline replay");

    let throughput_ok = sustained >= MIN_OPS_PER_SEC;
    let p99_ok = p99 <= MAX_P99_MS;
    println!(
        "gates           sustained ≥ {:.1}M: {throughput_ok}   p99 ≤ {MAX_P99_MS:.0} ms: {p99_ok}",
        MIN_OPS_PER_SEC / 1e6
    );

    // ---- JSON record. ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"available_parallelism\": {threads},");
    let _ = writeln!(
        json,
        "  \"serve\": {{\"producers\": {PRODUCERS}, \"ring_capacity\": {}, \
         \"period_accesses\": {period}, \"latency_sample\": {LATENCY_SAMPLE}}},",
        1 << 16
    );
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"objects\": {OBJECTS}, \"hot_objects\": {HOT}, \
         \"cold_groups\": {COLD}, \"owners\": {}, \"dims\": {D}}},",
        svc.fleet().owner_count()
    );
    let _ = writeln!(
        json,
        "  \"online\": {{\"accesses\": {total}, \"wall_ms\": {wall_ms:.1}, \
         \"sustained_ops_per_sec\": {sustained:.0}, \"flushes\": {}, \"ticks\": {}}},",
        svc.flush_sizes().len(),
        svc.ticks()
    );
    let _ = writeln!(
        json,
        "  \"latency\": {{\"samples\": {}, \"p50_enqueue_to_absorb_ms\": {p50:.3}, \
         \"p99_enqueue_to_absorb_ms\": {p99:.3}, \"max_ms\": {:.3}}},",
        hist.count, hist.max
    );
    let _ = writeln!(json, "  \"replay_ms\": {replay_ms:.1},");
    let _ = writeln!(json, "  \"identical_result\": {identical},");
    let _ = writeln!(
        json,
        "  \"note\": \"{PRODUCERS} producer threads pre-stamp a SplitMix64 trace into \
         per-shard SPSC rings; the service reassembles global stamp order behind the \
         watermark, absorbs each poll's watermark-complete slice with \
         FleetManager::ingest_period and closes every {period}-access period with a \
         rebalance; p50/p99 are enqueue-to-absorb (ring queueing plus the slice's absorb, \
         no period fill); the offline replay of the recorded period partition must match \
         bit for bit\""
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_serve.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write {}: {e}", path.display()),
    }
}
