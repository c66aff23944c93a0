//! Observing the manager and cluster layers from outside: their own
//! counters, summed over managers, and the shadow summary / solve calls
//! made on a manager's state just before it proposes.

use std::time::Instant;

use georep_cluster::{
    weighted_kmeans_with_stats, AccessSummary, KMeansConfig, KMeansStats, StreamStats,
    WeightedPoint,
};
use georep_core::experiment::DIMS;
use georep_core::manager::ReplicaManager;

use crate::report::Metrics;

/// Counters the manager and cluster layers keep, summed over managers.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub stream: StreamStats,
    pub kmeans: KMeansStats,
    pub rounds: u64,
    /// Rounds whose proposal was applied.
    pub applied: u64,
    pub replicas_moved: u64,
    pub summary_bytes: u64,
}

impl Counts {
    /// Adds one manager's lifetime counters (`applied` is the caller's:
    /// managers do not count their applied rounds).
    pub fn add_manager(&mut self, m: &ReplicaManager<DIMS>) {
        self.stream.merge(m.stream_stats());
        let k = m.kmeans_stats();
        self.kmeans.restarts += k.restarts;
        self.kmeans.iterations += k.iterations;
        self.kmeans.pruned_upper += k.pruned_upper;
        self.kmeans.pruned_tightened += k.pruned_tightened;
        self.kmeans.full_scans += k.full_scans;
        let s = m.stats();
        self.rounds += s.rounds;
        self.replicas_moved += s.replicas_moved;
        self.summary_bytes += s.summary_bytes;
    }

    pub fn insert(&self, metrics: &mut Metrics) {
        let s = self.stream;
        metrics.insert("cluster.absorbed", s.absorbed as f64);
        metrics.insert("cluster.created", s.created as f64);
        metrics.insert("cluster.merged", s.merged as f64);
        metrics.insert(
            "cluster.absorb_ratio",
            ratio(s.absorbed, s.absorbed + s.created),
        );
        metrics.insert("solve.kmeans_iterations", self.kmeans.iterations as f64);
        metrics.insert("solve.kmeans_restarts", self.kmeans.restarts as f64);
        metrics.insert("solve.prune_rate", self.kmeans.prune_rate());
        metrics.insert("manager.applied_ratio", ratio(self.applied, self.rounds));
        metrics.insert("manager.replicas_moved", self.replicas_moved as f64);
        metrics.insert("manager.summary_bytes", self.summary_bytes as f64);
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Shadow `summary.encode`: materializes and encodes the summaries the
/// manager would ship. Returns them with the encode time in nanoseconds.
pub fn shadow_encode(m: &ReplicaManager<DIMS>) -> (Vec<AccessSummary>, u64) {
    let start = Instant::now();
    let summaries = m.summaries();
    let bytes: usize = summaries.iter().map(|s| s.encode().len()).sum();
    std::hint::black_box(bytes);
    (summaries, start.elapsed().as_nanos() as u64)
}

/// Shadow `solve.kmeans`: the weighted k-means the manager's next propose
/// runs, on the pseudo-points rebuilt from `summaries`. Returns the
/// solver's effort counters and its time in nanoseconds, or `None` for an
/// empty period (the manager skips the solve too).
pub fn shadow_solve(
    m: &ReplicaManager<DIMS>,
    summaries: &[AccessSummary],
    seed: u64,
) -> Option<(KMeansStats, u64)> {
    let mut pseudo: Vec<WeightedPoint<DIMS>> = Vec::new();
    for s in summaries {
        let clusters = s
            .to_micro_clusters::<DIMS>()
            .expect("a manager's own summary decodes");
        pseudo.extend(
            clusters
                .iter()
                .map(|c| WeightedPoint::new(c.centroid(), c.weight())),
        );
    }
    if pseudo.is_empty() {
        return None;
    }
    let cfg = KMeansConfig::new(m.k().min(pseudo.len())).with_seed(seed);
    let start = Instant::now();
    let (_, stats) = weighted_kmeans_with_stats(&pseudo, cfg).expect("shadow solve succeeds");
    Some((stats, start.elapsed().as_nanos() as u64))
}

/// Whether a shadow solve did exactly the work the manager's own round
/// did: its counters equal the change in the manager's counters.
pub fn same_effort(shadow: &KMeansStats, before: &KMeansStats, after: &KMeansStats) -> bool {
    shadow.restarts == after.restarts - before.restarts
        && shadow.iterations == after.iterations - before.iterations
        && shadow.pruned_upper == after.pruned_upper - before.pruned_upper
        && shadow.pruned_tightened == after.pruned_tightened - before.pruned_tightened
        && shadow.full_scans == after.full_scans - before.full_scans
}
