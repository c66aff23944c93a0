//! The shared set-up every workload starts from: the 128-node
//! PlanetLab-seeded topology and its RNP coordinate embedding.

use std::time::Instant;

use georep_coord::rnp::Rnp;
use georep_coord::{Coord, EmbeddingRunner};
use georep_core::experiment::DIMS;
use georep_net::rtt::RttMatrix;
use georep_net::topology::{Topology, TopologyConfig};

use crate::report::median;

/// Nodes in the topology.
pub const NODES: usize = 128;
/// Every fifth node is a candidate data center; the rest are clients.
const CANDIDATE_STRIDE: usize = 5;
/// Replicas every object starts on (the first candidates).
pub const INITIAL_REPLICAS: usize = 3;

/// Topology, true RTTs and the coordinates the program sees.
pub struct World {
    pub topology: Topology,
    pub matrix: RttMatrix,
    pub coords: Vec<Coord<DIMS>>,
    pub candidates: Vec<usize>,
    /// Client node ids; workload generators index into this list.
    pub clients: Vec<usize>,
}

impl World {
    /// The placement every manager starts from.
    pub fn initial_placement(&self) -> Vec<usize> {
        self.candidates[..INITIAL_REPLICAS].to_vec()
    }
}

/// Wall time of one set-up, split by stage.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology_ms: f64,
    pub embedding_ms: f64,
    pub construct_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.topology_ms + self.embedding_ms + self.construct_ms) / 1e3
    }
}

/// Builds the topology and its embedding, timing both stages.
pub fn build_world() -> (World, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let topology = Topology::generate(TopologyConfig {
        nodes: NODES,
        seed: georep_net::planetlab::PLANETLAB_SEED,
        ..Default::default()
    })
    .expect("the default region set is a valid topology config");
    times.topology_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let matrix = topology.matrix().clone();
    let runner = EmbeddingRunner {
        rounds: 60,
        samples_per_round: 4,
        seed: 0xDECA,
    };
    let (coords, _) = runner.run(
        matrix.len(),
        |i, j| matrix.get(i, j),
        |_| Rnp::<DIMS>::new(),
    );
    times.embedding_ms = start.elapsed().as_secs_f64() * 1e3;

    let candidates = (0..NODES).step_by(CANDIDATE_STRIDE).collect();
    let clients = (0..NODES).filter(|i| i % CANDIDATE_STRIDE != 0).collect();
    let world = World {
        topology,
        matrix,
        coords,
        candidates,
        clients,
    };
    (world, times)
}

/// Runs the whole set-up — world plus the workload's `construct` step —
/// `reps` times. Returns the last world with the per-stage medians and the
/// median total in seconds; the constructed systems are dropped, since
/// every pass builds a fresh one.
pub fn repeated_setup<T>(
    reps: usize,
    mut construct: impl FnMut(&World) -> T,
) -> (World, SetupTimes, f64) {
    let mut all = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (world, mut times) = build_world();
        let start = Instant::now();
        std::hint::black_box(construct(&world));
        times.construct_ms = start.elapsed().as_secs_f64() * 1e3;
        all.push(times);
        last = Some(world);
    }
    let world = last.expect("at least one set-up ran");
    let pick = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let medians = SetupTimes {
        topology_ms: pick(|t| t.topology_ms),
        embedding_ms: pick(|t| t.embedding_ms),
        construct_ms: pick(|t| t.construct_ms),
    };
    (world, medians, pick(SetupTimes::total_s))
}
