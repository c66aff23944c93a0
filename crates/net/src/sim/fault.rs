//! Deterministic fault injection for the simulator.
//!
//! The healthy simulator delivers every message after `rtt/2 (+jitter)`.
//! Real wide-area networks do worse: links lose packets, latencies surge
//! when traffic reroutes, regions partition, and whole data centers go
//! dark. A [`FaultPlan`] is a *seeded, time-scheduled* description of such
//! faults that [`super::Network::deliver`] consults for every message:
//! the outcome is either [`Delivery::Deliver`] with a (possibly inflated)
//! delay or [`Delivery::Dropped`] with the cause.
//!
//! Determinism contract: a plan is a pure function of its construction
//! parameters plus an internal SplitMix64 counter advanced once per loss
//! draw. The discrete-event engine executes events in a deterministic
//! order, so the sequence of [`FaultPlan::delivery`] calls — and therefore
//! every drop decision — is bit-identical across runs with the same seed,
//! regardless of how much parallelism any *computation* layered on top
//! uses. All schedule state lives in plain `Vec`s; there is no hash-map
//! iteration anywhere a decision is made.
//!
//! All fault windows are half-open `[from, until)` on [`SimTime`].

use super::time::{SimDuration, SimTime};
use crate::hash::SplitMix64;

/// A half-open activity window `[from, until)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from: SimTime,
    until: SimTime,
}

impl Window {
    fn new(from: SimTime, until: SimTime) -> Self {
        assert!(from <= until, "fault window must not end before it starts");
        Window { from, until }
    }

    fn active(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// Why a message was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Random packet loss on the link.
    Loss,
    /// Source and destination are on opposite sides of an active partition.
    Partition,
    /// The source or destination data center is down.
    NodeDown,
}

/// Outcome of submitting one message to the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives after this one-way delay.
    Deliver(SimDuration),
    /// The message is lost; the cause is recorded for statistics.
    Dropped(DropCause),
}

#[derive(Debug, Clone)]
struct LinkLoss {
    a: usize,
    b: usize,
    probability: f64,
    window: Window,
}

#[derive(Debug, Clone)]
struct Partition {
    /// Sorted members of side A; everyone else is side B.
    side_a: Vec<usize>,
    window: Window,
}

#[derive(Debug, Clone)]
struct Crash {
    node: usize,
    window: Window,
}

#[derive(Debug, Clone)]
struct Surge {
    /// Sorted affected nodes; empty means every link.
    region: Vec<usize>,
    factor: f64,
    window: Window,
}

/// A seeded schedule of network faults.
///
/// Build one with the chained constructors, install it via
/// [`super::Network::with_faults`] or [`super::Network::set_faults`], and
/// the process layer routes every message through it.
///
/// # Example
///
/// ```
/// use georep_net::sim::fault::{Delivery, DropCause, FaultPlan};
/// use georep_net::sim::{SimDuration, SimTime};
///
/// let mut plan = FaultPlan::new(7)
///     .crash(3, SimTime::from_ms(100.0), SimTime::from_ms(200.0));
/// let base = SimDuration::from_ms(40.0);
/// // Before the crash window the message sails through untouched.
/// assert_eq!(
///     plan.delivery(0, 3, SimTime::from_ms(50.0), base),
///     Delivery::Deliver(base),
/// );
/// // During the window every message touching node 3 is dropped.
/// assert_eq!(
///     plan.delivery(0, 3, SimTime::from_ms(150.0), base),
///     Delivery::Dropped(DropCause::NodeDown),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Generator for loss draws.
    rng: SplitMix64,
    default_loss: f64,
    link_loss: Vec<LinkLoss>,
    partitions: Vec<Partition>,
    crashes: Vec<Crash>,
    surges: Vec<Surge>,
}

fn check_probability(p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "loss probability must be in [0, 1], got {p}"
    );
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed for loss draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SplitMix64(seed ^ 0xFA_07_1E_57),
            default_loss: 0.0,
            link_loss: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            surges: Vec::new(),
        }
    }

    /// Uniform packet-loss probability applied to every inter-node message
    /// at all times (independently of any [`FaultPlan::lossy_link`] windows).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_default_loss(mut self, p: f64) -> Self {
        check_probability(p);
        self.default_loss = p;
        self
    }

    /// Packet loss with probability `p` on the (undirected) link `a — b`
    /// during `[from, until)`. Several windows on the same link compose as
    /// independent loss processes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` and `from ≤ until`.
    pub fn lossy_link(mut self, a: usize, b: usize, p: f64, from: SimTime, until: SimTime) -> Self {
        check_probability(p);
        self.link_loss.push(LinkLoss {
            a: a.min(b),
            b: a.max(b),
            probability: p,
            window: Window::new(from, until),
        });
        self
    }

    /// A bidirectional partition during `[from, until)`: messages between
    /// `side_a` and its complement are dropped; traffic within either side
    /// is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    pub fn partition(mut self, side_a: &[usize], from: SimTime, until: SimTime) -> Self {
        let mut side_a = side_a.to_vec();
        side_a.sort_unstable();
        side_a.dedup();
        self.partitions.push(Partition {
            side_a,
            window: Window::new(from, until),
        });
        self
    }

    /// Data center `node` is down (network-dark) during `[from, until)`:
    /// messages it sends are dropped at the source, messages addressed to
    /// it are dropped on arrival. Its local timers keep running — a crashed
    /// DC is modelled as isolated, so its protocol state machine resumes
    /// cleanly at recovery.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    pub fn crash(mut self, node: usize, from: SimTime, until: SimTime) -> Self {
        self.crashes.push(Crash {
            node,
            window: Window::new(from, until),
        });
        self
    }

    /// Latency surge: every link touching a node of `region` (both ends,
    /// either direction; an empty region means *every* link) has its delay
    /// multiplied by `factor` during `[from, until)`. Overlapping surges
    /// multiply.
    ///
    /// # Panics
    ///
    /// Panics unless `factor > 0` and `from ≤ until`.
    pub fn latency_surge(
        mut self,
        region: &[usize],
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "surge factor must be positive and finite, got {factor}"
        );
        let mut region = region.to_vec();
        region.sort_unstable();
        region.dedup();
        self.surges.push(Surge {
            region,
            factor,
            window: Window::new(from, until),
        });
        self
    }

    /// Whether `node` is down at `at`.
    pub fn node_down(&self, node: usize, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.window.active(at))
    }

    /// Whether `a` and `b` are separated by an active partition at `at`.
    pub fn partitioned(&self, a: usize, b: usize, at: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            p.window.active(at)
                && (p.side_a.binary_search(&a).is_ok() != p.side_a.binary_search(&b).is_ok())
        })
    }

    /// The combined latency multiplier on link `a — b` at `at` (product of
    /// all active surges; `1.0` when none apply).
    pub fn latency_factor(&self, a: usize, b: usize, at: SimTime) -> f64 {
        self.surges
            .iter()
            .filter(|s| {
                s.window.active(at)
                    && (s.region.is_empty()
                        || s.region.binary_search(&a).is_ok()
                        || s.region.binary_search(&b).is_ok())
            })
            .map(|s| s.factor)
            .product()
    }

    /// The effective loss probability on link `a — b` at `at`: the default
    /// loss and every active per-link window composed as independent loss
    /// processes (`1 − Π(1 − pᵢ)`).
    pub fn loss_probability(&self, a: usize, b: usize, at: SimTime) -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut survive = 1.0 - self.default_loss;
        for l in &self.link_loss {
            if l.a == lo && l.b == hi && l.window.active(at) {
                survive *= 1.0 - l.probability;
            }
        }
        1.0 - survive
    }

    /// True when the plan schedules no faults at all (delivery will never
    /// alter a message).
    pub fn is_empty(&self) -> bool {
        self.default_loss == 0.0
            && self.link_loss.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.surges.is_empty()
    }

    /// Decides the fate of one message sent at `sent_at` with healthy base
    /// delay `base`. Checks, in order: source down at send time, partition
    /// at send time, packet loss (one seeded draw, only when the loss
    /// probability is positive), then destination down at *arrival* time —
    /// a message in flight toward a DC that dies before it lands is lost
    /// with it.
    pub fn delivery(
        &mut self,
        from: usize,
        to: usize,
        sent_at: SimTime,
        base: SimDuration,
    ) -> Delivery {
        if self.node_down(from, sent_at) {
            return Delivery::Dropped(DropCause::NodeDown);
        }
        if self.partitioned(from, to, sent_at) {
            return Delivery::Dropped(DropCause::Partition);
        }
        let p = self.loss_probability(from, to, sent_at);
        if p > 0.0 && self.rng.next_f64() < p {
            return Delivery::Dropped(DropCause::Loss);
        }
        let factor = self.latency_factor(from, to, sent_at);
        let delay = if factor == 1.0 {
            base
        } else {
            SimDuration::from_micros((base.as_micros() as f64 * factor).round().max(1.0) as u64)
        };
        if self.node_down(to, sent_at + delay) {
            return Delivery::Dropped(DropCause::NodeDown);
        }
        Delivery::Deliver(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        let base = SimDuration::from_ms(25.0);
        for t in [0.0, 100.0, 1e6] {
            assert_eq!(plan.delivery(0, 1, ms(t), base), Delivery::Deliver(base));
        }
    }

    #[test]
    fn crash_window_drops_both_directions_and_then_heals() {
        let mut plan = FaultPlan::new(2).crash(4, ms(10.0), ms(20.0));
        let base = SimDuration::from_ms(1.0);
        assert_eq!(plan.delivery(4, 0, ms(9.9), base), Delivery::Deliver(base));
        assert_eq!(
            plan.delivery(4, 0, ms(10.0), base),
            Delivery::Dropped(DropCause::NodeDown)
        );
        assert_eq!(
            plan.delivery(0, 4, ms(15.0), base),
            Delivery::Dropped(DropCause::NodeDown)
        );
        // Half-open window: up again at exactly `until`.
        assert_eq!(plan.delivery(0, 4, ms(20.0), base), Delivery::Deliver(base));
    }

    #[test]
    fn in_flight_message_dies_with_the_destination() {
        // Sent at t = 8 ms with a 5 ms delay: arrives at 13 ms, inside the
        // destination's crash window.
        let mut plan = FaultPlan::new(3).crash(1, ms(10.0), ms(20.0));
        assert_eq!(
            plan.delivery(0, 1, ms(8.0), SimDuration::from_ms(5.0)),
            Delivery::Dropped(DropCause::NodeDown)
        );
        assert_eq!(
            plan.delivery(0, 1, ms(8.0), SimDuration::from_ms(1.0)),
            Delivery::Deliver(SimDuration::from_ms(1.0))
        );
    }

    #[test]
    fn partition_separates_sides_symmetrically() {
        let mut plan = FaultPlan::new(4).partition(&[0, 1, 2], ms(0.0), ms(100.0));
        let base = SimDuration::from_ms(1.0);
        assert_eq!(
            plan.delivery(0, 5, ms(50.0), base),
            Delivery::Dropped(DropCause::Partition)
        );
        assert_eq!(
            plan.delivery(5, 0, ms(50.0), base),
            Delivery::Dropped(DropCause::Partition)
        );
        // Same-side traffic flows on both sides.
        assert_eq!(plan.delivery(0, 2, ms(50.0), base), Delivery::Deliver(base));
        assert_eq!(plan.delivery(4, 5, ms(50.0), base), Delivery::Deliver(base));
        // After the window heals, everything flows.
        assert_eq!(
            plan.delivery(0, 5, ms(100.0), base),
            Delivery::Deliver(base)
        );
    }

    #[test]
    fn surge_inflates_delay_multiplicatively() {
        let plan = FaultPlan::new(5)
            .latency_surge(&[0, 1], 3.0, ms(0.0), ms(50.0))
            .latency_surge(&[], 2.0, ms(40.0), ms(60.0));
        assert_eq!(plan.latency_factor(0, 9, ms(10.0)), 3.0);
        assert_eq!(plan.latency_factor(5, 9, ms(10.0)), 1.0);
        // Overlap: both surges active on a link touching node 1.
        assert_eq!(plan.latency_factor(1, 9, ms(45.0)), 6.0);
        assert_eq!(plan.latency_factor(5, 9, ms(45.0)), 2.0);
        let mut plan = plan;
        assert_eq!(
            plan.delivery(0, 9, ms(10.0), SimDuration::from_ms(10.0)),
            Delivery::Deliver(SimDuration::from_ms(30.0))
        );
    }

    #[test]
    fn loss_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed).with_default_loss(0.5);
            (0..200)
                .map(|i| {
                    matches!(
                        plan.delivery(0, 1, ms(i as f64), SimDuration::from_ms(1.0)),
                        Delivery::Dropped(DropCause::Loss)
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds must diverge");
        let drops = run(42).iter().filter(|&&d| d).count();
        assert!((60..140).contains(&drops), "p = 0.5 drop count: {drops}");
    }

    #[test]
    fn link_loss_windows_compose_independently() {
        let plan =
            FaultPlan::new(6)
                .with_default_loss(0.5)
                .lossy_link(2, 7, 0.5, ms(0.0), ms(10.0));
        assert_eq!(plan.loss_probability(7, 2, ms(5.0)), 0.75);
        assert_eq!(plan.loss_probability(7, 2, ms(15.0)), 0.5);
        assert_eq!(plan.loss_probability(0, 1, ms(5.0)), 0.5);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut plan = FaultPlan::new(7).lossy_link(0, 1, 1.0, ms(0.0), ms(10.0));
        for i in 0..50 {
            assert_eq!(
                plan.delivery(0, 1, ms(i as f64 / 10.0), SimDuration::from_ms(1.0)),
                Delivery::Dropped(DropCause::Loss)
            );
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_probability_rejected() {
        let _ = FaultPlan::new(0).with_default_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "must not end before")]
    fn inverted_window_rejected() {
        let _ = FaultPlan::new(0).crash(0, ms(10.0), ms(5.0));
    }

    #[test]
    #[should_panic(expected = "surge factor")]
    fn bad_surge_factor_rejected() {
        let _ = FaultPlan::new(0).latency_surge(&[], 0.0, ms(0.0), ms(1.0));
    }
}
