//! `georep-serve` — a thread-per-core ingest service in front of the
//! replica-manager fleet.
//!
//! The offline pipeline ingests traces a period at a time; this crate
//! puts the same fleet behind a live front door without giving up the
//! repo's bit-determinism discipline:
//!
//! * [`ring`] — bounded lock-free SPSC rings (power-of-two capacity,
//!   cache-line-padded positions, batch drains), one per producer thread;
//! * [`service`] — [`service::IngestService`] drains rings into
//!   per-shard buffers, reassembles global stamp order behind a low
//!   watermark, absorbs what each poll has in hand with
//!   [`georep_core::fleet::FleetManager::ingest_period`] and closes each
//!   full period with a rebalance, so the online end state is
//!   bit-identical to an offline replay of the same periods;
//! * [`clock`] — the [`clock::Clock`] trait behind re-placement ticks
//!   ([`clock::SystemClock`] live, [`clock::MockClock`] in tests);
//! * [`metrics`] — Prometheus text rendering of the recorder (cumulative
//!   `_bucket{le="..."}` series off the exponential histogram buckets)
//!   and a minimal `std::net` HTTP endpoint with `GET /metrics` and
//!   `POST /ingest`.

pub mod clock;
pub mod metrics;
pub mod ring;
pub mod service;

pub use clock::{Clock, MockClock, SystemClock};
pub use metrics::{render_prometheus, MetricsExporter};
pub use ring::{spsc, Consumer, Producer};
pub use service::{Access, IngestService, ServeConfig, ShardProducer};
