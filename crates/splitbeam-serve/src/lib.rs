//! AP-side SplitBeam feedback **serving layer**.
//!
//! The paper's airtime and compute wins (Section IV) only materialize at the
//! access point, which aggregates head outputs from *many* stations across
//! sounding rounds and runs the tail reconstruction for all of them. This
//! crate turns the batched kernels of `splitbeam`/`neural` into that service:
//!
//! * [`session`] — per-station state: model binding, quantizer width, the last
//!   reconstructed `V̂` and its age in sounding rounds,
//! * [`server`] — the [`ApServer`]: partitions sessions across `N` shards
//!   (deterministic `id % N` mapping; one by default, more with
//!   [`ApServer::with_shards`]), ingests bit-packed wire frames
//!   ([`splitbeam::wire`]), and closes every round through one
//!   [`ApServer::close`]`(mode, policy)` — coalescing everything pending into
//!   one batched tail inference per model and shard, shards in parallel,
//!   bit-exact with serving each station alone at every shard count. It owns
//!   session lifecycle (capacity caps, idle eviction, clean re-registration)
//!   and groups fresh stations into `Nt`-sized MU-MIMO groups for the
//!   zero-forcing precoder,
//! * [`driver`] — a simulated multi-station sounding-round driver: station-side
//!   compress → quantize → wire-encode traffic generation (including session
//!   churn: joins, departures, bursty drops), AP-side serving in batched,
//!   station-at-a-time or streaming mode at any shard count, and the end-to-end
//!   `simulate_mu_mimo_ber` link check over the served feedback,
//! * [`timing`] — virtual-time frame stamps ([`FrameStamp`]) and the Eq. 7d
//!   [`DeadlinePolicy`] the deadline-aware round closer enforces: every
//!   report is classified on-time / late-but-usable / past-budget **at round
//!   close**, from its ingest timestamp,
//! * [`event`] — the [`EventDriver`]: discrete-event virtual-clock serving on
//!   top of any [`driver::RoundServing`] server — per-station sounding
//!   cadences, head/tail compute latencies from the accelerator model, seeded
//!   jitter and shared-medium contention, with the lockstep drivers
//!   recoverable bit-exactly as the zero-delay degenerate case.
//!
//! # Example: serve two stations on a two-shard AP for one round
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use splitbeam::config::{CompressionLevel, SplitBeamConfig};
//! use splitbeam::model::SplitBeamModel;
//! use splitbeam_serve::server::{ApServer, ServeMode};
//! use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
//! use wifi_phy::ofdm::{Bandwidth, MimoConfig};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let config = SplitBeamConfig::new(
//!     MimoConfig::symmetric(2, Bandwidth::Mhz20),
//!     CompressionLevel::OneEighth,
//! );
//! let model = SplitBeamModel::new(config, &mut rng);
//! let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
//!
//! // Stations 0 and 1 land on different shards (`id % 2`).
//! let mut server = ApServer::with_shards(2);
//! let key = server.register_model(model.clone());
//! for id in 0..2u64 {
//!     server.register_station(id, key, 4).unwrap();
//!     let csi: Vec<f32> = channel
//!         .sample(&mut rng)
//!         .csi_real_vector(0)
//!         .into_iter()
//!         .map(|v| v as f32)
//!         .collect();
//!     let payload = model.compress_quantized(&csi, 4).unwrap();
//!     let frame = splitbeam::wire::encode_feedback(&payload).unwrap();
//!     server.ingest_wire(id, &frame).unwrap();
//! }
//! let summary = server.close(ServeMode::Batched, None).unwrap();
//! assert_eq!(summary.served, 2);
//! // Flat real-interleaved V̂ per station; matrices materialize per group.
//! assert_eq!(server.feedback_of(0).unwrap().len(), 224);
//! assert_eq!(server.feedback_matrices_of(0).unwrap().len(), 56);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod driver;
pub mod event;
pub mod fleet;
pub mod ring;
pub mod server;
pub mod session;
mod shard;
pub mod slab;
pub mod timing;

pub use driver::StreamServing;
pub use event::{build_event_driver, EventConfig, EventDriver};
pub use fleet::{Fleet, FleetConfig, FleetRoundSummary, FleetStats};
pub use ring::Ring;
pub use server::{ApServer, HealthPolicy, RoundSummary, ServeMode, ShardRoundStats};
pub use session::{SessionHealth, StationId, StationSession};
pub use shard::{ShardedApServer, ShardedRoundSummary};
pub use slab::{SessionHandle, SessionSlab};
pub use timing::{DeadlinePolicy, FrameClass, FrameStamp, RoundDelayStats};

/// Errors produced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The station id is not registered.
    UnknownStation(StationId),
    /// The model key does not name a registered model.
    UnknownModel(usize),
    /// The station id is already registered.
    DuplicateStation(StationId),
    /// Registration rejected: the server is at its station capacity
    /// (station id, configured capacity).
    CapacityExceeded(StationId, usize),
    /// A wire frame failed to decode, or its payload does not match the
    /// station's model.
    Codec(String),
    /// A wire frame from this station failed its CRC-32 integrity check: the
    /// bytes were damaged on the air. The frame is dropped and counted against
    /// the station's health, never decoded into plausible garbage.
    Corrupt(StationId, String),
    /// A sequenced frame re-delivered a sequence number already pending for
    /// this round (station id, sequence number); the duplicate is suppressed.
    DuplicateFrame(StationId, u16),
    /// The station is quarantined after repeated corrupt frames; its traffic
    /// is rejected until the quarantine expires.
    Quarantined(StationId),
    /// Streaming ingest rejected a frame because the shard's bounded ring is
    /// full (station id, ring capacity). The frame is dropped at the ingest
    /// edge instead of silently overwriting queued feedback.
    Backpressure(StationId, usize),
    /// Tail reconstruction failed.
    Model(String),
    /// A station has no reconstructed feedback yet.
    NoFeedback(StationId),
    /// The MU-MIMO link check failed.
    Link(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownStation(id) => write!(f, "unknown station {id}"),
            ServeError::UnknownModel(key) => write!(f, "unknown model key {key}"),
            ServeError::DuplicateStation(id) => write!(f, "station {id} already registered"),
            ServeError::CapacityExceeded(id, cap) => {
                write!(f, "station {id} rejected: server is at capacity {cap}")
            }
            ServeError::Codec(msg) => write!(f, "wire codec error: {msg}"),
            ServeError::Corrupt(id, msg) => {
                write!(f, "corrupt frame from station {id}: {msg}")
            }
            ServeError::DuplicateFrame(id, seq) => {
                write!(f, "duplicate frame seq {seq} from station {id}")
            }
            ServeError::Quarantined(id) => write!(f, "station {id} is quarantined"),
            ServeError::Backpressure(id, cap) => {
                write!(f, "station {id} stream ring is full (capacity {cap})")
            }
            ServeError::Model(msg) => write!(f, "tail reconstruction error: {msg}"),
            ServeError::NoFeedback(id) => write!(f, "station {id} has no feedback yet"),
            ServeError::Link(msg) => write!(f, "link check error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}
