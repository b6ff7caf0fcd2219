//! Simulated multi-station sounding-round traffic for the serving layer.
//!
//! The driver splits the world exactly along the air interface: station-side
//! work (channel estimation → head compression → quantization → wire encoding)
//! happens in [`generate_traffic`] ahead of time, and the AP-side serving path
//! ([`serve_traffic`]) consumes only wire frames — so benchmarks can time the
//! server in isolation and compare the coalesced batched path, the
//! station-at-a-time reference and the streaming path, at any shard count,
//! on identical traffic.
//!
//! Traffic can include **session churn**: stations joining mid-run, stations
//! leaving, and bursty rounds where half the fleet drops its report at once
//! ([`ChurnConfig`]). Churn is pre-scheduled deterministically into the
//! traffic ([`ChurnEvent`]), so every server type replays the identical
//! workload.

pub use crate::server::ServeMode;
use crate::server::{ApServer, RoundSummary};
use crate::session::StationId;
use crate::timing::{DeadlinePolicy, FrameStamp};
use crate::ServeError;
use rand::Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use std::collections::BTreeSet;
use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
use wifi_phy::ofdm::Bandwidth;

/// Session-churn shape of a simulated workload. All schedules are
/// deterministic in the round index; `0` disables the respective mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnConfig {
    /// Every `join_every`-th round (after round 0) one brand-new station id
    /// joins the fleet.
    pub join_every: usize,
    /// Every `leave_every`-th round (after round 0) the longest-standing
    /// active station leaves.
    pub leave_every: usize,
    /// Every `burst_every`-th round, every other active station drops its
    /// report — a bursty loss event on top of `drop_every`.
    pub burst_every: usize,
}

impl ChurnConfig {
    /// No churn: the fleet is static and only `drop_every` losses apply.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any churn mechanism is enabled.
    pub fn is_active(&self) -> bool {
        self.join_every != 0 || self.leave_every != 0 || self.burst_every != 0
    }
}

/// Shape of one simulated serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of stations associated with the AP at round 0.
    pub stations: usize,
    /// Number of sounding rounds.
    pub rounds: usize,
    /// Bottleneck quantizer width every station announces.
    pub bits_per_value: u8,
    /// Every `drop_every`-th (station, round) pair skips its report, leaving
    /// that station stale for the round; `0` disables drops.
    pub drop_every: usize,
    /// Per-stream SNR of the MU-MIMO link check in dB.
    pub snr_db: f64,
    /// Session churn: joins, departures and bursty drops.
    pub churn: ChurnConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            stations: 8,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 11,
            snr_db: 25.0,
            churn: ChurnConfig::none(),
        }
    }
}

impl SimConfig {
    /// A small default workload: 8 stations, 4 rounds, 4-bit bottleneck, one
    /// in eleven reports dropped, no churn.
    pub fn small() -> Self {
        Self::default()
    }
}

/// One pre-scheduled session-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new station associates (before the round's frames are ingested).
    Join(StationId),
    /// A station disassociates.
    Leave(StationId),
}

/// One round of pre-generated traffic: lifecycle events applied before
/// ingest, then the frames of every active station in ascending id order.
#[derive(Debug, Clone, Default)]
pub struct SimRound {
    /// Joins/leaves applied before this round's frames.
    pub events: Vec<ChurnEvent>,
    /// `(station, frame)` pairs; `None` marks a dropped report.
    pub frames: Vec<(StationId, Option<Vec<u8>>)>,
}

/// Pre-generated station-side traffic: per-round churn events and wire
/// frames, plus the final-round true channels for the link check. Traffic is
/// always generated against **model key 0** of the consuming server.
#[derive(Debug, Clone)]
pub struct SimTraffic {
    /// The rounds, in order.
    pub rounds: Vec<SimRound>,
    /// `final_csi[id]` is station `id`'s true per-subcarrier channel in the
    /// last round it reported (empty when it never reported).
    pub final_csi: Vec<Vec<mimo_math::CMatrix>>,
    /// Channel bandwidth (for rebuilding snapshots).
    pub bandwidth: Bandwidth,
    /// Spatial streams per station.
    pub nss: usize,
    /// Quantizer width the stations announce (used when churn re-registers).
    pub bits_per_value: u8,
    /// Number of stations registered before round 0.
    pub initial_stations: usize,
    /// One past the highest station id that ever appears in the traffic.
    pub max_station_id: StationId,
}

impl SimTraffic {
    /// Total wire bytes across all rounds and stations.
    pub fn total_wire_bytes(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.frames.iter())
            .filter_map(|(_, f)| f.as_ref().map(Vec::len))
            .sum()
    }

    /// Number of frames actually transmitted (non-dropped reports).
    pub fn total_frames(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.frames.iter().filter(|(_, f)| f.is_some()).count())
            .sum()
    }

    /// Number of scheduled reports that were dropped (including bursts).
    pub fn total_drops(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.frames.iter().filter(|(_, f)| f.is_none()).count())
            .sum()
    }

    /// Scheduled joins across the run.
    pub fn total_joins(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count()
    }

    /// Scheduled departures across the run.
    pub fn total_leaves(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|e| matches!(e, ChurnEvent::Leave(_)))
            .count()
    }
}

/// Runs the station side of `cfg.rounds` sounding rounds: every active
/// station estimates an independent channel, compresses it through the model
/// head, quantizes at `cfg.bits_per_value` bits and wire-encodes the payload.
/// Churn (joins, leaves, bursty drops) is scheduled deterministically from
/// `cfg.churn`.
///
/// # Panics
/// Panics if `cfg.stations` or `cfg.rounds` is zero, or the model rejects the
/// generated CSI (impossible for a model matching its own `MimoConfig`).
pub fn generate_traffic(cfg: &SimConfig, model: &SplitBeamModel, rng: &mut impl Rng) -> SimTraffic {
    assert!(cfg.stations > 0 && cfg.rounds > 0, "empty workload");
    let mimo = &model.config().mimo;
    let channel = ChannelModel::with_rx_antennas(
        EnvironmentProfile::e1(),
        mimo.bandwidth,
        mimo.nt,
        mimo.nr,
        1,
        mimo.nss,
    );
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut final_csi: Vec<Vec<mimo_math::CMatrix>> = vec![Vec::new(); cfg.stations];
    let mut active: BTreeSet<StationId> = (0..cfg.stations as StationId).collect();
    let mut next_id = cfg.stations as StationId;
    let mut event = 0usize;
    for r in 0..cfg.rounds {
        let mut round = SimRound::default();
        if r > 0 {
            if cfg.churn.join_every != 0 && r.is_multiple_of(cfg.churn.join_every) {
                round.events.push(ChurnEvent::Join(next_id));
                active.insert(next_id);
                final_csi.push(Vec::new());
                next_id += 1;
            }
            if cfg.churn.leave_every != 0 && r.is_multiple_of(cfg.churn.leave_every) {
                if let Some(&oldest) = active.iter().next() {
                    if active.len() > 1 {
                        active.remove(&oldest);
                        round.events.push(ChurnEvent::Leave(oldest));
                    }
                }
            }
        }
        let burst = cfg.churn.burst_every != 0 && (r + 1).is_multiple_of(cfg.churn.burst_every);
        for (i, &id) in active.iter().enumerate() {
            event += 1;
            let dropped = (cfg.drop_every != 0 && event.is_multiple_of(cfg.drop_every))
                || (burst && i % 2 == 0);
            if dropped {
                round.frames.push((id, None));
                continue;
            }
            let snapshot = channel.sample(rng);
            let csi: Vec<f32> = snapshot
                .csi_real_vector(0)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            let payload = model
                .compress_quantized(&csi, cfg.bits_per_value)
                .expect("model accepts its own configuration's CSI");
            let frame = wire::encode_feedback(&payload).expect("freshly quantized payload encodes");
            final_csi[id as usize] = snapshot.csi(0).to_vec();
            round.frames.push((id, Some(frame)));
        }
        rounds.push(round);
    }
    SimTraffic {
        rounds,
        final_csi,
        bandwidth: mimo.bandwidth,
        nss: mimo.nss,
        bits_per_value: cfg.bits_per_value,
        initial_stations: cfg.stations,
        max_station_id: next_id,
    }
}

/// Anything that can replay driver traffic: the [`ApServer`] at any shard
/// count, and drivers layered on top of it ([`crate::EventDriver`]). The
/// trait is the seam that lets one `serve_traffic` implementation drive (and
/// cross-compare) every serving path on identical workloads.
pub trait RoundServing {
    /// Associates a station (see [`ApServer::register_station`]).
    ///
    /// # Errors
    /// Registration validation/capacity errors.
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError>;

    /// Removes a station's session.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError>;

    /// Whether station `id` currently has a session (used by drivers layered
    /// on top of a server to mirror its lifecycle, e.g. after idle eviction).
    fn is_registered(&self, id: StationId) -> bool;

    /// Ingests one wire frame for the current round.
    ///
    /// # Errors
    /// Same contract as [`ApServer::ingest_wire`].
    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError>;

    /// Ingests one wire frame with its virtual-time stamp, so a deadline-aware
    /// close can classify it against the Eq. 7d budget.
    ///
    /// # Errors
    /// Same contract as [`RoundServing::ingest_wire`].
    fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError>;

    /// Closes the current round in the requested mode.
    ///
    /// # Errors
    /// [`ServeError::Model`] on reconstruction failure.
    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError>;

    /// Closes the current round enforcing `policy`: expired reports are
    /// consumed without reconstruction, late-but-usable reports are served but
    /// flagged.
    ///
    /// # Errors
    /// Same contract as [`RoundServing::close_round`].
    fn close_round_deadline(
        &mut self,
        mode: ServeMode,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError>;

    /// Stations evicted by the most recent round close (`0` for servers
    /// without an idle-eviction policy).
    fn evicted_in_last_round(&self) -> usize {
        0
    }

    /// The latest reconstructed feedback of station `id`.
    fn feedback_of(&self, id: StationId) -> Option<&[f32]>;
}

/// The streaming extension of [`RoundServing`]: servers whose ingest can
/// enqueue onto bounded per-shard rings and whose rounds can close through
/// watermark-driven micro-batches instead of a global barrier, so the
/// event-driven driver can run streaming mode through one code path.
pub trait StreamServing: RoundServing {
    /// Switches between lockstep and streaming ingest. Only toggle while
    /// quiescent (no frames queued or pending).
    fn set_streaming(&mut self, on: bool);

    /// One watermark tick at virtual time `watermark_ns` with tick period
    /// `step_ns`: commits frames that have arrived by the watermark and
    /// micro-closes each shard whose oldest pending frame's service deadline
    /// (per `policy`, default [`DeadlinePolicy::eq7d`]) falls before the next
    /// watermark.
    fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    );

    /// Closes the current round in streaming mode: flushes queued frames,
    /// serves whatever the watermarks have not already micro-closed, and
    /// folds the micro-batch accounting into one round summary.
    ///
    /// # Errors
    /// Same contract as [`RoundServing::close_round`].
    fn finalize_stream_round(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError>;
}

impl RoundServing for ApServer {
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        ApServer::register_station(self, id, model_key, bits_per_value)
    }

    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        ApServer::deregister_station(self, id)
    }

    fn is_registered(&self, id: StationId) -> bool {
        self.session(id).is_some()
    }

    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        ApServer::ingest_wire(self, id, frame)
    }

    fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        ApServer::ingest_wire_at(self, id, frame, stamp)
    }

    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError> {
        self.close(mode, None)
    }

    fn close_round_deadline(
        &mut self,
        mode: ServeMode,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError> {
        self.close(mode, Some(policy))
    }

    fn evicted_in_last_round(&self) -> usize {
        ApServer::evicted_in_last_round(self)
    }

    fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        ApServer::feedback_of(self, id)
    }
}

impl StreamServing for ApServer {
    fn set_streaming(&mut self, on: bool) {
        ApServer::set_streaming(self, on);
    }

    fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        ApServer::advance_watermark(self, watermark_ns, step_ns, policy);
    }

    fn finalize_stream_round(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        self.close(ServeMode::Streaming, policy)
    }
}

/// Builds a server with `num_shards` session shards, `model` registered and
/// stations `0..stations` associated at `bits_per_value` bits.
///
/// # Panics
/// Panics on invalid `bits_per_value` (registration is infallible otherwise).
pub fn build_server(
    model: SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    num_shards: usize,
) -> ApServer {
    let mut server = ApServer::with_shards(num_shards);
    let key = server.register_model(model);
    for id in 0..stations as StationId {
        server
            .register_station(id, key, bits_per_value)
            .expect("fresh server accepts fleet registration");
    }
    server
}

/// What one full [`serve_traffic`] pass did, beyond the per-round summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// One summary per closed round.
    pub summaries: Vec<RoundSummary>,
    /// Stations that joined mid-run (scheduled churn).
    pub joins: usize,
    /// Stations that left mid-run (scheduled churn).
    pub leaves: usize,
    /// Frames from unknown stations that triggered a clean re-association
    /// (the station was evicted, then transmitted again).
    pub reassociations: usize,
    /// Stations evicted across all rounds (always `0` for servers without an
    /// idle-eviction policy).
    pub evictions: usize,
}

impl ServeOutcome {
    /// Total stations served across all rounds.
    pub fn total_served(&self) -> usize {
        self.summaries.iter().map(|s| s.served).sum()
    }
}

/// Feeds pre-generated traffic through any server, closing one round per
/// traffic round and applying the scheduled churn events. A frame from an
/// unknown station (evicted mid-run) triggers a clean re-association against
/// model key 0 before the frame is retried — exactly what a real AP does when
/// a dropped station transmits again.
///
/// # Errors
/// Propagates ingest/reconstruction failures (impossible for traffic
/// generated against the registered model).
pub fn serve_traffic<S: RoundServing>(
    server: &mut S,
    traffic: &SimTraffic,
    mode: ServeMode,
) -> Result<ServeOutcome, ServeError> {
    let mut outcome = ServeOutcome {
        summaries: Vec::with_capacity(traffic.rounds.len()),
        joins: 0,
        leaves: 0,
        reassociations: 0,
        evictions: 0,
    };
    for round in &traffic.rounds {
        for event in &round.events {
            match *event {
                ChurnEvent::Join(id) => {
                    server.register_station(id, 0, traffic.bits_per_value)?;
                    outcome.joins += 1;
                }
                ChurnEvent::Leave(id) => match server.deregister_station(id) {
                    // Already evicted by the idle policy — nothing to remove.
                    Ok(()) | Err(ServeError::UnknownStation(_)) => outcome.leaves += 1,
                    Err(e) => return Err(e),
                },
            }
        }
        for (id, frame) in &round.frames {
            let Some(frame) = frame else { continue };
            match server.ingest_wire(*id, frame) {
                Ok(_) => {}
                Err(ServeError::UnknownStation(_)) => {
                    server.register_station(*id, 0, traffic.bits_per_value)?;
                    server.ingest_wire(*id, frame)?;
                    outcome.reassociations += 1;
                }
                Err(e) => return Err(e),
            }
        }
        outcome.summaries.push(server.close_round(mode)?);
        outcome.evictions += server.evicted_in_last_round();
    }
    Ok(outcome)
}

/// Runs the end-to-end MU-MIMO link check over the served feedback: fresh
/// stations are partitioned into `Nt`-sized zero-forcing groups, each group's
/// reconstructed `V̂` drives the precoder, and the payload propagates through
/// the stations' *true* final-round channels.
///
/// `max_age` bounds how stale a station's feedback may be (in rounds) to join
/// a group. Returns the merged report across groups; groups of a single
/// station are skipped (no inter-user interference to measure).
///
/// # Errors
/// [`ServeError::Link`] when the precoder or link simulation rejects a group.
pub fn link_check(
    server: &ApServer,
    traffic: &SimTraffic,
    max_age: u64,
    snr_db: f64,
    rng: &mut impl Rng,
) -> Result<LinkReport, ServeError> {
    let link_cfg = LinkConfig {
        snr_db,
        ..LinkConfig::default()
    };
    let mut merged = LinkReport::empty();
    for group in server.mu_mimo_groups(max_age) {
        if group.len() < 2 {
            continue;
        }
        // Feedback can outlive the station's final reported channel only for
        // stations that reported at least once, so the CSI lookup is total.
        let feedback = server.group_feedback(&group)?;
        let per_user: Vec<Vec<mimo_math::CMatrix>> = group
            .iter()
            .map(|&id| traffic.final_csi[id as usize].clone())
            .collect();
        let snapshot = ChannelSnapshot::from_matrices(traffic.bandwidth, traffic.nss, per_user);
        let report = simulate_mu_mimo_ber(&snapshot, &feedback, &link_cfg, rng)
            .map_err(|e| ServeError::Link(e.to_string()))?;
        merged.merge(&report);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use wifi_phy::ofdm::MimoConfig;

    fn trained_free_model(seed: u64) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneEighth,
            ),
            &mut rng,
        )
    }

    #[test]
    fn traffic_has_expected_shape() {
        let model = trained_free_model(1);
        let cfg = SimConfig {
            stations: 3,
            rounds: 2,
            bits_per_value: 4,
            drop_every: 5,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        assert_eq!(traffic.rounds.len(), 2);
        assert_eq!(traffic.rounds[0].frames.len(), 3);
        assert!(traffic.rounds.iter().all(|r| r.events.is_empty()));
        // Event 5 (round 1, station 1) dropped out of 6.
        assert_eq!(traffic.total_frames(), 5);
        assert_eq!(traffic.total_drops(), 1);
        assert!(traffic.rounds[1].frames[1].1.is_none());
        let expected_frame_len = wire::encoded_len(model.bottleneck_dim(), 4);
        for round in &traffic.rounds {
            for (_, frame) in round.frames.iter() {
                if let Some(frame) = frame {
                    assert_eq!(frame.len(), expected_frame_len);
                }
            }
        }
        assert_eq!(traffic.total_wire_bytes(), 5 * expected_frame_len);
        assert_eq!(traffic.final_csi.len(), 3);
        assert_eq!(traffic.final_csi[0].len(), 56);
        assert_eq!(traffic.max_station_id, 3);
    }

    #[test]
    fn churn_schedules_joins_leaves_and_bursts() {
        let model = trained_free_model(2);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 4,
            drop_every: 0,
            churn: ChurnConfig {
                join_every: 2,
                leave_every: 3,
                burst_every: 3,
            },
            ..SimConfig::default()
        };
        assert!(cfg.churn.is_active());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        // Joins at rounds 2 and 4; leaves at rounds 3 and 6 (round 6 does not
        // exist, so only round 3).
        assert_eq!(traffic.total_joins(), 2);
        assert_eq!(traffic.total_leaves(), 1);
        assert_eq!(traffic.rounds[2].events, vec![ChurnEvent::Join(4)]);
        assert_eq!(traffic.rounds[3].events, vec![ChurnEvent::Leave(0)]);
        assert_eq!(traffic.rounds[4].events, vec![ChurnEvent::Join(5)]);
        // Bursty rounds (2 and 5) drop every other active station.
        assert!(traffic.total_drops() > 0);
        let burst_drops = traffic.rounds[2]
            .frames
            .iter()
            .filter(|(_, f)| f.is_none())
            .count();
        assert!(burst_drops >= 2, "burst round must drop several stations");
        // The joined station eventually transmits.
        assert!(traffic
            .rounds
            .iter()
            .any(|r| r.frames.iter().any(|(id, f)| *id == 4 && f.is_some())));
        assert_eq!(traffic.max_station_id, 6);
        assert_eq!(traffic.final_csi.len(), 6);
    }

    /// Satellite determinism test: the serving layer's batched reconstruction
    /// matches station-at-a-time reconstruction exactly, over multiple rounds
    /// with drops and churn.
    #[test]
    fn batched_serving_is_bit_exact_with_serial() {
        let model = trained_free_model(3);
        let cfg = SimConfig {
            stations: 6,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 7,
            churn: ChurnConfig {
                join_every: 2,
                leave_every: 3,
                burst_every: 0,
            },
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut batched = build_server(model.clone(), cfg.stations, cfg.bits_per_value, 1);
        let mut serial = build_server(model, cfg.stations, cfg.bits_per_value, 1);
        let b = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
        let s = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
        assert_eq!(b, s);
        assert_eq!(b.joins, traffic.total_joins());
        assert_eq!(b.leaves, traffic.total_leaves());
        for id in 0..traffic.max_station_id {
            assert_eq!(
                batched.feedback_of(id),
                serial.feedback_of(id),
                "station {id} batched vs serial"
            );
        }
    }

    #[test]
    fn sharded_serving_is_bit_exact_with_single_shard() {
        let model = trained_free_model(7);
        let cfg = SimConfig {
            stations: 6,
            rounds: 4,
            bits_per_value: 5,
            drop_every: 5,
            churn: ChurnConfig {
                join_every: 2,
                leave_every: 2,
                burst_every: 3,
            },
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut single = build_server(model.clone(), cfg.stations, cfg.bits_per_value, 1);
        let reference = serve_traffic(&mut single, &traffic, ServeMode::Batched).unwrap();
        for shards in [1usize, 2, 4, 7] {
            let mut sharded = build_server(model.clone(), cfg.stations, cfg.bits_per_value, shards);
            let outcome = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
            assert_eq!(outcome.total_served(), reference.total_served());
            for (got, want) in outcome.summaries.iter().zip(reference.summaries.iter()) {
                assert_eq!(
                    (got.round, got.served, got.stale, got.awaiting_first_report),
                    (
                        want.round,
                        want.served,
                        want.stale,
                        want.awaiting_first_report
                    ),
                    "{shards} shards"
                );
            }
            for id in 0..traffic.max_station_id {
                assert_eq!(
                    sharded.feedback_of(id),
                    single.feedback_of(id),
                    "{shards} shards, station {id}"
                );
            }
        }
    }

    #[test]
    fn evicted_stations_reassociate_on_their_next_frame() {
        let model = trained_free_model(9);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 4,
            drop_every: 3, // frequent drops so some station goes idle
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut server = build_server(model, cfg.stations, cfg.bits_per_value, 2);
        server.set_max_idle_rounds(Some(0)); // evict after any silent round
        let outcome = serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        assert!(
            outcome.evictions > 0,
            "aggressive idle budget must evict somebody"
        );
        assert!(
            outcome.reassociations > 0,
            "aggressive eviction must force re-associations"
        );
        // Every station that transmitted in the final round is back in.
        for (id, frame) in traffic.rounds.last().unwrap().frames.iter() {
            if frame.is_some() {
                assert!(server.session(*id).is_some(), "station {id} reassociated");
            }
        }
    }

    #[test]
    fn link_check_runs_on_fresh_groups() {
        let model = trained_free_model(5);
        let cfg = SimConfig {
            stations: 4,
            rounds: 2,
            bits_per_value: 8,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let mut server = build_server(model, cfg.stations, cfg.bits_per_value, 1);
        serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        let report = link_check(&server, &traffic, 0, cfg.snr_db, &mut rng).unwrap();
        // Two groups of two stations, every station carries payload bits.
        assert_eq!(report.per_user_bits.len(), 2);
        assert!(report.per_user_bits.iter().all(|&b| b > 0));
        assert!(report.ber().is_finite());
    }

    /// Precoding groups and the link check read the merged session view, so
    /// a four-shard server groups and precodes exactly like one shard.
    #[test]
    fn link_check_is_identical_across_shard_counts() {
        let model = trained_free_model(11);
        let cfg = SimConfig {
            stations: 9,
            rounds: 3,
            bits_per_value: 8,
            drop_every: 4,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let traffic = generate_traffic(&cfg, &model, &mut rng);
        let run = |shards: usize| {
            let mut server = build_server(model.clone(), cfg.stations, cfg.bits_per_value, shards);
            serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
            let groups = server.mu_mimo_groups(1);
            let feedback: Vec<_> = groups
                .iter()
                .map(|g| server.group_feedback(g).unwrap())
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let report = link_check(&server, &traffic, 1, cfg.snr_db, &mut rng).unwrap();
            (groups, feedback, report)
        };
        let (groups, feedback, report) = run(1);
        assert!(groups.iter().filter(|g| g.len() > 1).count() >= 2);
        let (groups4, feedback4, report4) = run(4);
        assert_eq!(groups4, groups);
        assert_eq!(feedback4, feedback);
        assert_eq!(report4, report);
    }
}
