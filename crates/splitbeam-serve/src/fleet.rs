//! Multi-AP fleet serving: N access points on one event engine.
//!
//! ROADMAP item 1 asks for fleet scale — many [`ApServer`]s serving 100k+
//! concurrent sessions. This module provides the orchestration layer:
//!
//! * **one event queue for the whole fleet**: every station's frame offer is
//!   an event on a single [`EventQueue`] (the timer-wheel engine), drained in
//!   deterministic `(time, station, seq)` order each round;
//! * **overlapping-BSS contention**: each AP is bound to one of `channels`
//!   wireless channels, every channel is one [`SharedMedium`], so co-channel
//!   APs serialize on the *same* air and charge each other airtime. The wait
//!   a frame accrues while a *foreign* BSS holds the channel is accounted as
//!   cross-BSS airtime loss per AP;
//! * **station roaming**: [`Fleet::handoff`] moves a station between APs by
//!   releasing its full [`crate::StationSession`] state at the source and
//!   adopting it (rebound to the target's model key) at the target — no cold
//!   re-register, so pending payloads, feedback history, health state and
//!   staleness clocks travel. With identical model weights behind the source
//!   and target bindings, a roamed station's served feedback is bit-exact
//!   with a never-roamed control (pinned by the `fleet_roaming` tests).
//!
//! Determinism: virtual time only, seeded jitter, ordered event drain,
//! per-channel media updated in drain order — the same seed and call
//! sequence reproduces every summary bit-for-bit.

use crate::server::{ApServer, RoundSummary, ServeMode};
use crate::session::StationId;
use crate::timing::{DeadlinePolicy, FrameStamp};
use crate::ServeError;
use splitbeam::model::SplitBeamModel;
use splitbeam_hwsim::{EventQueue, MediumGrant, SeededJitter, SharedMedium, VirtualNs};
use std::collections::BTreeMap;

/// Fleet shape and physics knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of access points.
    pub aps: usize,
    /// Number of wireless channels; AP `i` is bound to channel `i % channels`,
    /// so `channels < aps` produces overlapping BSSs that contend for air.
    pub channels: usize,
    /// Feedback data rate per channel in Mbit/s; `None` models ideal
    /// (zero-airtime) media.
    pub rate_mbps: Option<f64>,
    /// Sounding round interval in virtual ns.
    pub round_ns: VirtualNs,
    /// Per-frame readiness jitter amplitude in ns (station-side compute +
    /// backoff spread), drawn from a stream seeded with `seed`.
    pub jitter_ns: VirtualNs,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Deadline policy applied at every AP's round close; `None` disables
    /// classification (everything on time).
    pub policy: Option<DeadlinePolicy>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            aps: 4,
            channels: 2,
            rate_mbps: Some(240.0),
            round_ns: 20_000_000,
            jitter_ns: 0,
            seed: 7,
            policy: Some(DeadlinePolicy::eq7d()),
        }
    }
}

/// One round's aggregate over the whole fleet, plus the per-AP summaries it
/// was folded from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundSummary {
    pub round: u64,
    pub served: usize,
    pub on_time: usize,
    pub late: usize,
    pub expired: usize,
    /// Frames rejected at ingest (quarantine, corruption, codec).
    pub rejected: usize,
    /// Handoffs whose station was served for the first time post-handoff
    /// during this round.
    pub handoffs_settled: usize,
    pub per_ap: Vec<RoundSummary>,
}

/// Fleet-lifetime aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    pub rounds: u64,
    pub served: u64,
    pub on_time: u64,
    pub late: u64,
    pub expired: u64,
    pub rejected: u64,
    /// Fraction of classified reports served within budget.
    pub deadline_hit_rate: f64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// Handoffs already settled (station served at its new AP).
    pub handoffs_settled: u64,
    /// Mean virtual ns from handoff to the station's first post-handoff
    /// serve at the target AP.
    pub mean_handoff_latency_ns: f64,
    /// Total airtime carried across all channels.
    pub air_ns: u64,
    /// Total medium queueing across all channels.
    pub wait_ns: u64,
    /// The slice of that queueing charged while a *foreign* BSS held the
    /// channel — the overlapping-BSS airtime loss.
    pub cross_bss_wait_ns: u64,
}

struct Offer {
    frame: Vec<u8>,
    /// Station-side delay from the sounding instant until the frame was
    /// ready to transmit (folded into the stamp's head leg).
    head_ns: VirtualNs,
}

/// N access points on one event engine. See the module docs.
pub struct Fleet {
    cfg: FleetConfig,
    aps: Vec<ApServer>,
    channel_of: Vec<usize>,
    media: Vec<SharedMedium>,
    /// Last AP to transmit on each channel, for cross-BSS attribution.
    channel_owner: Vec<Option<usize>>,
    cross_bss_wait_ns: Vec<u64>,
    queue: EventQueue<Offer>,
    jitter: SeededJitter,
    /// Station → home AP index.
    home: BTreeMap<StationId, usize>,
    round: u64,
    now_ns: VirtualNs,
    handoffs: u64,
    /// Stations handed off and not yet served at their new AP, with the
    /// virtual handoff instant.
    pending_handoff: BTreeMap<StationId, VirtualNs>,
    handoff_latency_sum_ns: u64,
    handoffs_settled: u64,
    served: u64,
    on_time: u64,
    late: u64,
    expired: u64,
    rejected: u64,
}

impl Fleet {
    /// Builds a fleet per `cfg`. Panics when `aps == 0` or `channels == 0`
    /// (a fleet needs at least one of each).
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.aps > 0, "fleet needs at least one AP");
        assert!(cfg.channels > 0, "fleet needs at least one channel");
        let media = (0..cfg.channels)
            .map(|_| match cfg.rate_mbps {
                Some(rate) => SharedMedium::new(rate),
                None => SharedMedium::ideal(),
            })
            .collect();
        Self {
            aps: (0..cfg.aps).map(|_| ApServer::new()).collect(),
            channel_of: (0..cfg.aps).map(|i| i % cfg.channels).collect(),
            media,
            channel_owner: vec![None; cfg.channels],
            cross_bss_wait_ns: vec![0; cfg.aps],
            queue: EventQueue::new(),
            jitter: SeededJitter::new(cfg.jitter_ns, cfg.seed),
            home: BTreeMap::new(),
            round: 0,
            now_ns: 0,
            handoffs: 0,
            pending_handoff: BTreeMap::new(),
            handoff_latency_sum_ns: 0,
            handoffs_settled: 0,
            served: 0,
            on_time: 0,
            late: 0,
            expired: 0,
            rejected: 0,
            cfg,
        }
    }

    /// Registers `model` on every AP under one fleet-wide key, so a roaming
    /// session's binding stays valid (and bit-identical) at any AP.
    pub fn register_model(&mut self, model: &SplitBeamModel) -> usize {
        let mut key = 0;
        for ap in &mut self.aps {
            key = ap.register_model(model.clone());
        }
        key
    }

    /// Associates station `id` with AP `ap`.
    pub fn register_station(
        &mut self,
        id: StationId,
        ap: usize,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.aps[ap].register_station(id, model_key, bits_per_value)?;
        self.home.insert(id, ap);
        Ok(())
    }

    /// The AP currently serving `id`.
    pub fn home_ap(&self, id: StationId) -> Option<usize> {
        self.home.get(&id).copied()
    }

    pub fn ap(&self, index: usize) -> &ApServer {
        &self.aps[index]
    }

    pub fn num_aps(&self) -> usize {
        self.aps.len()
    }

    pub fn num_stations(&self) -> usize {
        self.home.len()
    }

    pub fn current_round(&self) -> u64 {
        self.round
    }

    pub fn now_ns(&self) -> VirtualNs {
        self.now_ns
    }

    /// The latest reconstructed feedback of `id`, wherever it is homed.
    pub fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        let ap = *self.home.get(&id)?;
        self.aps[ap].feedback_of(id)
    }

    /// Pre-sizes the event queue for `events` offers per round.
    pub fn reserve_events(&mut self, events: usize) {
        self.queue.reserve(events);
    }

    /// Offers a station's encoded wire frame for the current round. The
    /// frame becomes ready `jitter` ns into the round (the station-side
    /// compute/backoff spread) and is transmitted on the home AP's channel
    /// when the fleet closes the round.
    pub fn offer_frame(&mut self, id: StationId, frame: Vec<u8>) -> Result<(), ServeError> {
        if !self.home.contains_key(&id) {
            return Err(ServeError::UnknownStation(id));
        }
        let head_ns = self.jitter.draw();
        self.queue
            .schedule(self.now_ns + head_ns, id, Offer { frame, head_ns });
        Ok(())
    }

    /// Hands `id` off from its current AP to `to_ap`, moving its full
    /// session state without a cold re-register. A handoff to the current
    /// home is a no-op. On an adoption failure the session is restored at
    /// the source, so a failed handoff never drops the station.
    pub fn handoff(&mut self, id: StationId, to_ap: usize) -> Result<(), ServeError> {
        let from = *self.home.get(&id).ok_or(ServeError::UnknownStation(id))?;
        assert!(to_ap < self.aps.len(), "handoff target AP out of range");
        if from == to_ap {
            return Ok(());
        }
        let session = self.aps[from].release_station(id)?;
        let key = session.model_key();
        if let Err((session, e)) = self.aps[to_ap].adopt_station(session, key) {
            // Restore at the source: the slot was just vacated and the
            // binding is unchanged, so re-adoption cannot fail.
            self.aps[from]
                .adopt_station(session, key)
                .map_err(|(_, restore_err)| restore_err)?;
            return Err(e);
        }
        self.home.insert(id, to_ap);
        self.pending_handoff.insert(id, self.now_ns);
        self.handoffs += 1;
        Ok(())
    }

    /// Transmits one frame on `ap`'s channel, attributing any wait accrued
    /// while a foreign BSS held the channel as cross-BSS loss.
    fn transmit(&mut self, ap: usize, ready_ns: VirtualNs, bits: usize) -> MediumGrant {
        let ch = self.channel_of[ap];
        let busy_until = self.media[ch].busy_until_ns();
        if ready_ns < busy_until && self.channel_owner[ch].is_some_and(|owner| owner != ap) {
            self.cross_bss_wait_ns[ap] += busy_until - ready_ns;
        }
        let grant = self.media[ch].transmit(ready_ns, bits);
        self.channel_owner[ch] = Some(ap);
        grant
    }

    /// Closes the fleet round: drains every offered frame from the event
    /// queue in deterministic key order, serializes it on its AP's channel,
    /// ingests it with its virtual-time stamp, closes every AP's round under
    /// the deadline policy, and settles handoff latencies.
    ///
    /// # Errors
    /// The first AP round-close error (in AP order); ingest rejections
    /// (quarantine, corruption) are counted, not raised.
    pub fn close_round(&mut self) -> Result<FleetRoundSummary, ServeError> {
        while let Some((key, offer)) = self.queue.pop() {
            let id = key.station;
            let Some(&ap) = self.home.get(&id) else {
                self.rejected += 1;
                continue;
            };
            let grant = self.transmit(ap, key.time_ns, offer.frame.len() * 8);
            let stamp = FrameStamp {
                arrival_ns: grant.end_ns,
                head_ns: offer.head_ns,
                queue_ns: grant.wait_ns,
                air_ns: grant.air_ns,
                tail_ns: 0,
            };
            if self.aps[ap]
                .ingest_wire_at(id, &offer.frame, stamp)
                .is_err()
            {
                self.rejected += 1;
            }
        }
        let closed_round = self.round;
        let mut per_ap = Vec::with_capacity(self.aps.len());
        for ap in &mut self.aps {
            per_ap.push(ap.close(ServeMode::Batched, self.cfg.policy)?);
        }
        self.round += 1;
        self.now_ns += self.cfg.round_ns;

        // Settle handoffs: a station served at its new home for the first
        // time since the handoff completes the roam; latency is measured in
        // virtual time to the end of the serving round.
        let settled: Vec<StationId> = self
            .pending_handoff
            .iter()
            .filter(|(&id, _)| {
                let Some(&ap) = self.home.get(&id) else {
                    return true;
                };
                self.aps[ap]
                    .session(id)
                    .and_then(|s| s.last_round())
                    .is_some_and(|r| r >= closed_round)
            })
            .map(|(&id, _)| id)
            .collect();
        let mut handoffs_settled = 0usize;
        for id in settled {
            if let Some(at_ns) = self.pending_handoff.remove(&id) {
                self.handoff_latency_sum_ns += self.now_ns.saturating_sub(at_ns);
                self.handoffs_settled += 1;
                handoffs_settled += 1;
            }
        }

        let mut summary = FleetRoundSummary {
            round: closed_round,
            served: 0,
            on_time: 0,
            late: 0,
            expired: 0,
            rejected: 0,
            handoffs_settled,
            per_ap,
        };
        for s in &summary.per_ap {
            summary.served += s.served;
            summary.on_time += s.on_time;
            summary.late += s.late;
            summary.expired += s.expired;
        }
        self.served += summary.served as u64;
        self.on_time += summary.on_time as u64;
        self.late += summary.late as u64;
        self.expired += summary.expired as u64;
        Ok(summary)
    }

    /// Fleet-lifetime aggregates.
    pub fn stats(&self) -> FleetStats {
        let classified = self.on_time + self.late + self.expired;
        FleetStats {
            rounds: self.round,
            served: self.served,
            on_time: self.on_time,
            late: self.late,
            expired: self.expired,
            rejected: self.rejected,
            deadline_hit_rate: if classified == 0 {
                1.0
            } else {
                self.on_time as f64 / classified as f64
            },
            handoffs: self.handoffs,
            handoffs_settled: self.handoffs_settled,
            mean_handoff_latency_ns: if self.handoffs_settled == 0 {
                0.0
            } else {
                self.handoff_latency_sum_ns as f64 / self.handoffs_settled as f64
            },
            air_ns: self.media.iter().map(SharedMedium::total_air_ns).sum(),
            wait_ns: self.media.iter().map(SharedMedium::total_wait_ns).sum(),
            cross_bss_wait_ns: self.cross_bss_wait_ns.iter().sum(),
        }
    }

    /// Cross-BSS wait charged to one AP.
    pub fn cross_bss_wait_of(&self, ap: usize) -> u64 {
        self.cross_bss_wait_ns[ap]
    }

    /// The active event-queue backend name, for reports.
    pub fn queue_backend(&self) -> &'static str {
        self.queue.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn model(seed: u64) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneEighth,
            ),
            &mut rng,
        )
    }

    fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
        let csi: Vec<f32> = channel
            .sample(&mut rng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = model.compress_quantized(&csi, bits).unwrap();
        splitbeam::wire::encode_feedback(&payload).unwrap()
    }

    #[test]
    fn co_channel_aps_charge_each_other_airtime() {
        let m = model(3);
        // Two APs, ONE channel: both BSSs contend for the same air.
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 1,
            rate_mbps: Some(24.0),
            jitter_ns: 0,
            policy: None,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(0, 0, key, 4).unwrap();
        fleet.register_station(1, 1, key, 4).unwrap();
        fleet.offer_frame(0, station_frame(&m, 10, 4)).unwrap();
        fleet.offer_frame(1, station_frame(&m, 11, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.served, 2);
        // Both frames were ready at t=0; station 0 drains first, so AP 1's
        // frame waited out a foreign BSS's airtime.
        assert_eq!(fleet.cross_bss_wait_of(0), 0);
        assert!(fleet.cross_bss_wait_of(1) > 0);
        let stats = fleet.stats();
        assert_eq!(stats.cross_bss_wait_ns, fleet.cross_bss_wait_of(1));
        assert!(stats.air_ns > 0);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn separate_channels_do_not_contend() {
        let m = model(3);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 2,
            rate_mbps: Some(24.0),
            jitter_ns: 0,
            policy: None,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(0, 0, key, 4).unwrap();
        fleet.register_station(1, 1, key, 4).unwrap();
        fleet.offer_frame(0, station_frame(&m, 10, 4)).unwrap();
        fleet.offer_frame(1, station_frame(&m, 11, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.served, 2);
        assert_eq!(fleet.stats().cross_bss_wait_ns, 0);
    }

    #[test]
    fn handoff_rebinds_without_cold_reregister_and_settles() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 2,
            jitter_ns: 0,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        fleet.register_station(7, 0, key, 4).unwrap();
        fleet.offer_frame(7, station_frame(&m, 20, 4)).unwrap();
        fleet.close_round().unwrap();
        let before = fleet.feedback_of(7).unwrap().to_vec();

        fleet.handoff(7, 1).unwrap();
        assert_eq!(fleet.home_ap(7), Some(1));
        // The warm session (and its reconstructed feedback) traveled.
        assert_eq!(fleet.feedback_of(7).unwrap(), before.as_slice());
        assert_eq!(fleet.stats().handoffs, 1);
        assert_eq!(fleet.stats().handoffs_settled, 0);

        // Handoff to the current home is a no-op.
        fleet.handoff(7, 1).unwrap();
        assert_eq!(fleet.stats().handoffs, 1);

        fleet.offer_frame(7, station_frame(&m, 21, 4)).unwrap();
        let summary = fleet.close_round().unwrap();
        assert_eq!(summary.handoffs_settled, 1);
        let stats = fleet.stats();
        assert_eq!(stats.handoffs_settled, 1);
        // Settled at the end of the round that first served it post-handoff.
        assert!(stats.mean_handoff_latency_ns > 0.0);
    }

    #[test]
    fn unknown_station_offers_and_handoffs_are_rejected() {
        let m = model(5);
        let mut fleet = Fleet::new(FleetConfig::default());
        let _key = fleet.register_model(&m);
        assert_eq!(
            fleet.offer_frame(9, vec![0u8; 4]),
            Err(ServeError::UnknownStation(9))
        );
        assert_eq!(fleet.handoff(9, 1), Err(ServeError::UnknownStation(9)));
    }

    #[test]
    fn same_seed_fleets_are_bit_identical() {
        let m = model(11);
        let run = || {
            let mut fleet = Fleet::new(FleetConfig {
                aps: 3,
                channels: 2,
                jitter_ns: 50_000,
                ..FleetConfig::default()
            });
            let key = fleet.register_model(&m);
            for id in 0..9u64 {
                fleet
                    .register_station(id, (id % 3) as usize, key, 4)
                    .unwrap();
            }
            let mut summaries = Vec::new();
            for round in 0..3u64 {
                for id in 0..9u64 {
                    fleet
                        .offer_frame(id, station_frame(&m, 100 + id * 7 + round, 4))
                        .unwrap();
                }
                if round == 1 {
                    fleet.handoff(4, 0).unwrap();
                }
                summaries.push(fleet.close_round().unwrap());
            }
            let feedback: Vec<Vec<f32>> = (0..9u64)
                .map(|id| fleet.feedback_of(id).unwrap().to_vec())
                .collect();
            (summaries, feedback, fleet.stats())
        };
        let (s1, f1, st1) = run();
        let (s2, f2, st2) = run();
        assert_eq!(s1, s2);
        assert_eq!(f1, f2);
        assert_eq!(st1, st2);
    }
}
