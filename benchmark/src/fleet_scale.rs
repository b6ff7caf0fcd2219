//! `fleet_scale`: many cheap sessions.
//!
//! 50k sessions of 2x2/20 MHz stations over 8 APs on 4 channels, ideal
//! medium, 200 µs readiness jitter. Each round a 1/64 cohort roams to the
//! next AP, every station offers its pre-encoded frame, and the fleet closes
//! the round. Model work per report is tiny: the timer-wheel queue, slab
//! lookups, the per-offer frame copy and per-AP close bookkeeping dominate,
//! over a working set far beyond L2.
//!
//! Stations come in two device classes, each with its own model trained on
//! its own captures, so BER does not hang on a single training run. Between
//! rounds (outside the timed round) the roaming cohort re-encodes its frames
//! at its new AP; those encodes are the workload's station-side samples.

use crate::common::{self, Csi, Report, RunArgs, Window, Workload, BITS};
use crate::stats::{Digest, Series};
use crate::trace::{self, Layer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::model::SplitBeamModel;
use splitbeam_serve::{DeadlinePolicy, Fleet, FleetConfig, FleetRoundSummary, StationId};
use std::collections::BTreeSet;
use std::time::Instant;
use wifi_phy::ofdm::Bandwidth;

const SESSIONS: usize = 50_000;
const APS: usize = 8;
const CHANNELS: usize = 4;
/// Each round the stations with `id % COHORTS == round % COHORTS` roam.
const COHORTS: usize = 64;
/// Precoding groups of AP 0 the link check evaluates, per model.
const LINK_GROUPS: usize = 512;
/// Station device classes; station `id` runs model `id % MODELS`.
const MODELS: usize = 2;

/// Distinct channel draws; station `id` sounds `pool[id % POOL]`.
const POOL: usize = 2048;

pub struct FleetScale {
    models: Vec<SplitBeamModel>,
    pool: Vec<Csi>,
    /// Station `id` offers `frames[id]` every round, so the feedback the
    /// fleet holds at the end does not depend on how many rounds the window
    /// fitted.
    frames: Vec<Vec<u8>>,
    fleet: Fleet,
}

impl Workload for FleetScale {
    fn build(seed: u64, parts: &mut Vec<(&'static str, f64)>) -> Self {
        let config = common::splitbeam_config(2, Bandwidth::Mhz20);
        let t = Instant::now();
        let models: Vec<SplitBeamModel> = (0..MODELS as u64)
            .map(|m| common::train(&config, common::TRAIN_SEED.wrapping_add(m), 4, 50, 10))
            .collect();
        parts.push(("train", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = common::csi_pool(&config, POOL, &mut rng);
        parts.push(("csi", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let frames = (0..SESSIONS)
            .map(|id| common::station_frame(&models[id % MODELS], &pool[id % POOL]))
            .collect();
        parts.push(("encode", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut fleet = Fleet::new(FleetConfig {
            aps: APS,
            channels: CHANNELS,
            rate_mbps: None,
            round_ns: 10_000_000,
            jitter_ns: 200_000,
            seed,
            policy: Some(DeadlinePolicy::eq7d()),
        });
        let keys: Vec<usize> = models.iter().map(|m| fleet.register_model(m)).collect();
        fleet.reserve_events(SESSIONS + 1);
        for id in 0..SESSIONS {
            fleet
                .register_station(id as StationId, id % APS, keys[id % MODELS], BITS)
                .expect("station ids are unique");
        }
        parts.push(("server", t.elapsed().as_secs_f64()));
        Self {
            models,
            pool,
            frames,
            fleet,
        }
    }

    fn run(mut self, args: &RunArgs) -> Report {
        let mut report = Report::default();
        let mut round_ms = Series::default();
        let mut station_us = Series::default();
        let mut summaries: Vec<FleetRoundSummary> = Vec::new();
        // Every round carries the same work (each station offers its frame,
        // one cohort roams), so the input cycle is a single round.
        let mut window = Window::new(args, 1, 1);
        let warmup = 1;
        let mut round = 0usize;
        let mut offered = 0u64;
        let mut offer_bytes = 0u64;
        let mut errors = 0u64;
        let mut virtual_ms = Series::default();
        let mut link = f64::NAN;
        loop {
            let traced = if round < warmup {
                false
            } else {
                match window.next() {
                    Some(t) => t,
                    None => break,
                }
            };
            trace::set_enabled(traced);
            let token = trace::begin(Layer::Round);
            let t0 = Instant::now();
            for id in (round % COHORTS..SESSIONS).step_by(COHORTS) {
                let id = id as StationId;
                let home = self.fleet.home_ap(id).expect("registered");
                trace::span(Layer::FleetHandoff, || {
                    self.fleet.handoff(id, (home + 1) % APS)
                })
                .expect("handoff targets exist");
            }
            let t1 = Instant::now();
            for id in 0..SESSIONS {
                let frame = &self.frames[id];
                // `offer_frame` takes the frame by value, so the copy is
                // part of the cost of offering it.
                let res = trace::span(Layer::FleetOffer, || {
                    self.fleet.offer_frame(id as StationId, frame.clone())
                });
                errors += u64::from(res.is_err());
            }
            let summary = trace::span(Layer::FleetClose, || self.fleet.close_round());
            let t2 = Instant::now();
            trace::end(token);
            let summary = summary.expect("the ideal-medium fleet closes every round");
            // The cohort that roamed re-sounds at its new AP, outside the
            // timed round. Same channel and model, so the same bytes.
            for id in (round % COHORTS..SESSIONS).step_by(COHORTS) {
                let (frame, us) =
                    common::timed_station_frame(&self.models[id % MODELS], &self.pool[id % POOL]);
                self.frames[id] = frame;
                if round >= warmup && !traced {
                    station_us.push(window.block(), us);
                }
            }
            if round >= warmup {
                if !traced {
                    round_ms.push(window.block(), (t2 - t1).as_secs_f64() * 1e3);
                }
                window.record(0, t2 - t0, SESSIONS as u64);
                offered += SESSIONS as u64;
                offer_bytes += (0..SESSIONS)
                    .map(|id| self.frames[id].len() as u64)
                    .sum::<u64>();
                summaries.push(summary);
            }
            if round + 1 == warmup {
                // Stations roam and the jitter stream advances every round,
                // so the stamps and the link check are read after the
                // warm-up round, where the window's length cannot move them.
                virtual_ms = self.stamps_ms();
                link = self.link_ber(args.seed);
            }
            round += 1;
        }
        trace::set_enabled(false);
        let timed_rounds = summaries.len() as u64;
        let stats = self.fleet.stats();
        let served: u64 = summaries.iter().map(|s| s.served as u64).sum();
        let on_time: u64 = summaries.iter().map(|s| s.on_time as u64).sum();
        let batches: u64 = summaries
            .iter()
            .flat_map(|s| s.per_ap.iter().map(|a| a.batches as u64))
            .sum();
        let settled: u64 = summaries.iter().map(|s| s.handoffs_settled as u64).sum();

        report.check("no offer or close returned an error", errors == 0);
        report.check(
            "served equals offered under the ideal medium",
            served == offered && summaries.iter().all(|s| s.rejected == 0 && s.expired == 0),
        );
        report.check(
            "every handoff settled by the end",
            stats.handoffs_settled == stats.handoffs && stats.handoffs > 0,
        );

        let mut digest = Digest::default();
        for id in 0..SESSIONS as StationId {
            digest.f32s(self.fleet.feedback_of(id).expect("served"));
        }
        let last = summaries.last().expect("at least one timed round");
        for v in [
            last.served,
            last.on_time,
            last.late,
            last.expired,
            last.rejected,
        ] {
            digest.u64(v as u64);
        }
        report.digest = digest.finish();

        report.attempted = offered;
        report.failed = errors + (offered - served.min(offered));
        report.e2e("reports_per_s", window.untraced_rate(), "1/s");
        report.host_timing_with_tail("round_ms", &round_ms, "ms");
        report.host_timing("station_report_us", &station_us, "us");
        report.e2e(
            "deadline_hit_rate",
            on_time as f64 / offered as f64,
            "ratio",
        );
        report.virtual_timing("virtual_delay_ms", &virtual_ms, "ms");
        report.e2e("served_share", served as f64 / offered as f64, "ratio");
        report.e2e("ber", link, "ratio");
        report.e2e(
            "wire_bytes_per_report",
            offer_bytes as f64 / offered as f64,
            "B",
        );
        report.note(format!(
            "rounds {timed_rounds} (+{warmup} warm-up), reports attempted {offered}, served {served}, \
             failed {}; handoffs {} ({} settled)",
            offered - served.min(offered),
            stats.handoffs,
            stats.handoffs_settled
        ));
        report.note("station_report_us: the roaming cohort's re-encodes between rounds");
        report.note("virtual_delay_ms: stamps of the warm-up round, one per session");

        let tail_bytes = self.models[0].tail().macs() as f64 * 4.0;
        let rounds = timed_rounds as f64;
        report.layer(
            "ap.reports_per_batch",
            served as f64 / batches as f64,
            "count",
        );
        report.layer(
            "tail.weight_bytes_per_report",
            batches as f64 * tail_bytes / served as f64,
            "B",
        );
        report.layer(
            "medium.air_ms_per_round",
            stats.air_ns as f64 / 1e6 / stats.rounds as f64,
            "ms",
        );
        report.layer(
            "medium.wait_ms_per_round",
            stats.wait_ns as f64 / 1e6 / stats.rounds as f64,
            "ms",
        );
        report.layer(
            "fleet.handoffs_settled_per_round",
            settled as f64 / rounds,
            "count",
        );
        report.layer("fleet.served_per_round", served as f64 / rounds, "count");
        report.set_rates(&window);
        report
    }
}

impl FleetScale {
    /// Every session's BM reporting delay in its latest stamp, in ms.
    fn stamps_ms(&self) -> Series {
        Series::of((0..SESSIONS as StationId).map(|id| {
            let ap = self.fleet.ap(self.fleet.home_ap(id).expect("registered"));
            let session = ap.session(id).expect("homed at its AP");
            let stamp = session.last_stamp().expect("served in the round");
            stamp.total_ns() as f64 / 1e6
        }))
    }

    /// BER of AP 0's first precoding groups of each model; a group whose
    /// stations sound the same pool entry (identical channels) is skipped.
    fn link_ber(&self, seed: u64) -> f64 {
        let ap = self.fleet.ap(0);
        let model_of = |g: &[StationId]| ap.session(g[0]).expect("grouped").model_key();
        let groups: Vec<Vec<StationId>> = ap
            .mu_mimo_groups(0)
            .into_iter()
            .filter(|g| {
                let distinct: BTreeSet<usize> = g.iter().map(|&id| id as usize % POOL).collect();
                distinct.len() == g.len()
            })
            .fold(vec![Vec::new(); MODELS], |mut per_model, g| {
                let slot: &mut Vec<Vec<StationId>> = &mut per_model[model_of(&g)];
                if slot.len() < LINK_GROUPS {
                    slot.push(g);
                }
                per_model
            })
            .concat();
        common::link_check(
            &groups,
            Bandwidth::Mhz20,
            1,
            |g| ap.group_feedback(g).expect("served"),
            |id| self.pool[id as usize % POOL].matrices.clone(),
            seed,
        )
        .ber()
    }
}
