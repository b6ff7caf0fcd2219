//! `paper_round`: the paper's headline point.
//!
//! 24 stations at 3x3/80 MHz, K = 1/8, 4-bit bottleneck, one `ApServer`
//! with the f32 tail and barrier rounds. Per round every station runs its
//! head and wire-encodes a CSI snapshot; the AP ingests every frame, closes
//! the round, groups the fresh stations and builds each group's
//! zero-forcing precoder. No event queue, medium or faults: the station head
//! and the ~3 MB f32 tail GEMM carry the load.

use crate::common::{self, Csi, Report, RunArgs, Window, Workload, BITS};
use crate::stats::{Digest, Series};
use crate::trace::{self, Layer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::fused::TailWeights;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam_hwsim::{AcceleratorModel, SeededJitter, SharedMedium};
use splitbeam_serve::{ApServer, DeadlinePolicy, FrameClass, RoundSummary, StationId};
use std::hint::black_box;
use std::time::Instant;
use wifi_phy::link::LinkReport;
use wifi_phy::ofdm::Bandwidth;
use wifi_phy::precoding::ZfPrecoder;
use wifi_phy::sounding::SoundingConfig;

const STATIONS: usize = 24;
/// Rounds before the CSI pool repeats. Every episode of this many rounds
/// feeds identical inputs, so each episode must end in identical feedback.
const EPISODE: usize = 8;

pub struct PaperRound {
    model: SplitBeamModel,
    /// Indexed `round_in_episode * STATIONS + station`.
    pool: Vec<Csi>,
    /// The server as set-up left it: the reference the final round replays
    /// into.
    fresh: ApServer,
    server: ApServer,
    /// Per-report virtual BM reporting delay of one barrier round, in ns.
    virtual_ns: Vec<u64>,
    /// Medium airtime and queueing of one barrier round, in virtual ns.
    air_ns: u64,
    wait_ns: u64,
    head_ms: f64,
    tail_ms: f64,
    rate_mbps: f64,
}

impl Workload for PaperRound {
    fn build(seed: u64, parts: &mut Vec<(&'static str, f64)>) -> Self {
        let config = common::splitbeam_config(3, Bandwidth::Mhz80);
        let t = Instant::now();
        // 80 snapshots, 3 epochs: BER below the untrained model's, at about
        // a second of set-up.
        let model = common::train(&config, common::TRAIN_SEED, 4, 20, 3);
        parts.push(("train", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = common::csi_pool(&config, STATIONS * EPISODE, &mut rng);
        parts.push(("csi", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut server = ApServer::new();
        server.set_tail_weights(TailWeights::F32);
        let key = server.register_model(model.clone());
        for id in 0..STATIONS as StationId {
            server
                .register_station(id, key, BITS)
                .expect("fresh server accepts the stations");
        }
        parts.push(("server", t.elapsed().as_secs_f64()));

        // Eq. 7d stamps of one barrier round: every station sounds at once,
        // computes its head on the modelled accelerator, is ready after a
        // seeded jitter of up to 200 µs (as in the other workloads), and the
        // frames serialize on the SoundingConfig-rate medium in ready order.
        let sounding = SoundingConfig::new(Bandwidth::Mhz80, 3);
        let latency = AcceleratorModel::zynq_200mhz(3, 3).split_latency_from_config(&config);
        let head_ns = splitbeam_hwsim::event::s_to_ns(latency.head_s);
        let tail_ns = splitbeam_hwsim::event::s_to_ns(latency.tail_s);
        let frame_bits = 8 * wire::encoded_len(config.bottleneck_dim(), BITS);
        let mut jitter = SeededJitter::new(200_000, seed);
        let mut ready_ns: Vec<u64> = (0..STATIONS).map(|_| head_ns + jitter.draw()).collect();
        ready_ns.sort_unstable();
        let mut medium = SharedMedium::new(sounding.feedback_rate_mbps);
        let virtual_ns = ready_ns
            .iter()
            .map(|&ready| {
                let grant = medium.transmit(ready, frame_bits);
                ready + grant.wait_ns + grant.air_ns + tail_ns
            })
            .collect();
        let air_ns = medium.total_air_ns();
        let wait_ns = medium.total_wait_ns();

        Self {
            model,
            pool,
            fresh: server.clone(),
            server,
            virtual_ns,
            air_ns,
            wait_ns,
            head_ms: latency.head_s * 1e3,
            tail_ms: latency.tail_s * 1e3,
            rate_mbps: sounding.feedback_rate_mbps,
        }
    }

    fn run(mut self, args: &RunArgs) -> Report {
        let mut report = Report::default();
        let mut frames: Vec<Vec<u8>> = vec![Vec::new(); STATIONS];
        let mut station_us = Series::default();
        let mut round_ms = Series::default();
        let mut link = LinkReport::empty();
        let mut summaries: Vec<RoundSummary> = Vec::new();
        let mut episode_digests = Vec::new();

        // Warm-up: one untimed episode fills caches and grows every buffer.
        let mut window = Window::new(args, EPISODE, EPISODE);
        let warmup = EPISODE;
        let mut round = 0usize;
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
            let slot = (round % EPISODE) * STATIONS;
            let token = trace::begin(Layer::Round);
            let t0 = Instant::now();
            for (s, frame) in frames.iter_mut().enumerate() {
                let ts = Instant::now();
                let csi = &self.pool[slot + s];
                let payload = trace::span(Layer::StationHead, || {
                    self.model.compress_quantized(&csi.real, BITS)
                })
                .expect("the model accepts its own configuration's CSI");
                *frame = trace::span(Layer::StationEncode, || wire::encode_feedback(&payload))
                    .expect("a fresh payload always encodes");
                if !traced {
                    station_us.push(window.block(), ts.elapsed().as_secs_f64() * 1e6);
                }
            }
            let t1 = Instant::now();
            for (id, frame) in frames.iter().enumerate() {
                trace::span(Layer::ApIngest, || {
                    self.server.ingest_wire(id as StationId, frame)
                })
                .expect("frames of registered stations ingest");
            }
            let summary = trace::span(Layer::ApClose, || self.server.process_round())
                .expect("the f32 tail reconstructs every payload");
            let groups = trace::span(Layer::ApGroup, || self.server.mu_mimo_groups(0));
            for group in &groups {
                let feedback = trace::span(Layer::ApGroup, || self.server.group_feedback(group))
                    .expect("every grouped station holds feedback");
                let precoder =
                    trace::span(Layer::PhyPrecoder, || ZfPrecoder::from_feedback(&feedback));
                black_box(precoder.expect("served feedback precodes"));
            }
            let t2 = Instant::now();
            trace::end(token);

            if round >= warmup {
                if !traced {
                    round_ms.push(window.block(), (t2 - t1).as_secs_f64() * 1e3);
                }
                window.record(round % EPISODE, t2 - t0, STATIONS as u64);
                summaries.push(summary);
            } else {
                // The link check runs over every warm-up round's groups:
                // the feedback the AP held after each round, through the
                // channels the stations sounded.
                link.merge(&common::link_check(
                    &groups,
                    Bandwidth::Mhz80,
                    1,
                    |g| self.server.group_feedback(g).expect("served"),
                    |id| self.pool[slot + id as usize].matrices.clone(),
                    args.seed ^ round as u64,
                ));
            }
            if round % EPISODE == EPISODE - 1 {
                episode_digests.push(Self::digest(&self.server, &summary));
            }
            round += 1;
        }
        trace::set_enabled(false);
        let timed_rounds = summaries.len();

        // Correctness: every report served in one batch, each episode's
        // outcome identical, and the final round replayed station by station
        // into the set-up server reconstructs bit-identical feedback.
        let served: usize = summaries.iter().map(|s| s.served).sum();
        let batches: usize = summaries.iter().map(|s| s.batches).sum();
        let attempted = (STATIONS * timed_rounds) as u64;
        report.check(
            "every report served on time in one batch per round",
            summaries
                .iter()
                .all(|s| s.served == STATIONS && s.on_time == STATIONS && s.batches == 1),
        );
        report.check(
            "every episode ends in identical feedback",
            episode_digests.windows(2).all(|w| w[0] == w[1]),
        );
        let mut replay = self.fresh.clone();
        for (id, frame) in frames.iter().enumerate() {
            replay
                .ingest_wire(id as StationId, frame)
                .expect("replayed frames ingest");
        }
        replay
            .process_round_serial()
            .expect("the serial reference reconstructs");
        let bit_identical = (0..STATIONS as StationId).all(|id| {
            let a = self.server.feedback_of(id).expect("served");
            let b = replay.feedback_of(id).expect("served");
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
        report.check(
            "final round replayed through process_round_serial is bit-identical",
            bit_identical,
        );

        let policy = DeadlinePolicy::eq7d();
        let on_time = self
            .virtual_ns
            .iter()
            .filter(|&&ns| policy.classify(ns) == FrameClass::OnTime)
            .count();
        let virtual_ms = Series::of(
            (0..timed_rounds).flat_map(|_| self.virtual_ns.iter().map(|&ns| ns as f64 / 1e6)),
        );

        report.attempted = attempted;
        report.failed = attempted - served as u64;
        report.digest = episode_digests[0];
        report.e2e("reports_per_s", window.untraced_rate(), "1/s");
        report.host_timing_with_tail("round_ms", &round_ms, "ms");
        report.host_timing("station_report_us", &station_us, "us");
        report.e2e(
            "deadline_hit_rate",
            on_time as f64 / STATIONS as f64,
            "ratio",
        );
        report.virtual_timing("virtual_delay_ms", &virtual_ms, "ms");
        report.e2e("served_share", served as f64 / attempted as f64, "ratio");
        report.e2e("ber", link.ber(), "ratio");
        report.e2e(
            "wire_bytes_per_report",
            frames.iter().map(Vec::len).sum::<usize>() as f64 / STATIONS as f64,
            "B",
        );
        report.note(format!(
            "rounds {timed_rounds} (+{warmup} warm-up), reports attempted {attempted}, served {served}, failed {}",
            attempted - served as u64
        ));
        report.note(format!(
            "virtual delay: Eq. 7d stamps of a barrier round (head {:.3} ms and tail {:.3} ms on the \
             modelled accelerator, up to 0.2 ms seeded jitter, frames serialized on the {:.0} Mbit/s \
             medium)",
            self.head_ms, self.tail_ms, self.rate_mbps
        ));
        report.note(format!(
            "link check over the {warmup} warm-up rounds: {} payload bits",
            link.per_user_bits.iter().sum::<usize>()
        ));

        let tail_bytes = self.model.tail().macs() as f64 * 4.0;
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
        report.layer("medium.air_ms_per_round", self.air_ns as f64 / 1e6, "ms");
        report.layer("medium.wait_ms_per_round", self.wait_ns as f64 / 1e6, "ms");
        report.set_rates(&window);
        report
    }
}

impl PaperRound {
    /// Stations' feedback plus the round summary (minus its index), hashed.
    fn digest(server: &ApServer, summary: &RoundSummary) -> u64 {
        let mut d = Digest::default();
        for id in 0..STATIONS as StationId {
            d.f32s(server.feedback_of(id).expect("every station was served"));
        }
        let s = RoundSummary {
            round: 0,
            ..*summary
        };
        d.bytes(format!("{s:?}").as_bytes());
        d.finish()
    }
}
