//! Pieces shared by the three workloads: model training, the station-side
//! CSI pool, the MU-MIMO link check, the closed-loop measurement window and
//! the report every workload returns.

use crate::stats::{self, Series, Summary};
use mimo_math::CMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::training::{train_model, TrainingData, TrainingOptions};
use splitbeam::wire;
use splitbeam_datasets::catalog::dataset_for;
use splitbeam_datasets::generator::{generate_dataset, GeneratorOptions};
use splitbeam_serve::StationId;
use std::time::{Duration, Instant};
use wifi_phy::channel::{ChannelModel, ChannelSnapshot, EnvironmentProfile};
use wifi_phy::link::{simulate_mu_mimo_ber, LinkConfig, LinkReport};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};
use wifi_phy::precoding::BeamformingFeedback;

/// Quantizer width of every station's bottleneck (the paper's 4-bit point).
pub const BITS: u8 = 4;
/// SNR of the MU-MIMO link check, in dB.
pub const LINK_SNR_DB: f64 = 25.0;

/// A workload: built from its seed in set-up, then run for the window.
pub trait Workload: Sized {
    /// Builds inputs and servers, logging the host time of each part of
    /// set-up into `parts`.
    fn build(seed: u64, parts: &mut Vec<(&'static str, f64)>) -> Self;

    /// Runs the closed loop for the window and checks the outputs.
    fn run(self, args: &RunArgs) -> Report;

    /// Station-side samples taken in set-up, if the workload times the
    /// station side there; `main` makes each set-up's samples one block.
    fn setup_station_us(&mut self) -> Option<&mut Series> {
        None
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Reports the workload attempted in its timed rounds.
    pub attempted: u64,
    /// Attempted reports the program failed to handle: an error from a
    /// serving call that the workload's medium does not explain.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Context printed beside the metrics (sample counts, parts of set-up).
    pub notes: Vec<String>,
    pub digest: u64,
    /// Reports per second of the untraced and the traced rounds.
    pub untraced_rate: f64,
    pub traced_rate: f64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn set_rates(&mut self, window: &Window) {
        self.untraced_rate = window.untraced_rate();
        self.traced_rate = window.traced_rate();
        self.note(format!(
            "reports_per_s: {:.1} over the fastest repetition of each round of the cycle; \
             {:.1} over every untraced round",
            self.untraced_rate,
            window.whole_rate()
        ));
    }

    /// Records a host-time series as `<stem>_p1` (see [`stats::LOW_PCT`]);
    /// its median and tail go to the notes.
    pub fn host_timing(&mut self, stem: &str, series: &Series, unit: &'static str) {
        let s: Summary = series.summary();
        self.e2e(&format!("{stem}_p{}", stats::LOW_PCT), s.low, unit);
        self.timing_note(stem, &s, unit);
    }

    /// Records a host-time series as `<stem>_p1` and `<stem>_tail`.
    pub fn host_timing_with_tail(&mut self, stem: &str, series: &Series, unit: &'static str) {
        let s: Summary = series.summary();
        self.e2e(&format!("{stem}_p{}", stats::LOW_PCT), s.low, unit);
        self.e2e(&format!("{stem}_tail"), s.tail, unit);
        self.timing_note(stem, &s, unit);
    }

    /// Records a virtual-time series, which repeats exactly for a seed, as
    /// `<stem>_p50` and `<stem>_tail`.
    pub fn virtual_timing(&mut self, stem: &str, series: &Series, unit: &'static str) {
        let s: Summary = series.summary();
        self.e2e(&format!("{stem}_p50"), s.p50, unit);
        self.e2e(&format!("{stem}_tail"), s.tail, unit);
        self.timing_note(stem, &s, unit);
    }

    fn timing_note(&mut self, stem: &str, s: &Summary, unit: &str) {
        self.note(format!(
            "{stem}: p{} {:.4} {unit}, p50 {:.4} {unit}, tail {:.4} {unit} (p{} {}), {} samples",
            stats::LOW_PCT,
            s.low,
            s.p50,
            s.tail,
            s.tail_pct,
            s.tail_of,
            s.samples
        ));
    }
}

/// The paper's SplitBeam configuration for an `n x n` link: K = 1/8.
pub fn splitbeam_config(n: usize, bandwidth: Bandwidth) -> SplitBeamConfig {
    SplitBeamConfig::new(
        MimoConfig::symmetric(n, bandwidth),
        CompressionLevel::OneEighth,
    )
}

/// Seed of every model's training data and initialization.
///
/// Fixed, not the run's seed: the GEMM kernels skip zero activations, so
/// how fast a head or tail runs depends on the trained weights, and models
/// trained per seed made the station-side time of `fleet_scale` differ by a
/// quarter from one seed to the next on a quiet host. The run's seed draws
/// every channel the models are evaluated and timed on, none of which
/// they were trained on.
pub const TRAIN_SEED: u64 = 0x5b17_bea3;

/// Trains the SplitBeam model of `config` for `epochs` on E1 data
/// generated from `seed`: `traces` independent captures of `samples`
/// snapshots each. A capture is one temporally correlated channel process,
/// so several short ones teach the model more channels than one long one.
pub fn train(
    config: &SplitBeamConfig,
    seed: u64,
    traces: usize,
    samples: usize,
    epochs: usize,
) -> SplitBeamModel {
    let spec = dataset_for(config.mimo.nt, config.mimo.bandwidth, "E1")
        .expect("the catalog holds every E1 configuration the workloads use");
    let mut train = TrainingData::new(config.clone());
    let mut val = TrainingData::new(config.clone());
    for trace in 0..traces as u64 {
        let options = GeneratorOptions::quick(samples, seed.wrapping_mul(1000).wrapping_add(trace));
        let dataset =
            generate_dataset(&spec, &options).expect("a positive sample count always generates");
        let (t, v, _) = dataset.split_train_val_test();
        t.iter().for_each(|snap| train.push_snapshot(snap));
        v.iter().for_each(|snap| val.push_snapshot(snap));
    }
    let options = TrainingOptions {
        epochs,
        ..TrainingOptions::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7a11);
    let (model, _) = train_model(config, train.examples(), val.examples(), &options, &mut rng);
    model
}

/// One station's sounded channel: what its head consumes and the true
/// channel the link check propagates through.
#[derive(Debug, Clone)]
pub struct Csi {
    pub real: Vec<f32>,
    pub matrices: Vec<CMatrix>,
}

/// `count` independent E1 channel draws for single stations of `config`.
pub fn csi_pool(config: &SplitBeamConfig, count: usize, rng: &mut ChaCha8Rng) -> Vec<Csi> {
    let m = &config.mimo;
    let channel =
        ChannelModel::with_rx_antennas(EnvironmentProfile::e1(), m.bandwidth, m.nt, m.nr, 1, m.nss);
    (0..count)
        .map(|_| {
            let snap = channel.sample(rng);
            Csi {
                real: snap
                    .csi_real_vector(0)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect(),
                matrices: snap.csi(0).to_vec(),
            }
        })
        .collect()
}

/// Station side of one report: head, quantize, wire-encode.
pub fn station_frame(model: &SplitBeamModel, csi: &Csi) -> Vec<u8> {
    let payload = model
        .compress_quantized(&csi.real, BITS)
        .expect("the model accepts its own configuration's CSI");
    wire::encode_feedback(&payload).expect("a fresh payload always encodes")
}

/// Station side of one report, timed: the frame and its host time in µs.
pub fn timed_station_frame(model: &SplitBeamModel, csi: &Csi) -> (Vec<u8>, f64) {
    let t = Instant::now();
    let frame = station_frame(model, csi);
    (frame, t.elapsed().as_secs_f64() * 1e6)
}

/// MU-MIMO link check: every group of two or more stations is zero-forced
/// from its feedback and propagated through the stations' true channels.
pub fn link_check(
    groups: &[Vec<StationId>],
    bandwidth: Bandwidth,
    nss: usize,
    feedback: impl Fn(&[StationId]) -> BeamformingFeedback,
    channel: impl Fn(StationId) -> Vec<CMatrix>,
    seed: u64,
) -> LinkReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11c4);
    let cfg = LinkConfig {
        snr_db: LINK_SNR_DB,
        ..LinkConfig::default()
    };
    let mut merged = LinkReport::empty();
    for group in groups.iter().filter(|g| g.len() >= 2) {
        let per_user = group.iter().map(|&id| channel(id)).collect();
        let snapshot = ChannelSnapshot::from_matrices(bandwidth, nss, per_user);
        let report = simulate_mu_mimo_ber(&snapshot, &feedback(group), &cfg, &mut rng)
            .expect("group feedback matches the group's channels");
        merged.merge(&report);
    }
    merged
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The closed-loop measurement window. Rounds run back to back until
/// `seconds` of host time have passed (and at least `min_rounds` ran).
///
/// The window is cut into eight blocks of equal host time. Tails are taken
/// per block and reported as the median over blocks, so a burst of
/// interference from outside the process moves one block, not the result.
/// In a traced run the blocks alternate untraced and traced, so the tracing
/// overhead is a ratio measured in one process.
///
/// Every workload feeds a cycle of distinct rounds again and again (the
/// CSI-pool episode, the traffic episode; on `fleet_scale` one round, whose
/// work does not change from round to round). The rate is
/// the reports of one cycle over the sum of each of its rounds' fastest
/// repetition: as with the low end of a timing (see [`stats::LOW_PCT`]),
/// what the program sustains shows in the rounds the shared host left
/// alone, while a rate over a stretch of the run reads how long the host
/// stayed loaded: on `hostile_stream`, the rate of each run's fastest
/// stretches still moved between 33k and 51k reports/s over ten runs of the
/// same code.
pub struct Window {
    seconds: f64,
    trace: bool,
    min_rounds: usize,
    /// Set by the first `next`, so set-up and warm-up stay outside.
    start: Option<Instant>,
    block: usize,
    /// Per mode (untraced, traced) and round of the cycle: its reports and
    /// its fastest host time.
    best: [Vec<Option<(u64, Duration)>>; 2],
    /// Per mode: reports and host time of every round.
    total: [(u64, Duration); 2],
    rounds: usize,
}

/// Blocks per window.
const BLOCKS: usize = 8;

impl Window {
    /// A window over a workload whose rounds repeat every `cycle` rounds.
    pub fn new(args: &RunArgs, min_rounds: usize, cycle: usize) -> Self {
        Self {
            seconds: args.seconds,
            trace: args.trace,
            min_rounds,
            start: None,
            block: 0,
            best: [vec![None; cycle], vec![None; cycle]],
            total: [(0, Duration::ZERO); 2],
            rounds: 0,
        }
    }

    /// Whether another round runs; `Some(traced)` says in which mode.
    pub fn next(&mut self) -> Option<bool> {
        let elapsed = self
            .start
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64();
        if elapsed >= self.seconds && self.rounds >= self.min_rounds {
            return None;
        }
        self.block = ((elapsed / self.seconds * BLOCKS as f64) as usize).min(BLOCKS - 1);
        Some(self.traced())
    }

    /// The block the next recorded round belongs to.
    pub fn block(&self) -> usize {
        self.block
    }

    fn traced(&self) -> bool {
        self.trace && self.block % 2 == 1
    }

    /// Records round `index` of the cycle: `reports` carried in `busy`.
    pub fn record(&mut self, index: usize, busy: Duration, reports: u64) {
        self.rounds += 1;
        let mode = usize::from(self.traced());
        let slot = &mut self.best[mode][index];
        match slot {
            Some((_, fastest)) => *fastest = (*fastest).min(busy),
            None => *slot = Some((reports, busy)),
        }
        self.total[mode].0 += reports;
        self.total[mode].1 += busy;
    }

    /// Reports of the cycle's rounds over their fastest host times.
    fn rate(&self, traced: bool) -> f64 {
        let (reports, busy) = self.best[usize::from(traced)]
            .iter()
            .flatten()
            .fold((0, Duration::ZERO), |(r, b), &(reports, fastest)| {
                (r + reports, b + fastest)
            });
        reports as f64 / busy.as_secs_f64()
    }

    pub fn untraced_rate(&self) -> f64 {
        self.rate(false)
    }

    pub fn traced_rate(&self) -> f64 {
        self.rate(true)
    }

    /// Reports per second over every untraced round, for context.
    fn whole_rate(&self) -> f64 {
        let (reports, busy) = self.total[0];
        reports as f64 / busy.as_secs_f64()
    }
}
