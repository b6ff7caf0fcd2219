//! Streaming micro-batch serving benchmark: deadline-hit rate and virtual
//! e2e delay, watermark streaming vs. the legacy round barrier, with one
//! artificially slow shard.
//!
//! Drives `EventDriver<ApServer>` (4 shards) over growing fleets and
//! writes `BENCH_PR7.json` with:
//!
//! * per-station-count rows: overall / healthy-shard / stalled-shard
//!   deadline-hit rates for all four runs (barrier and streaming, with and
//!   without a 15 ms close stall on shard 0), p50/p99 virtual e2e delay and
//!   micro-close counts,
//! * the **streaming-parity verdict**: streaming with zero jitter, an ideal
//!   medium and one watermark per sounding interval must be bit-exact with
//!   the batched, serial and sharded barrier drivers,
//! * the **stall-isolation verdict**: under streaming, a stalled shard must
//!   leave the healthy shards' deadline-hit rate within 1% (absolute) of the
//!   unstalled streaming run — while the barrier drags every shard down,
//! * the **determinism verdict**: two runs with the same seed must produce
//!   identical summaries and per-shard stats.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin streaming_report       # writes BENCH_PR7.json
//! SPLITBEAM_STATIONS=8 SPLITBEAM_ROUNDS=4 \
//!     cargo run --release -p bench --bin streaming_report
//! ```
//!
//! The binary exits non-zero when any verdict is false — CI runs it as a
//! smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_bench::report::{kernel_dispatch_value, JsonReport, JsonValue};
use splitbeam_bench::timing::num_threads;
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_hwsim::event::ns_to_s;
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, ChurnConfig, RoundServing, ServeMode, SimConfig,
    SimTraffic,
};
use splitbeam_serve::event::{build_event_driver, EventConfig};
use splitbeam_serve::{ApServer, EventDriver, RoundSummary, ShardRoundStats, StationId};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};
use wifi_phy::sounding::SoundingConfig;

/// The PR index this report seeds.
const PR_INDEX: u32 = 7;

/// Close stall injected on shard 0 in the "stalled" runs, in virtual ns.
/// Comfortably past the Eq. 7d budget (10 ms), so a barrier close that waits
/// for the slow shard pushes *every* shard's reports past the deadline.
const STALL_NS: u64 = 15_000_000;

/// Watermark cadence for the streaming sweep runs: 2.5 ms, i.e. four
/// micro-close opportunities per 10 ms sounding interval.
const WATERMARK_NS: u64 = 2_500_000;

/// Number of shards in every sweep run; shard 0 is the stalled one.
const SHARDS: usize = 4;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Accumulated outcome of replaying one traffic trace through a sharded
/// event driver.
struct RunResult {
    summaries: Vec<RoundSummary>,
    /// Per-shard stats summed across all rounds.
    shard_totals: Vec<ShardRoundStats>,
    /// Virtual e2e delays of every delivered report, seconds.
    delays_s: Vec<f64>,
}

impl RunResult {
    /// `on_time / (served + expired)` summed over the given shard indices.
    fn hit_rate(&self, shards: impl Iterator<Item = usize>) -> f64 {
        let (mut on_time, mut total) = (0usize, 0usize);
        for s in shards {
            let st = &self.shard_totals[s];
            on_time += st.on_time;
            total += st.served + st.expired;
        }
        if total == 0 {
            1.0
        } else {
            on_time as f64 / total as f64
        }
    }

    fn micro_closes(&self) -> usize {
        self.shard_totals.iter().map(|s| s.micro_closes).sum()
    }
}

fn add_stats(acc: &mut ShardRoundStats, s: &ShardRoundStats) {
    acc.served += s.served;
    acc.on_time += s.on_time;
    acc.late += s.late;
    acc.expired += s.expired;
    acc.batches += s.batches;
    acc.micro_closes += s.micro_closes;
    acc.had_traffic |= s.had_traffic;
}

/// Replays `traffic` round by round; whether the close streams or uses the
/// barrier is decided by the driver's `EventConfig::streaming` flag.
fn run_sharded(driver: &mut EventDriver<ApServer>, traffic: &SimTraffic) -> RunResult {
    let mut summaries = Vec::with_capacity(traffic.rounds.len());
    let mut shard_totals = vec![ShardRoundStats::default(); driver.inner().num_shards()];
    let mut delays_s = Vec::new();
    for round in &traffic.rounds {
        for (id, frame) in &round.frames {
            let Some(frame) = frame else { continue };
            driver
                .ingest_wire(*id, frame)
                .expect("traffic stations are registered");
        }
        let summary = driver
            .close_round(ServeMode::Batched)
            .expect("event round close");
        delays_s.extend(
            driver
                .last_round_stamps()
                .iter()
                .map(|(_, stamp)| ns_to_s(stamp.total_ns())),
        );
        for (acc, stats) in shard_totals
            .iter_mut()
            .zip(driver.inner().shard_round_stats())
        {
            add_stats(acc, stats);
        }
        summaries.push(summary);
    }
    RunResult {
        summaries,
        shard_totals,
        delays_s,
    }
}

fn build_run(
    model: &SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    cfg: EventConfig,
    stall_ns: u64,
) -> EventDriver<ApServer> {
    let mut driver = build_event_driver(model.clone(), stations, bits_per_value, SHARDS, cfg, None);
    if stall_ns > 0 {
        driver.inner_mut().set_shard_stall_ns(0, stall_ns);
    }
    driver
}

fn main() {
    let max_stations = env_usize("SPLITBEAM_STATIONS", 16);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let bits_per_value = 4u8;

    // The paper's headline MU-MIMO configuration (same as the other serve
    // reports): 3x3 at 80 MHz, 545-wide bottleneck at K = 1/8.
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz80);
    let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
    let bottleneck_dim = config.bottleneck_dim();
    let sounding = SoundingConfig::new(Bandwidth::Mhz80, max_stations);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);

    // Pin the streaming knobs explicitly so ambient SPLITBEAM_STREAMING /
    // SPLITBEAM_WATERMARK_NS (set by the CI env matrix) cannot skew the
    // barrier-vs-streaming comparison.
    let mut barrier_cfg = EventConfig::realistic(sounding.feedback_rate_mbps, 200_000, 42);
    barrier_cfg.streaming = false;
    barrier_cfg.watermark_ns = 0;
    let mut streaming_cfg = barrier_cfg;
    streaming_cfg.streaming = true;
    streaming_cfg.watermark_ns = WATERMARK_NS;

    let station_sweep: Vec<usize> = [2usize, 4, 8, 16]
        .into_iter()
        .filter(|&n| n <= max_stations)
        .collect();

    println!(
        "SplitBeam streaming report (PR {PR_INDEX}) — up to {max_stations} stations x {rounds} \
         rounds, {SHARDS} shards (shard 0 stalled {:.1} ms), watermark {:.1} ms, \
         {bottleneck_dim}-wide bottleneck at {bits_per_value} bits/value, medium {} Mbit/s\n",
        STALL_NS as f64 / 1e6,
        WATERMARK_NS as f64 / 1e6,
        sounding.feedback_rate_mbps
    );

    let mut sweep_rows = Vec::new();
    let mut deterministic = true;
    let mut stall_isolation = true;
    let mut barrier_degrades = true;
    let healthy = || 1..SHARDS;
    for &stations in &station_sweep {
        let sim = SimConfig {
            stations,
            rounds,
            bits_per_value,
            drop_every: 0,
            snr_db: 25.0,
            churn: ChurnConfig::none(),
        };
        let traffic = generate_traffic(&sim, &model, &mut rng);

        let mut runs = [
            ("barrier", barrier_cfg, 0u64),
            ("barrier+stall", barrier_cfg, STALL_NS),
            ("streaming", streaming_cfg, 0),
            ("streaming+stall", streaming_cfg, STALL_NS),
        ]
        .map(|(name, cfg, stall)| {
            let mut driver = build_run(&model, stations, bits_per_value, cfg, stall);
            (name, run_sharded(&mut driver, &traffic))
        });

        // Same-seed rerun of the headline (stalled streaming) configuration
        // must reproduce summaries and per-shard stats exactly.
        {
            let mut rerun = build_run(&model, stations, bits_per_value, streaming_cfg, STALL_NS);
            let again = run_sharded(&mut rerun, &traffic);
            deterministic &= again.summaries == runs[3].1.summaries
                && again.shard_totals == runs[3].1.shard_totals;
        }

        let healthy_hits: Vec<f64> = runs.iter().map(|(_, r)| r.hit_rate(healthy())).collect();
        // Streaming must hold the healthy shards within 1% (absolute) of the
        // unstalled streaming run; the barrier is expected to drag them down
        // by at least five points.
        stall_isolation &= (healthy_hits[3] - healthy_hits[2]).abs() <= 0.01;
        barrier_degrades &= healthy_hits[0] - healthy_hits[1] >= 0.05;

        let mut run_rows = Vec::new();
        for (i, (name, run)) in runs.iter_mut().enumerate() {
            run.delays_s.sort_by(f64::total_cmp);
            let p50_ms = percentile(&run.delays_s, 0.50) * 1e3;
            let p99_ms = percentile(&run.delays_s, 0.99) * 1e3;
            let overall = run.hit_rate(0..SHARDS);
            let stalled_shard = run.hit_rate(std::iter::once(0));
            println!(
                "{stations:>3} stations  {name:<16} overall {:>6.1}%   healthy {:>6.1}%   \
                 shard0 {:>6.1}%   p50 {p50_ms:>7.3} ms   p99 {p99_ms:>7.3} ms   \
                 micro-closes {}",
                overall * 100.0,
                healthy_hits[i] * 100.0,
                stalled_shard * 100.0,
                run.micro_closes()
            );
            run_rows.push(JsonValue::Object(vec![
                ("run".into(), (*name).into()),
                ("overall_hit_rate".into(), overall.into()),
                ("healthy_hit_rate".into(), healthy_hits[i].into()),
                ("stalled_shard_hit_rate".into(), stalled_shard.into()),
                ("p50_e2e_ms".into(), p50_ms.into()),
                ("p99_e2e_ms".into(), p99_ms.into()),
                ("micro_closes".into(), run.micro_closes().into()),
            ]));
        }
        println!();
        sweep_rows.push(JsonValue::Object(vec![
            ("stations".into(), stations.into()),
            ("frames_transmitted".into(), traffic.total_frames().into()),
            ("runs".into(), JsonValue::Array(run_rows)),
        ]));
    }

    // Streaming-parity verdict: zero jitter + ideal medium + one watermark
    // per sounding interval must reproduce the batched, serial and sharded
    // barrier drivers bit-exactly.
    let parity_stations = station_sweep.last().copied().unwrap_or(4);
    let parity_sim = SimConfig {
        stations: parity_stations,
        rounds,
        bits_per_value,
        drop_every: 7,
        snr_db: 25.0,
        churn: ChurnConfig::none(),
    };
    let parity_traffic = generate_traffic(&parity_sim, &model, &mut rng);
    let mut batched = build_server(model.clone(), parity_stations, bits_per_value, 1);
    let want =
        serve_traffic(&mut batched, &parity_traffic, ServeMode::Batched).expect("batched serving");
    let mut serial = build_server(model.clone(), parity_stations, bits_per_value, 1);
    let want_serial =
        serve_traffic(&mut serial, &parity_traffic, ServeMode::Serial).expect("serial serving");
    let mut lockstep_stream_cfg = EventConfig::lockstep();
    lockstep_stream_cfg.streaming = true;
    let mut event = build_event_driver(
        model.clone(),
        parity_stations,
        bits_per_value,
        1,
        lockstep_stream_cfg,
        None,
    );
    let got =
        serve_traffic(&mut event, &parity_traffic, ServeMode::Batched).expect("streaming serving");
    let mut parity = got == want
        && want == want_serial
        && feedback_identical(&event, &batched, parity_stations)
        && feedback_identical(&event, &serial, parity_stations);
    let mut parity_rows = vec![JsonValue::Object(vec![
        ("reference".into(), "batched+serial".into()),
        ("matches".into(), parity.into()),
    ])];
    for shards in [1usize, 4] {
        let mut legacy = build_server(model.clone(), parity_stations, bits_per_value, shards);
        let legacy_outcome = serve_traffic(&mut legacy, &parity_traffic, ServeMode::Batched)
            .expect("sharded serving");
        let mut sharded_event = build_event_driver(
            model.clone(),
            parity_stations,
            bits_per_value,
            shards,
            lockstep_stream_cfg,
            None,
        );
        let sharded_outcome =
            serve_traffic(&mut sharded_event, &parity_traffic, ServeMode::Batched)
                .expect("sharded streaming serving");
        let matches = sharded_outcome == legacy_outcome
            && feedback_identical(&sharded_event, &batched, parity_stations)
            && (0..parity_stations as StationId)
                .all(|id| sharded_event.feedback_of(id) == legacy.feedback_of(id));
        parity &= matches;
        parity_rows.push(JsonValue::Object(vec![
            ("reference".into(), format!("sharded_{shards}").into()),
            ("matches".into(), matches.into()),
        ]));
    }
    println!(
        "streaming parity (streaming lockstep == batched == serial == sharded 1/4): {parity}   \
         stall isolation: {stall_isolation}   barrier degrades: {barrier_degrades}   \
         same-seed determinism: {deterministic}"
    );

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("rounds", rounds)
        .field("bits_per_value", bits_per_value)
        .field("bottleneck_dim", bottleneck_dim)
        .field("budget_ms", barrier_cfg.budget.max_delay_s * 1e3)
        .field(
            "jitter_ns",
            JsonValue::Int(barrier_cfg.jitter_max_ns as i64),
        )
        .field("medium_rate_mbps", sounding.feedback_rate_mbps)
        .field("shards", SHARDS)
        .field("stall_ns", JsonValue::Int(STALL_NS as i64))
        .field("watermark_ns", JsonValue::Int(WATERMARK_NS as i64))
        .field(
            "station_sweep",
            JsonValue::Array(station_sweep.iter().map(|&s| s.into()).collect()),
        )
        .field("sweep", JsonValue::Array(sweep_rows))
        .field("parity", JsonValue::Array(parity_rows))
        .field("streaming_parity", parity)
        .field("stall_isolation", stall_isolation)
        .field("barrier_degrades", barrier_degrades)
        .field("deterministic", deterministic);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("wrote {out_path}");

    if !parity {
        eprintln!("FAIL: streaming close diverged from the lockstep barrier references");
        std::process::exit(1);
    }
    if !stall_isolation {
        eprintln!("FAIL: a stalled shard degraded healthy shards under streaming");
        std::process::exit(1);
    }
    if !barrier_degrades {
        eprintln!("FAIL: the barrier reference did not degrade under a stalled shard");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("FAIL: same-seed streaming runs diverged");
        std::process::exit(1);
    }
}
