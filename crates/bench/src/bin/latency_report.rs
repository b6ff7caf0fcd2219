//! Event-driven serving latency benchmark: virtual end-to-end delay and
//! Eq. 7d deadline enforcement vs. station count.
//!
//! Drives the `splitbeam_serve::event::EventDriver` (head compute from the
//! Zynq accelerator model, seeded jitter, shared-medium contention, deadline
//! classification at round close) over growing fleets and writes
//! `BENCH_PR5.json` with:
//!
//! * per-station-count rows: deadline-hit rate, p50/p99 virtual end-to-end
//!   delay, on-time/late/expired counts, medium airtime and queueing,
//! * the **lockstep-parity verdict**: the event driver with zero jitter, zero
//!   compute latency and an ideal medium must be bit-exact with the legacy
//!   batched, serial and sharded ({1, 4} shards) drivers,
//! * the **determinism verdict**: two runs with the same seed must produce
//!   identical virtual summaries.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin latency_report            # writes BENCH_PR5.json
//! SPLITBEAM_STATIONS=32 SPLITBEAM_ROUNDS=8 SPLITBEAM_JITTER_NS=500000 \
//!     cargo run --release -p bench --bin latency_report
//! ```
//!
//! The binary exits non-zero when the parity or determinism verdict is false
//! — CI runs it as a smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_bench::report::{kernel_dispatch_value, JsonReport, JsonValue};
use splitbeam_bench::timing::num_threads;
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_hwsim::accelerator::AcceleratorModel;
use splitbeam_hwsim::event::ns_to_s;
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, RoundServing, ServeMode, SimConfig, SimTraffic,
};
use splitbeam_serve::event::{build_event_driver, EventConfig};
use splitbeam_serve::{ApServer, EventDriver, RoundSummary, StationId};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};
use wifi_phy::sounding::SoundingConfig;

/// The PR index this report seeds.
const PR_INDEX: u32 = 5;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays `traffic` through an event driver round by round, harvesting every
/// delivered report's virtual e2e delay — served *and* expired, so the
/// percentiles see the uncensored tail of the distribution.
fn run_event(
    driver: &mut EventDriver<ApServer>,
    traffic: &SimTraffic,
) -> (Vec<RoundSummary>, Vec<f64>) {
    let mut summaries = Vec::with_capacity(traffic.rounds.len());
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
        summaries.push(summary);
    }
    (summaries, delays_s)
}

fn main() {
    let max_stations = env_usize("SPLITBEAM_STATIONS", 16);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let bits_per_value = 4u8;

    // The paper's headline MU-MIMO configuration (same as serve/shard
    // reports): 3x3 at 80 MHz, 545-wide bottleneck at K = 1/8.
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz80);
    let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
    let bottleneck_dim = config.bottleneck_dim();
    let sounding = SoundingConfig::new(Bandwidth::Mhz80, max_stations);
    let accel = AcceleratorModel::zynq_200mhz(3, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);

    let event_cfg = EventConfig::realistic(sounding.feedback_rate_mbps, 200_000, 42);
    let station_sweep: Vec<usize> = [2usize, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&n| n <= max_stations)
        .collect();

    println!(
        "SplitBeam latency report (PR {PR_INDEX}) — up to {max_stations} stations x {rounds} \
         rounds, {bottleneck_dim}-wide bottleneck at {bits_per_value} bits/value, medium \
         {} Mbit/s, jitter <= {} ns\n",
        sounding.feedback_rate_mbps, event_cfg.jitter_max_ns
    );

    // Virtual-delay sweep vs. station count.
    let mut sweep_rows = Vec::new();
    let mut deterministic = true;
    for &stations in &station_sweep {
        let sim = SimConfig {
            stations,
            rounds,
            bits_per_value,
            drop_every: 0,
            snr_db: 25.0,
            churn: splitbeam_serve::driver::ChurnConfig::none(),
        };
        let traffic = generate_traffic(&sim, &model, &mut rng);
        let mut driver = build_event_driver(
            model.clone(),
            stations,
            bits_per_value,
            1,
            event_cfg,
            Some(&accel),
        );
        let (summaries, mut delays_s) = run_event(&mut driver, &traffic);

        // Same-seed rerun must reproduce the virtual summaries exactly.
        let mut rerun = build_event_driver(
            model.clone(),
            stations,
            bits_per_value,
            1,
            event_cfg,
            Some(&accel),
        );
        let (summaries2, _) = run_event(&mut rerun, &traffic);
        deterministic &= summaries == summaries2;

        let on_time: usize = summaries.iter().map(|s| s.on_time).sum();
        let late: usize = summaries.iter().map(|s| s.late).sum();
        let expired: usize = summaries.iter().map(|s| s.expired).sum();
        // Counted from the *traffic*, independently of the classification
        // counters — CI cross-checks that on_time + late + expired accounts
        // for every transmitted frame.
        let frames_transmitted = traffic.total_frames();
        let hit_rate = if frames_transmitted == 0 {
            1.0
        } else {
            on_time as f64 / frames_transmitted as f64
        };
        delays_s.sort_by(f64::total_cmp);
        let p50_ms = percentile(&delays_s, 0.50) * 1e3;
        let p99_ms = percentile(&delays_s, 0.99) * 1e3;
        println!(
            "{stations:>3} stations  deadline-hit {:>6.1}%   p50 {p50_ms:>7.3} ms   \
             p99 {p99_ms:>7.3} ms   on-time/late/expired {on_time}/{late}/{expired}   \
             medium air {:.3} ms, queue {:.3} ms",
            hit_rate * 100.0,
            driver.medium().total_air_ns() as f64 / 1e6,
            driver.medium().total_wait_ns() as f64 / 1e6,
        );
        sweep_rows.push(JsonValue::Object(vec![
            ("stations".into(), stations.into()),
            ("frames_transmitted".into(), frames_transmitted.into()),
            ("deadline_hit_rate".into(), hit_rate.into()),
            ("p50_e2e_ms".into(), p50_ms.into()),
            ("p99_e2e_ms".into(), p99_ms.into()),
            ("on_time".into(), on_time.into()),
            ("late".into(), late.into()),
            ("expired".into(), expired.into()),
            (
                "medium_air_ms".into(),
                (driver.medium().total_air_ns() as f64 / 1e6).into(),
            ),
            (
                "medium_queue_ms".into(),
                (driver.medium().total_wait_ns() as f64 / 1e6).into(),
            ),
        ]));
    }

    // Lockstep-parity verdict: zero jitter + zero compute + ideal medium
    // must reproduce every legacy driver bit-exactly.
    let parity_stations = station_sweep.last().copied().unwrap_or(4);
    let parity_sim = SimConfig {
        stations: parity_stations,
        rounds,
        bits_per_value,
        drop_every: 7,
        snr_db: 25.0,
        churn: splitbeam_serve::driver::ChurnConfig::none(),
    };
    let parity_traffic = generate_traffic(&parity_sim, &model, &mut rng);
    let mut batched = build_server(model.clone(), parity_stations, bits_per_value, 1);
    let want =
        serve_traffic(&mut batched, &parity_traffic, ServeMode::Batched).expect("batched serving");
    let mut serial = build_server(model.clone(), parity_stations, bits_per_value, 1);
    let want_serial =
        serve_traffic(&mut serial, &parity_traffic, ServeMode::Serial).expect("serial serving");
    let mut event = build_event_driver(
        model.clone(),
        parity_stations,
        bits_per_value,
        1,
        EventConfig::lockstep(),
        None,
    );
    let got =
        serve_traffic(&mut event, &parity_traffic, ServeMode::Batched).expect("event serving");
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
            EventConfig::lockstep(),
            None,
        );
        let sharded_outcome =
            serve_traffic(&mut sharded_event, &parity_traffic, ServeMode::Batched)
                .expect("sharded event serving");
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
        "\nlockstep parity (event == batched == serial == sharded 1/4): {parity}   \
         same-seed determinism: {deterministic}"
    );

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("rounds", rounds)
        .field("bits_per_value", bits_per_value)
        .field("bottleneck_dim", bottleneck_dim)
        .field("budget_ms", event_cfg.budget.max_delay_s * 1e3)
        .field("grace_ms", event_cfg.grace_s * 1e3)
        .field("jitter_ns", JsonValue::Int(event_cfg.jitter_max_ns as i64))
        .field("medium_rate_mbps", sounding.feedback_rate_mbps)
        .field(
            "station_sweep",
            JsonValue::Array(station_sweep.iter().map(|&s| s.into()).collect()),
        )
        .field("latency", JsonValue::Array(sweep_rows))
        .field("parity", JsonValue::Array(parity_rows))
        .field("lockstep_parity", parity)
        .field("deterministic", deterministic);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("wrote {out_path}");

    if !parity {
        eprintln!("FAIL: event-driven serving diverged from the lockstep references");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("FAIL: same-seed event runs diverged");
        std::process::exit(1);
    }
}
