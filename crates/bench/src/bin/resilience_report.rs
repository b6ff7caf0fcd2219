//! Fault-resilience benchmark: graceful degradation of event-driven serving
//! under a lossy/hostile medium.
//!
//! Sweeps the seeded `FaultInjector` over increasing loss/corruption rates and
//! drives the full PR 6 degradation machinery — CRC rejection, duplicate
//! suppression, deadline-aware retransmission, health states and stale
//! serving — writing `BENCH_PR6.json` with:
//!
//! * per-fault-level rows: deadline-hit rate, MU-MIMO link BER over the served
//!   feedback, lost/corrupt/retransmitted/stale-served accounting, and the
//!   retransmission recovery vs. a no-retry control run,
//! * the **zero-fault parity verdict**: with a `FaultConfig::none()` plan the
//!   armed fault machinery must be bit-exact with the PR 5 legacy batched,
//!   serial and sharded ({1, 4}) drivers,
//! * the **inertness verdict**: on the realistic (contended-medium) pipeline,
//!   an armed-but-inactive injector must not perturb the PR 5 outcome,
//! * the **determinism verdict**: same seed + same fault plan → identical
//!   summaries.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin resilience_report       # writes BENCH_PR6.json
//! SPLITBEAM_STATIONS=16 SPLITBEAM_ROUNDS=8 \
//!     cargo run --release -p bench --bin resilience_report
//! ```
//!
//! The binary exits non-zero when parity breaks, the deadline-hit rate fails
//! to degrade monotonically (graceful, not cliff-edged), or retransmission
//! stops recovering lost frames — CI runs it as a smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_bench::report::{kernel_dispatch_value, JsonReport, JsonValue};
use splitbeam_bench::timing::num_threads;
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_hwsim::fault::FaultConfig;
use splitbeam_serve::driver::{
    build_server, generate_traffic, link_check, serve_traffic, ServeMode, ServeOutcome, SimConfig,
    SimTraffic,
};
use splitbeam_serve::event::{build_event_driver, EventConfig};
use splitbeam_serve::{ApServer, EventDriver};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};
use wifi_phy::sounding::SoundingConfig;

/// The PR index this report seeds.
const PR_INDEX: u32 = 6;

/// The loss/corruption sweep: each entry is `(loss, corrupt)` probability.
const FAULT_SWEEP: [(f64, f64); 6] = [
    (0.0, 0.0),
    (0.05, 0.02),
    (0.10, 0.05),
    (0.20, 0.10),
    (0.35, 0.15),
    (0.50, 0.25),
];

struct RowStats {
    outcome: ServeOutcome,
    served: usize,
    on_time: usize,
    late: usize,
    expired: usize,
    lost: usize,
    corrupt: usize,
    retransmitted: usize,
    stale_served: usize,
}

fn run(driver: &mut EventDriver<ApServer>, traffic: &SimTraffic) -> RowStats {
    let outcome = serve_traffic(driver, traffic, ServeMode::Batched).expect("faulty serving");
    let sum = |f: fn(&splitbeam_serve::RoundSummary) -> usize| -> usize {
        outcome.summaries.iter().map(f).sum()
    };
    RowStats {
        served: sum(|s| s.served),
        on_time: sum(|s| s.on_time),
        late: sum(|s| s.late),
        expired: sum(|s| s.expired),
        lost: sum(|s| s.lost),
        corrupt: sum(|s| s.corrupt),
        retransmitted: sum(|s| s.retransmitted),
        stale_served: sum(|s| s.stale_served),
        outcome,
    }
}

fn main() {
    let stations = env_usize("SPLITBEAM_STATIONS", 8);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 5);
    let bits_per_value = 4u8;
    let snr_db = 25.0;

    // The paper's headline MU-MIMO configuration (same as the serve/shard/
    // latency reports): 3x3 at 80 MHz, 545-wide bottleneck at K = 1/8.
    let mimo = MimoConfig::symmetric(3, Bandwidth::Mhz80);
    let config = SplitBeamConfig::new(mimo, CompressionLevel::OneEighth);
    let bottleneck_dim = config.bottleneck_dim();
    let sounding = SoundingConfig::new(Bandwidth::Mhz80, stations);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);

    // Contended medium, zero jitter and zero compute latency: the sweep
    // isolates the injected faults as the only source of degradation.
    let base_cfg = EventConfig {
        feedback_rate_mbps: Some(sounding.feedback_rate_mbps),
        seed: 42,
        max_retries: 2,
        retry_backoff_ns: 100_000,
        ..EventConfig::lockstep()
    };

    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value,
        drop_every: 0,
        snr_db,
        churn: splitbeam_serve::driver::ChurnConfig::none(),
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let frames_transmitted = traffic.total_frames();

    println!(
        "SplitBeam resilience report (PR {PR_INDEX}) — {stations} stations x {rounds} rounds, \
         {bottleneck_dim}-wide bottleneck at {bits_per_value} bits/value, medium \
         {:.1} Mbit/s, retries <= {} @ {} ns backoff\n",
        sounding.feedback_rate_mbps, base_cfg.max_retries, base_cfg.retry_backoff_ns
    );

    let stale_cap = splitbeam_serve::HealthPolicy::default().stale_serve_cap;
    let mut sweep_rows = Vec::new();
    let mut hit_rates = Vec::new();
    let mut total_recovered_on_time = 0i64;
    let mut deterministic = true;
    let mut zero_fault_row: Option<ServeOutcome> = None;
    for (loss, corrupt) in FAULT_SWEEP {
        let faults = FaultConfig {
            loss,
            corrupt,
            ..FaultConfig::none()
        };
        let cfg = EventConfig { faults, ..base_cfg };
        let mut driver = build_event_driver(model.clone(), stations, bits_per_value, 1, cfg, None);
        let row = run(&mut driver, &traffic);
        let stats = driver.fault_stats();

        // Same-seed rerun must replay the fault plan bit-exactly.
        let mut rerun = build_event_driver(model.clone(), stations, bits_per_value, 1, cfg, None);
        let rrow = run(&mut rerun, &traffic);
        deterministic &= rrow.outcome == row.outcome && rerun.fault_stats() == stats;

        // No-retry control: how many reports does bounded retransmission
        // recover *inside the deadline budget*?
        let mut control = build_event_driver(
            model.clone(),
            stations,
            bits_per_value,
            1,
            EventConfig {
                max_retries: 0,
                ..cfg
            },
            None,
        );
        let crow = run(&mut control, &traffic);
        let recovered_on_time = row.on_time as i64 - crow.on_time as i64;
        total_recovered_on_time += recovered_on_time;

        // MU-MIMO link BER over the actually-served feedback (fresh or stale
        // up to the serving cap) against the stations' true final channels.
        let link =
            link_check(driver.inner(), &traffic, stale_cap, snr_db, &mut rng).expect("link check");
        let link_ber = if link.per_user_bits.is_empty() {
            JsonValue::Null
        } else {
            link.ber().into()
        };

        let hit_rate = row.on_time as f64 / frames_transmitted as f64;
        hit_rates.push(hit_rate);
        if loss == 0.0 && corrupt == 0.0 {
            zero_fault_row = Some(row.outcome.clone());
        }
        println!(
            "loss {loss:>4.2} corrupt {corrupt:>4.2}   deadline-hit {:>5.1}%   served {:>3} \
             (stale-served {:>2})   lost/corrupt {:>3}/{:>3}   retx {:>3} (+{recovered_on_time} \
             on-time vs no-retry)   link BER {}",
            hit_rate * 100.0,
            row.served,
            row.stale_served,
            row.lost,
            row.corrupt,
            row.retransmitted,
            if link.per_user_bits.is_empty() {
                "n/a".to_string()
            } else {
                format!("{:.2e}", link.ber())
            },
        );
        sweep_rows.push(JsonValue::Object(vec![
            ("loss".into(), loss.into()),
            ("corrupt".into(), corrupt.into()),
            ("frames_transmitted".into(), frames_transmitted.into()),
            (
                "offered_with_retries".into(),
                (stats.offered as usize).into(),
            ),
            ("lost".into(), row.lost.into()),
            ("corrupt_frames".into(), row.corrupt.into()),
            ("retransmitted".into(), row.retransmitted.into()),
            ("served".into(), row.served.into()),
            ("stale_served".into(), row.stale_served.into()),
            ("on_time".into(), row.on_time.into()),
            ("late".into(), row.late.into()),
            ("expired".into(), row.expired.into()),
            ("deadline_hit_rate".into(), hit_rate.into()),
            (
                "retransmission_overhead".into(),
                (row.retransmitted as f64 / frames_transmitted as f64).into(),
            ),
            (
                "recovered_on_time_vs_no_retry".into(),
                recovered_on_time.into(),
            ),
            ("link_ber".into(), link_ber),
        ]));
    }

    // Graceful degradation: the deadline-hit rate must fall monotonically (to
    // a small tolerance) as the fault level rises — no cliff at low rates, no
    // spurious recovery at high ones.
    let hit_rate_monotone = hit_rates.windows(2).all(|pair| pair[1] <= pair[0] + 0.02);
    let retransmission_recovers = total_recovered_on_time > 0;

    // Zero-fault parity verdict: the armed fault machinery with a
    // `FaultConfig::none()` plan must be bit-exact with every PR 5 driver
    // flavor under the ideal (lockstep) medium.
    let parity_cfg = EventConfig {
        max_retries: 2,
        retry_backoff_ns: 100_000,
        ..EventConfig::lockstep()
    };
    let parity_sim = SimConfig {
        drop_every: 7,
        ..sim
    };
    let parity_traffic = generate_traffic(&parity_sim, &model, &mut rng);
    let mut batched = build_server(model.clone(), stations, bits_per_value, 1);
    let want =
        serve_traffic(&mut batched, &parity_traffic, ServeMode::Batched).expect("batched serving");
    let mut serial = build_server(model.clone(), stations, bits_per_value, 1);
    let want_serial =
        serve_traffic(&mut serial, &parity_traffic, ServeMode::Serial).expect("serial serving");
    let mut event =
        build_event_driver(model.clone(), stations, bits_per_value, 1, parity_cfg, None);
    let got =
        serve_traffic(&mut event, &parity_traffic, ServeMode::Batched).expect("event serving");
    let mut parity = got == want
        && want == want_serial
        && feedback_identical(&event, &batched, stations)
        && feedback_identical(&event, &serial, stations);
    let mut parity_rows = vec![JsonValue::Object(vec![
        ("reference".into(), "batched+serial".into()),
        ("matches".into(), parity.into()),
    ])];
    for shards in [1usize, 4] {
        let mut legacy = build_server(model.clone(), stations, bits_per_value, shards);
        let legacy_outcome =
            serve_traffic(&mut legacy, &parity_traffic, ServeMode::Batched).expect("sharded");
        let mut sharded_event = build_event_driver(
            model.clone(),
            stations,
            bits_per_value,
            shards,
            parity_cfg,
            None,
        );
        let sharded_outcome =
            serve_traffic(&mut sharded_event, &parity_traffic, ServeMode::Batched)
                .expect("sharded event");
        let matches = sharded_outcome == legacy_outcome
            && feedback_identical(&sharded_event, &batched, stations);
        parity &= matches;
        parity_rows.push(JsonValue::Object(vec![
            ("reference".into(), format!("sharded_{shards}").into()),
            ("matches".into(), matches.into()),
        ]));
    }

    // Inertness verdict: on the *contended* pipeline of the sweep itself, the
    // zero-fault row must equal a PR 5-style driver with no fault machinery
    // at all (retries disarmed, injector never constructed draws).
    let mut pr5_style = build_event_driver(
        model.clone(),
        stations,
        bits_per_value,
        1,
        EventConfig {
            faults: FaultConfig::none(),
            max_retries: 0,
            retry_backoff_ns: 0,
            ..base_cfg
        },
        None,
    );
    let pr5_outcome =
        serve_traffic(&mut pr5_style, &traffic, ServeMode::Batched).expect("pr5-style serving");
    let zero_fault_inert = zero_fault_row
        .as_ref()
        .is_some_and(|row| *row == pr5_outcome);

    println!(
        "\nzero-fault parity (event == batched == serial == sharded 1/4): {parity}   \
         inert on contended medium: {zero_fault_inert}\n\
         hit-rate monotone: {hit_rate_monotone}   retransmission recovers: \
         {retransmission_recovers} (+{total_recovered_on_time} on-time)   deterministic: \
         {deterministic}"
    );

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("stations", stations)
        .field("rounds", rounds)
        .field("bits_per_value", bits_per_value)
        .field("bottleneck_dim", bottleneck_dim)
        .field("budget_ms", base_cfg.budget.max_delay_s * 1e3)
        .field("grace_ms", base_cfg.grace_s * 1e3)
        .field("medium_rate_mbps", sounding.feedback_rate_mbps)
        .field("max_retries", base_cfg.max_retries as usize)
        .field(
            "retry_backoff_ns",
            JsonValue::Int(base_cfg.retry_backoff_ns as i64),
        )
        .field("stale_serve_cap", stale_cap as usize)
        .field("sweep", JsonValue::Array(sweep_rows))
        .field("parity", JsonValue::Array(parity_rows))
        .field("zero_fault_parity", parity)
        .field("zero_fault_inert", zero_fault_inert)
        .field("hit_rate_monotone", hit_rate_monotone)
        .field("retransmission_recovers", retransmission_recovers)
        .field("deterministic", deterministic);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("wrote {out_path}");

    if !parity {
        eprintln!("FAIL: armed zero-fault machinery diverged from the PR 5 drivers");
        std::process::exit(1);
    }
    if !zero_fault_inert {
        eprintln!("FAIL: inactive injector perturbed the contended-medium pipeline");
        std::process::exit(1);
    }
    if !hit_rate_monotone {
        eprintln!("FAIL: deadline-hit rate did not degrade monotonically: {hit_rates:?}");
        std::process::exit(1);
    }
    if !retransmission_recovers {
        eprintln!("FAIL: bounded retransmission recovered no frames inside the budget");
        std::process::exit(1);
    }
    if !deterministic {
        eprintln!("FAIL: same-seed fault plans diverged");
        std::process::exit(1);
    }
}
