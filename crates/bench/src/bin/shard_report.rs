//! Sharded-serving benchmark: the multi-core AP serving layer under churn.
//!
//! Drives `splitbeam_serve::ApServer::with_shards(n)` over simulated sounding
//! rounds with session churn (joins, departures, bursty drops) and writes
//! `BENCH_PR4.json` with:
//!
//! * AP-side serving throughput (payloads/s) at shard counts 1/2/4/8
//!   (informational — single-core hosts serialize the shards),
//! * bit-exactness verdicts: sharded serving must reconstruct byte-identical
//!   feedback to the single-shard batched path and the station-at-a-time
//!   serial reference at every shard count,
//! * churn statistics: scheduled joins/leaves/drops, plus evictions and
//!   re-associations from a run with an aggressive idle budget.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin shard_report            # writes BENCH_PR4.json
//! SPLITBEAM_STATIONS=32 SPLITBEAM_ROUNDS=12 cargo run --release -p bench --bin shard_report
//! ```
//!
//! The binary exits non-zero when any bit-exactness verdict is false — CI
//! runs it as a smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_bench::report::{kernel_dispatch_value, JsonReport, JsonValue};
use splitbeam_bench::timing::{measure, num_threads};
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, ChurnConfig, ServeMode, SimConfig,
};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// The PR index this report seeds.
const PR_INDEX: u32 = 4;

/// Shard counts swept by the report.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let stations = env_usize("SPLITBEAM_STATIONS", 12);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let bits_per_value = 4u8;

    // The paper's headline MU-MIMO configuration (same as serve_report):
    // 3x3 at 80 MHz, 545-wide bottleneck at K = 1/8.
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let bottleneck_dim = config.bottleneck_dim();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);

    println!(
        "SplitBeam shard report (PR {PR_INDEX}) — {stations} stations x {rounds} rounds, \
         {bottleneck_dim}-wide bottleneck at {bits_per_value} bits/value, churn enabled\n"
    );

    // Churny traffic: joins, departures and bursty drops on top of the
    // steady drop schedule — every server flavor replays the identical run.
    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value,
        drop_every: 9,
        snr_db: 25.0,
        churn: ChurnConfig {
            join_every: 2,
            leave_every: 3,
            burst_every: 4,
        },
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let all_ids = traffic.max_station_id as usize;

    // Steady-state traffic (no churn, no drops) for the timed sweep: churn
    // events are not replay-safe on a persistent server (a join would
    // re-register on the second pass), and throughput should measure the
    // per-round serving path, not registration.
    let steady_sim = SimConfig {
        drop_every: 0,
        churn: ChurnConfig::none(),
        ..sim
    };
    let steady_traffic = generate_traffic(&steady_sim, &model, &mut rng);
    let payloads_per_pass = steady_traffic.total_frames();

    // References: single-shard batched and station-at-a-time serial.
    let mut batched = build_server(model.clone(), stations, bits_per_value, 1);
    let batched_outcome =
        serve_traffic(&mut batched, &traffic, ServeMode::Batched).expect("batched serving");
    let mut serial = build_server(model.clone(), stations, bits_per_value, 1);
    let serial_outcome =
        serve_traffic(&mut serial, &traffic, ServeMode::Serial).expect("serial serving");
    let batched_matches_serial = batched_outcome.summaries == serial_outcome.summaries
        && feedback_identical(&batched, &serial, all_ids);

    // Sharded sweep: bit-exactness verdicts plus throughput per shard count.
    let mut throughput_rows = Vec::new();
    let mut verdict_rows = Vec::new();
    let mut all_exact = true;
    for &shards in &SHARD_COUNTS {
        let mut sharded = build_server(model.clone(), stations, bits_per_value, shards);
        let outcome =
            serve_traffic(&mut sharded, &traffic, ServeMode::Batched).expect("sharded serving");
        let matches_batched = outcome.total_served() == batched_outcome.total_served()
            && feedback_identical(&sharded, &batched, all_ids);
        let matches_serial = feedback_identical(&sharded, &serial, all_ids);
        all_exact &= matches_batched && matches_serial;

        let mut bench_server = build_server(model.clone(), stations, bits_per_value, shards);
        let ns_per_pass = measure(|| {
            serve_traffic(&mut bench_server, &steady_traffic, ServeMode::Batched)
                .expect("sharded serving");
        });
        let payloads_per_sec = payloads_per_pass as f64 / (ns_per_pass / 1e9);
        println!(
            "{shards:>2} shards  {payloads_per_sec:>12.0} payloads/s   \
             sharded==batched: {matches_batched}   sharded==serial: {matches_serial}"
        );
        throughput_rows.push(JsonValue::Object(vec![
            ("shards".into(), shards.into()),
            ("payloads_per_sec".into(), payloads_per_sec.into()),
        ]));
        verdict_rows.push(JsonValue::Object(vec![
            ("shards".into(), shards.into()),
            ("sharded_matches_batched".into(), matches_batched.into()),
            ("sharded_matches_serial".into(), matches_serial.into()),
        ]));
    }

    // Churn + lifecycle run on the same traffic: an aggressive idle budget
    // forces evictions, and serve_traffic cleanly re-associates any evicted
    // station the moment it transmits again.
    let mut lifecycle = build_server(model.clone(), stations, bits_per_value, 4);
    lifecycle.set_max_idle_rounds(Some(1));
    let lifecycle_outcome =
        serve_traffic(&mut lifecycle, &traffic, ServeMode::Batched).expect("lifecycle serving");
    let evicted = lifecycle_outcome.evictions;
    let reassociations = lifecycle_outcome.reassociations;
    let churn_stats = JsonValue::Object(vec![
        ("joins".into(), traffic.total_joins().into()),
        ("leaves".into(), traffic.total_leaves().into()),
        ("dropped_reports".into(), traffic.total_drops().into()),
        ("evictions".into(), evicted.into()),
        ("reassociations".into(), reassociations.into()),
        ("stations_final".into(), lifecycle.num_stations().into()),
    ]);
    println!(
        "\nchurn     joins {} / leaves {} / dropped {} / evictions {evicted} / \
         reassociations {reassociations}",
        traffic.total_joins(),
        traffic.total_leaves(),
        traffic.total_drops()
    );
    println!("bit-exact batched==serial: {batched_matches_serial}, sharded sweep: {all_exact}");

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("stations", stations)
        .field("rounds", rounds)
        .field("bits_per_value", bits_per_value)
        .field("bottleneck_dim", bottleneck_dim)
        .field("payloads_per_pass", payloads_per_pass)
        .field(
            "shard_counts",
            JsonValue::Array(SHARD_COUNTS.iter().map(|&s| s.into()).collect()),
        )
        .field("throughput", JsonValue::Array(throughput_rows))
        .field("verdicts", JsonValue::Array(verdict_rows))
        .field("batched_matches_serial", batched_matches_serial)
        .field("sharded_matches_batched", all_exact)
        .field("churn", churn_stats);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("\nwrote {out_path}");

    if !batched_matches_serial {
        eprintln!("FAIL: batched serving diverged from station-at-a-time serving");
        std::process::exit(1);
    }
    if !all_exact {
        eprintln!("FAIL: sharded serving diverged from the single-shard references");
        std::process::exit(1);
    }
}
