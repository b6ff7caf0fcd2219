//! Serving-layer benchmark: the multi-station AP feedback service.
//!
//! Drives `splitbeam-serve` over simulated sounding rounds and writes
//! `BENCH_PR2.json` with:
//!
//! * AP-side serving throughput (payloads/s) for the coalesced batched path
//!   and the station-at-a-time reference, plus their speedup,
//! * a bit-exactness verdict (batched and serial serving must reconstruct
//!   byte-identical feedback),
//! * actual wire bytes per frame for the bit-packed bottleneck codec against
//!   both the legacy `Vec<u16>` in-memory representation and the airtime
//!   model's predicted size,
//! * the end-to-end MU-MIMO link-check BER over the served feedback.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin serve_report            # writes BENCH_PR2.json
//! SPLITBEAM_STATIONS=32 SPLITBEAM_ROUNDS=12 cargo run --release -p bench --bin serve_report
//! ```
//!
//! The binary exits non-zero when batched and serial serving disagree or the
//! wire accounting drifts from the airtime model — CI runs it as a smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::airtime::feedback_bits_on_air;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam_bench::report::{kernel_dispatch_value, JsonReport};
use splitbeam_bench::timing::{measure, num_threads};
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_serve::driver::{
    build_server, generate_traffic, link_check, serve_traffic, ChurnConfig, ServeMode, SimConfig,
};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// The PR index this report seeds.
const PR_INDEX: u32 = 2;

fn main() {
    let stations = env_usize("SPLITBEAM_STATIONS", 12);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let bits_per_value = 4u8;

    // The paper's headline MU-MIMO configuration: 3x3 at 80 MHz, 242
    // subcarriers, 4356-wide CSI, 545-wide bottleneck at K = 1/8. The tail's
    // weight matrix (~3 MB) no longer fits in L2, which is exactly the regime
    // where coalescing stations into one batched inference pays: serial
    // serving re-streams the weights once per station, the batched path once
    // per register panel.
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let subcarriers = config.mimo.subcarriers();
    let bottleneck_dim = config.bottleneck_dim();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);

    println!(
        "SplitBeam serve report (PR {PR_INDEX}) — {stations} stations x {rounds} rounds, \
         {bottleneck_dim}-wide bottleneck at {bits_per_value} bits/value\n"
    );

    // Clean traffic (no drops, no churn) for the timed comparison.
    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value,
        drop_every: 0,
        snr_db: 25.0,
        churn: ChurnConfig::none(),
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let payloads_per_pass = traffic.total_frames();

    // Bit-exactness: one pass per mode on fresh servers.
    let mut batched_server = build_server(model.clone(), stations, bits_per_value, 1);
    let mut serial_server = build_server(model.clone(), stations, bits_per_value, 1);
    let batched_outcome =
        serve_traffic(&mut batched_server, &traffic, ServeMode::Batched).expect("batched serving");
    let serial_outcome =
        serve_traffic(&mut serial_server, &traffic, ServeMode::Serial).expect("serial serving");
    let batched_matches_serial = batched_outcome.summaries == serial_outcome.summaries
        && feedback_identical(&batched_server, &serial_server, stations);

    // Throughput: reuse one long-lived server per mode (sessions persist, the
    // round counter keeps advancing — exactly the steady-state serving loop).
    let ns_batched = {
        let mut server = build_server(model.clone(), stations, bits_per_value, 1);
        measure(|| {
            serve_traffic(&mut server, &traffic, ServeMode::Batched).expect("batched serving");
        })
    };
    let ns_serial = {
        let mut server = build_server(model.clone(), stations, bits_per_value, 1);
        measure(|| {
            serve_traffic(&mut server, &traffic, ServeMode::Serial).expect("serial serving");
        })
    };
    let payloads_per_sec_batched = payloads_per_pass as f64 / (ns_batched / 1e9);
    let payloads_per_sec_serial = payloads_per_pass as f64 / (ns_serial / 1e9);
    let speedup = ns_serial / ns_batched;

    // Wire accounting: actual frame length vs the legacy in-memory
    // representation and vs the airtime model's prediction.
    let wire_bytes_per_frame = wire::encoded_len(bottleneck_dim, bits_per_value);
    let legacy_bytes_per_frame = wire::legacy_repr_bytes(bottleneck_dim);
    let wire_vs_legacy = wire_bytes_per_frame as f64 / legacy_bytes_per_frame as f64;
    let airtime_bits = feedback_bits_on_air(bottleneck_dim, bits_per_value);
    let airtime_matches_wire = airtime_bits.div_ceil(8) == wire_bytes_per_frame;
    let observed_frame = traffic.rounds[0].frames[0]
        .1
        .as_ref()
        .expect("first frame exists in drop-free traffic");
    assert_eq!(observed_frame.len(), wire_bytes_per_frame);

    // Link check over served feedback, on traffic with drops (staleness).
    let dropped_sim = SimConfig {
        drop_every: 9,
        ..sim
    };
    let dropped_traffic = generate_traffic(&dropped_sim, &model, &mut rng);
    let mut link_server = build_server(model, stations, bits_per_value, 1);
    serve_traffic(&mut link_server, &dropped_traffic, ServeMode::Batched).expect("serving");
    let stale_station_rounds = stations * rounds - dropped_traffic.total_frames();
    let link_report = link_check(
        &link_server,
        &dropped_traffic,
        1,
        dropped_sim.snr_db,
        &mut rng,
    )
    .expect("link check");
    let link_ber = link_report.ber();

    println!(
        "batched  {:>12.0} payloads/s   ({ns_batched:>12.0} ns/pass)",
        payloads_per_sec_batched
    );
    println!(
        "serial   {:>12.0} payloads/s   ({ns_serial:>12.0} ns/pass)",
        payloads_per_sec_serial
    );
    println!("speedup  {speedup:>12.2}x   bit-exact: {batched_matches_serial}");
    println!(
        "wire     {wire_bytes_per_frame} B/frame vs legacy {legacy_bytes_per_frame} B \
         ({:.1}%), airtime model {airtime_bits} bits (match: {airtime_matches_wire})",
        100.0 * wire_vs_legacy
    );
    println!("link     BER {link_ber:.4} over {} payload bits", {
        let bits: usize = link_report.per_user_bits.iter().sum();
        bits
    });

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("stations", stations)
        .field("rounds", rounds)
        .field("subcarriers", subcarriers)
        .field("bottleneck_dim", bottleneck_dim)
        .field("bits_per_value", bits_per_value)
        .field("payloads_per_sec_batched", payloads_per_sec_batched)
        .field("payloads_per_sec_serial", payloads_per_sec_serial)
        .field("batched_speedup_vs_serial", speedup)
        .field("batched_matches_serial", batched_matches_serial)
        .field("wire_bytes_per_frame", wire_bytes_per_frame)
        .field("legacy_vec_u16_bytes_per_frame", legacy_bytes_per_frame)
        .field("wire_vs_legacy_ratio", wire_vs_legacy)
        .field("airtime_model_bits_per_frame", airtime_bits)
        .field("airtime_model_matches_wire", airtime_matches_wire)
        .field("stale_station_rounds", stale_station_rounds)
        .field("link_check_ber", link_ber);
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("\nwrote {out_path}");

    if !batched_matches_serial {
        eprintln!("FAIL: batched serving diverged from station-at-a-time serving");
        std::process::exit(1);
    }
    if !airtime_matches_wire {
        eprintln!("FAIL: wire frame size drifted from the airtime model prediction");
        std::process::exit(1);
    }
}
