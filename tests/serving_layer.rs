//! Cross-crate integration test of the AP serving layer: station-side wire
//! traffic through the façade, batched vs serial determinism, staleness, and
//! the MU-MIMO link check over served feedback.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::driver::SimTraffic;
use splitbeam_repro::splitbeam::fused::TailWeights;
use splitbeam_repro::splitbeam::wire;

fn small_model(seed: u64) -> SplitBeamModel {
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
fn served_feedback_round_trips_through_the_wire() {
    let model = small_model(1);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();

    // Station side: compress, quantize, wire-encode.
    let payload = model.compress_quantized(&csi, 4).unwrap();
    let frame = wire::encode_feedback(&payload).unwrap();
    assert_eq!(frame.len(), payload.wire_bytes());

    // AP side: ingest over the wire, serve the round, compare with the direct
    // (never-encoded) reconstruction — must be bit-exact.
    let mut server = ApServer::new();
    // The comparison target is the direct f32 reconstruction, so pin the f32
    // serving path regardless of the SPLITBEAM_TAIL_WEIGHTS environment.
    server.set_tail_weights(TailWeights::F32);
    let key = server.register_model(model.clone());
    server.register_station(0, key, 4).unwrap();
    server.ingest_wire(0, &frame).unwrap();
    let summary = server.process_round().unwrap();
    assert_eq!((summary.served, summary.stale), (1, 0));
    let direct = model.reconstruct_quantized(&payload).unwrap();
    assert_eq!(server.feedback_of(0).unwrap(), direct.as_slice());
}

#[test]
fn batched_and_serial_serving_agree_end_to_end() {
    let model = small_model(3);
    let sim = SimConfig {
        stations: 6,
        rounds: 3,
        bits_per_value: 4,
        drop_every: 5,
        snr_db: 25.0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let traffic: SimTraffic = generate_traffic(&sim, &model, &mut rng);

    let mut batched = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    let mut serial = build_server(model, sim.stations, sim.bits_per_value, 1);
    let b = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
    let s = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
    assert_eq!(b, s, "round summaries diverged");
    assert_eq!(b.summaries.len(), sim.rounds);
    for id in 0..sim.stations as u64 {
        assert_eq!(batched.feedback_of(id), serial.feedback_of(id));
    }

    // The dropped reports show up as stale stations somewhere in the run.
    let total_served = b.total_served();
    assert_eq!(total_served, traffic.total_frames());
    assert!(total_served < sim.stations * sim.rounds);

    // Link check over fresh-enough stations produces a finite BER.
    let report = link_check(&batched, &traffic, 1, sim.snr_db, &mut rng).unwrap();
    assert!(report.ber().is_finite());
    assert!(!report.per_user_bits.is_empty());
}

#[test]
fn wire_frames_match_airtime_accounting() {
    let model = small_model(5);
    let sim = SimConfig {
        stations: 2,
        rounds: 1,
        bits_per_value: 4,
        drop_every: 0,
        snr_db: 25.0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let predicted_bits = splitbeam_repro::splitbeam::airtime::feedback_bits_on_air(
        model.bottleneck_dim(),
        sim.bits_per_value,
    );
    for round in &traffic.rounds {
        for (_, frame) in round.frames.iter() {
            let frame = frame.as_ref().expect("drop-free traffic");
            assert_eq!(frame.len(), predicted_bits.div_ceil(8));
        }
    }
    // 4-bit codes on the wire are far below the u16-per-code representation,
    // even with the v2 versioned header and CRC-32 trailer on every frame.
    let legacy = wire::legacy_repr_bytes(model.bottleneck_dim());
    let actual = wire::encoded_len(model.bottleneck_dim(), sim.bits_per_value);
    assert!(
        (actual as f64) < 0.4 * legacy as f64,
        "{actual} B on the wire vs {legacy} B legacy"
    );
}
