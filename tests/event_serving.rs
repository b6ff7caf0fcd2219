//! Cross-crate integration test of the event-driven serving stack through the
//! façade: virtual-time serving vs the lockstep drivers, deadline accounting
//! under a real medium + accelerator latencies, and determinism.
//!
//! CI also runs this suite with `SPLITBEAM_JITTER_NS` set: the invariants
//! below hold for *any* jitter amplitude ([`EventConfig::realistic`] reads the
//! knob), while the lockstep-parity tests pin jitter to zero explicitly.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::event::build_event_driver;
use splitbeam_repro::serve::RoundSummary;

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
fn lockstep_event_serving_matches_legacy_end_to_end() {
    let model = small_model(1);
    let sim = SimConfig {
        stations: 6,
        rounds: 3,
        bits_per_value: 4,
        drop_every: 5,
        churn: ChurnConfig {
            join_every: 2,
            leave_every: 3,
            burst_every: 0,
        },
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let traffic = generate_traffic(&sim, &model, &mut rng);

    let mut legacy = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    let want = serve_traffic(&mut legacy, &traffic, ServeMode::Batched).unwrap();

    let mut event = build_event_driver(
        model.clone(),
        sim.stations,
        sim.bits_per_value,
        1,
        EventConfig::lockstep(),
        None,
    );
    let got = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
    assert_eq!(got, want, "lockstep event serving must equal legacy");
    for id in 0..traffic.max_station_id {
        assert_eq!(event.feedback_of(id), legacy.feedback_of(id));
    }

    // Sharded flavor too, through the same trait-driven loop.
    let mut sharded = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        4,
        EventConfig::lockstep(),
        None,
    );
    let got = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
    assert_eq!(got.total_served(), want.total_served());
    for id in 0..traffic.max_station_id {
        assert_eq!(sharded.feedback_of(id), legacy.feedback_of(id));
    }
}

/// Deadline-accounting invariants that hold for *any* jitter amplitude,
/// medium rate, accelerator latency — and, since PR 6, any fault plan
/// ([`EventConfig::realistic`] reads `SPLITBEAM_LOSS`/`SPLITBEAM_CORRUPT`/
/// `SPLITBEAM_DUP` too). CI re-runs this with disruptive jitter and again
/// with a disruptive loss+corruption+jitter mix.
#[test]
fn timed_serving_invariants_hold_under_any_jitter() {
    let model = small_model(3);
    let sim = SimConfig {
        stations: 8,
        rounds: 4,
        bits_per_value: 6,
        drop_every: 7,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let accel = AcceleratorModel::zynq_200mhz(2, 2);
    let cfg = EventConfig::realistic(24.0, 0, 11);
    let mut event = build_event_driver(
        model.clone(),
        sim.stations,
        sim.bits_per_value,
        1,
        cfg,
        Some(&accel),
    );
    let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();

    let served: usize = outcome.summaries.iter().map(|s| s.served).sum();
    let expired: usize = outcome.summaries.iter().map(|s| s.expired).sum();
    let lost: usize = outcome.summaries.iter().map(|s| s.lost).sum();
    let corrupt: usize = outcome.summaries.iter().map(|s| s.corrupt).sum();
    let retransmitted: usize = outcome.summaries.iter().map(|s| s.retransmitted).sum();
    let stats = event.fault_stats();
    assert_eq!(
        stats.lost as usize, lost,
        "summaries must match the injector"
    );
    if lost == 0 && corrupt == 0 {
        assert_eq!(
            served + expired,
            traffic.total_frames(),
            "on a reliable medium every transmitted frame is served or expired"
        );
    } else {
        assert!(served + expired <= traffic.total_frames());
        assert!(
            served + expired + lost + corrupt >= traffic.total_frames(),
            "every missing frame must be accounted to a lost or corrupt delivery"
        );
    }
    for summary in &outcome.summaries {
        assert_eq!(
            summary.on_time + summary.late,
            summary.served,
            "served splits exactly into on-time + late"
        );
        if summary.served > 0 {
            // A real medium and accelerator make every leg observable.
            assert!(summary.delay.air_ns > 0, "airtime must be charged");
            assert!(summary.delay.head_ns > 0, "head compute must be charged");
            assert!(summary.delay.tail_ns > 0, "tail compute must be charged");
            assert!(summary.delay.worst_e2e_ns > 0);
        }
    }
    // The medium actually serialized the fleet's frames — every transmission
    // is charged airtime, including lost/corrupt ones and every retry.
    assert_eq!(
        event.medium().frames_carried(),
        (traffic.total_frames() + retransmitted) as u64
    );
    assert!(event.medium().total_air_ns() > 0);

    // Determinism: an identical run (same seed, same traffic) is identical,
    // summary for summary.
    let mut rerun = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        1,
        cfg,
        Some(&accel),
    );
    let outcome2 = serve_traffic(&mut rerun, &traffic, ServeMode::Batched).unwrap();
    let summaries: Vec<RoundSummary> = outcome.summaries.clone();
    assert_eq!(summaries, outcome2.summaries);
    assert_eq!(event.virtual_now_ns(), rerun.virtual_now_ns());
}

/// The deadline close never mistakes deadline classes for session staleness:
/// an expired report leaves its station stale/awaiting, which the next
/// on-time report repairs.
#[test]
fn expired_reports_interact_correctly_with_staleness() {
    let model = small_model(5);
    let sim = SimConfig {
        stations: 2,
        rounds: 3,
        bits_per_value: 4,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let traffic = generate_traffic(&sim, &model, &mut rng);
    // Cadence 3 on station 1: round-1 report is one interval old (on-time
    // edge), round-2 report two intervals (late edge); both rounds still
    // serve station 0 fresh.
    let mut event = build_event_driver(
        model,
        sim.stations,
        sim.bits_per_value,
        1,
        EventConfig::lockstep(),
        None,
    );
    event.set_cadence(1, 3);
    let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
    assert_eq!(outcome.summaries[0].on_time, 2);
    assert_eq!(outcome.summaries[1].on_time, 2, "budget edge is inclusive");
    assert_eq!(outcome.summaries[2].late, 1);
    assert_eq!(outcome.summaries[2].on_time, 1);
    let session = event.inner().session(1).unwrap();
    assert!(
        session.served_late(),
        "late class must be visible on session"
    );
    assert!(session.last_stamp().is_some());
}
