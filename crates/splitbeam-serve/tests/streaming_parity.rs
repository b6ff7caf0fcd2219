//! Correctness anchor of the streaming micro-batch refactor: with lockstep
//! timing and a single watermark per round cadence, streaming serving must
//! reproduce the barrier closes **bit-exactly** — summaries and per-station
//! feedback bytes — under both `SPLITBEAM_KERNEL` backends, at 1 and 4
//! shards, and under both a clean and a lossy/corrupting fault plan. On top
//! of the parity matrix: stalled-shard isolation (a slow shard must not drag
//! other shards' deadline-hit rate under streaming, while the barrier
//! couples everyone), the empty-micro-batch merge regression, ring
//! backpressure, and a genuinely multi-micro-batch round.
//!
//! The kernel override is process-global, so kernel-pinning tests serialize
//! on one mutex and restore the default before returning (the same pattern
//! as the `event_parity` suite).

use mimo_math::kernel::{avx2_fma_available, set_kernel, KernelChoice};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_hwsim::fault::FaultConfig;
use splitbeam_serve::driver::{
    build_server, build_sharded_server, generate_traffic, serve_traffic, RoundServing, ServeMode,
    SimConfig,
};
use splitbeam_serve::event::{build_event_driver, build_sharded_event_driver, EventConfig};
use splitbeam_serve::server::ApServer;
use splitbeam_serve::timing::FrameStamp;
use splitbeam_serve::{DeadlinePolicy, ServeError, ShardedApServer};
use std::sync::Mutex;
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the kernel pinned to `choice`, restoring default dispatch
/// afterwards (also on panic, via a drop guard).
fn with_kernel<T>(choice: KernelChoice, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel(None);
        }
    }
    let _guard = KERNEL_LOCK.lock().unwrap();
    let _restore = Restore;
    set_kernel(Some(choice));
    f()
}

fn kernel_choices() -> Vec<KernelChoice> {
    let mut choices = vec![KernelChoice::Scalar];
    if avx2_fma_available() {
        choices.push(KernelChoice::Auto);
    }
    choices
}

fn model(seed: u64) -> SplitBeamModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SplitBeamModel::new(
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        ),
        &mut rng,
    )
}

fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let payload = model.compress_quantized(&csi, bits).unwrap();
    splitbeam::wire::encode_feedback(&payload).unwrap()
}

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// The fault plans the acceptance criteria pin: a clean medium and the
/// PR 6-style lossy plan (loss + corruption + duplication, no extra delay so
/// every retry still lands within the round's watermark horizon).
fn fault_plans() -> [FaultConfig; 2] {
    [
        FaultConfig::none(),
        FaultConfig {
            loss: 0.25,
            corrupt: 0.15,
            duplicate: 0.1,
            ..FaultConfig::none()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For every sampled workload, both kernel backends, both fault plans,
    /// single-shard and {1, 4}-sharded servers: the streaming event driver
    /// (lockstep timing, one watermark per cadence) == the barrier event
    /// driver, bit for bit — full outcome equality plus per-station feedback
    /// bytes.
    #[test]
    fn prop_streaming_close_is_bit_exact_with_barrier(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..6,
    ) {
        let m = model(seed.wrapping_add(911));
        let cfg = SimConfig {
            stations: 6,
            rounds: 3,
            bits_per_value: bits,
            drop_every,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        for choice in kernel_choices() {
            with_kernel(choice, || {
                for faults in fault_plans() {
                    let mut barrier_cfg = EventConfig::lockstep();
                    barrier_cfg.faults = faults;
                    if faults != FaultConfig::none() {
                        barrier_cfg.max_retries = 2;
                        barrier_cfg.retry_backoff_ns = 100_000;
                    }
                    let mut streaming_cfg = barrier_cfg;
                    streaming_cfg.streaming = true;

                    let mut barrier =
                        build_event_driver(m.clone(), cfg.stations, bits, barrier_cfg, None);
                    let want =
                        serve_traffic(&mut barrier, &traffic, ServeMode::Batched).unwrap();
                    let mut streaming =
                        build_event_driver(m.clone(), cfg.stations, bits, streaming_cfg, None);
                    let got =
                        serve_traffic(&mut streaming, &traffic, ServeMode::Batched).unwrap();
                    prop_assert_eq!(&got, &want,
                        "single shard, {:?}, faults {:?}", choice, faults);
                    for id in 0..traffic.max_station_id {
                        prop_assert_eq!(
                            streaming.feedback_of(id),
                            barrier.feedback_of(id),
                            "station {} feedback, {:?}", id, choice
                        );
                    }

                    for shards in SHARD_COUNTS {
                        let mut barrier = build_sharded_event_driver(
                            m.clone(), cfg.stations, bits, shards, barrier_cfg, None);
                        let want =
                            serve_traffic(&mut barrier, &traffic, ServeMode::Batched).unwrap();
                        let mut streaming = build_sharded_event_driver(
                            m.clone(), cfg.stations, bits, shards, streaming_cfg, None);
                        let got =
                            serve_traffic(&mut streaming, &traffic, ServeMode::Batched).unwrap();
                        prop_assert_eq!(&got, &want,
                            "{} shards, {:?}, faults {:?}", shards, choice, faults);
                        for id in 0..traffic.max_station_id {
                            prop_assert_eq!(
                                streaming.feedback_of(id),
                                barrier.feedback_of(id),
                                "{} shards, station {}, {:?}", shards, id, choice
                            );
                        }
                    }
                }
            });
        }
    }
}

/// The non-event streaming path is the degenerate case too: `serve_traffic`
/// with `ServeMode::Streaming` on a streaming-ingest server equals the
/// batched and serial lockstep drivers bit-exactly.
#[test]
fn plain_streaming_mode_matches_batched_and_serial() {
    // Sibling tests flip the process-global kernel override; hold the lock
    // so every server in this comparison runs the same kernel.
    with_kernel(KernelChoice::Auto, || {
        let m = model(101);
        let cfg = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: 6,
            drop_every: 3,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let mut batched = build_server(m.clone(), cfg.stations, cfg.bits_per_value);
        let want = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
        let mut serial = build_server(m.clone(), cfg.stations, cfg.bits_per_value);
        let want_serial = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
        assert_eq!(want, want_serial);

        let mut streaming = build_server(m.clone(), cfg.stations, cfg.bits_per_value);
        streaming.set_streaming(true);
        let got = serve_traffic(&mut streaming, &traffic, ServeMode::Streaming).unwrap();
        assert_eq!(got, want, "plain streaming must equal the barrier closes");
        for id in 0..traffic.max_station_id {
            assert_eq!(streaming.feedback_of(id), batched.feedback_of(id));
        }

        let mut sharded = build_sharded_server(m, cfg.stations, cfg.bits_per_value, 4);
        sharded.set_streaming(true);
        let got = serve_traffic(&mut sharded, &traffic, ServeMode::Streaming).unwrap();
        assert_eq!(got.total_served(), want.total_served());
        for id in 0..traffic.max_station_id {
            assert_eq!(sharded.feedback_of(id), batched.feedback_of(id));
        }
    });
}

/// The headline property of killing the barrier: a deliberately stalled
/// shard leaves every *other* shard's deadline-hit rate untouched under
/// streaming closes, while the barrier close drags every shard down with
/// the slowest one.
#[test]
fn stalled_shard_does_not_degrade_other_shards_under_streaming() {
    // The three runs compare feedback bytes; hold the kernel lock so a
    // sibling test cannot flip the kernel between them.
    with_kernel(KernelChoice::Auto, || {
        let m = model(201);
        let bits = 6u8;
        let stations = 8u64;
        let policy = DeadlinePolicy::eq7d();
        // 15 ms of close lag on a 10 ms budget + 10 ms grace: stalled reports
        // classify late, not expired.
        let stall_ns = 15_000_000u64;

        let build = |streaming: bool, stall: bool| {
            let mut server = ShardedApServer::new(4);
            let key = server.register_model(m.clone());
            for id in 0..stations {
                server.register_station(id, key, bits).unwrap();
            }
            server.set_streaming(streaming);
            if stall {
                server.set_shard_stall_ns(0, stall_ns);
            }
            for id in 0..stations {
                let frame = station_frame(&m, 4000 + id, bits);
                server
                    .ingest_wire_at(id, &frame, FrameStamp::default())
                    .unwrap();
            }
            server
        };

        // Barrier, stalled shard 0: the whole round waits for the slowest shard,
        // so every report on every shard pays the 15 ms lag and lands late.
        let mut barrier = build(false, true);
        let summary = barrier.process_round_deadline(policy).unwrap();
        assert_eq!(summary.served, stations as usize);
        assert_eq!(
            (summary.on_time, summary.late),
            (0, stations as usize),
            "the barrier must couple every shard to the stalled one"
        );
        for stats in barrier.shard_round_stats() {
            assert_eq!(stats.on_time, 0);
        }

        // Streaming, stalled shard 0: only shard 0's own reports pay its stall.
        let mut streaming = build(true, true);
        let summary = streaming.finalize_stream_round(Some(policy)).unwrap();
        assert_eq!(summary.served, stations as usize);
        assert_eq!((summary.on_time, summary.late), (6, 2));
        let stats = streaming.shard_round_stats();
        assert_eq!((stats[0].on_time, stats[0].late), (0, 2), "stalled shard");
        for (idx, s) in stats.iter().enumerate().skip(1) {
            assert_eq!((s.on_time, s.late), (2, 0), "healthy shard {idx}");
        }

        // The unstalled streaming run is the reference: healthy shards in the
        // stalled run match it exactly.
        let mut clean = build(true, false);
        let clean_summary = clean.finalize_stream_round(Some(policy)).unwrap();
        assert_eq!(clean_summary.on_time, stations as usize);
        for (idx, s) in clean.shard_round_stats().iter().enumerate().skip(1) {
            assert_eq!(*s, stats[idx]);
        }

        // Feedback bytes are identical across all three runs — lateness is an
        // accounting outcome, not a content change.
        for id in 0..stations {
            assert_eq!(streaming.feedback_of(id), barrier.feedback_of(id));
            assert_eq!(streaming.feedback_of(id), clean.feedback_of(id));
        }
    });
}

/// Satellite regression: shards with zero pending frames (an empty
/// micro-batch round) contribute their true `awaiting_first_report` count —
/// identical to the barrier close — even when other shards micro-closed
/// mid-round. No phantom counts from the incremental fold.
#[test]
fn empty_shard_micro_batches_do_not_inflate_awaiting_counts() {
    let m = model(301);
    let bits = 5u8;
    let policy = DeadlinePolicy::eq7d();

    let build = |streaming: bool| {
        let mut server = ShardedApServer::new(4);
        let key = server.register_model(m.clone());
        for id in 0..8u64 {
            server.register_station(id, key, bits).unwrap();
        }
        server.set_streaming(streaming);
        // Traffic only for shards 0 and 1 (ids 0,1,4,5); shards 2 and 3 stay
        // silent, each holding two never-reported stations.
        for id in [0u64, 1, 4, 5] {
            let frame = station_frame(&m, 5000 + id, bits);
            let stamp = FrameStamp {
                arrival_ns: 1_000_000,
                ..FrameStamp::default()
            };
            server.ingest_wire_at(id, &frame, stamp).unwrap();
        }
        server
    };

    let mut barrier = build(false);
    let want = barrier.process_round_deadline(policy).unwrap();
    assert_eq!(want.awaiting_first_report, 4);
    assert_eq!(want.shards_with_traffic, 2);

    let mut streaming = build(true);
    // Mid-round watermark: arrival 1 ms -> service deadline 11 ms, so the
    // 11 ms watermark (step 1 ms) micro-closes shards 0 and 1; shards 2 and
    // 3 see an empty micro-batch check every tick.
    for tick in 1..=11u64 {
        streaming.advance_watermark(tick * 1_000_000, 1_000_000, Some(policy));
    }
    let got = streaming.finalize_stream_round(Some(policy)).unwrap();
    assert_eq!(got.served, want.served);
    assert_eq!(got.awaiting_first_report, want.awaiting_first_report);
    assert_eq!(got.stale, want.stale);
    assert_eq!(got.shards_with_traffic, want.shards_with_traffic);
    let stats = streaming.shard_round_stats();
    assert!(
        stats[0].micro_closes >= 1 && stats[1].micro_closes >= 1,
        "traffic shards must have micro-closed mid-round: {stats:?}"
    );
    assert_eq!(stats[2].micro_closes, 0);
    assert_eq!(stats[3].micro_closes, 0);
}

/// A full streaming ring rejects ingest with `ServeError::Backpressure`
/// instead of silently overwriting queued feedback, and the failed ingest
/// leaves session state untouched.
#[test]
fn full_ring_rejects_with_backpressure() {
    let m = model(401);
    let bits = 4u8;
    let mut server = ApServer::new();
    let key = server.register_model(m.clone());
    server.register_station(7, key, bits).unwrap();
    server.set_streaming(true);
    server.set_stream_capacity(2);

    for seed in 0..2u64 {
        let frame = station_frame(&m, 6000 + seed, bits);
        server.ingest_wire(7, &frame).unwrap();
    }
    assert_eq!(server.session(7).unwrap().stream_inflight(), 2);
    let overflow = station_frame(&m, 6002, bits);
    assert_eq!(
        server.ingest_wire(7, &overflow),
        Err(ServeError::Backpressure(7, 2))
    );
    assert_eq!(
        server.session(7).unwrap().stream_inflight(),
        2,
        "a rejected ingest must not touch session counters"
    );

    // The queued frames still serve normally: last committed wins.
    let summary = server.process_round_streaming(None).unwrap();
    assert_eq!(summary.served, 1);
    assert_eq!(server.session(7).unwrap().stream_inflight(), 0);
    assert!(server.feedback_of(7).is_some());
}

/// A genuinely streaming round: two reports with staggered births close in
/// two separate watermark-triggered micro-batches, and the round summary
/// still folds up correctly.
#[test]
fn staggered_births_close_in_multiple_micro_batches() {
    let m = model(501);
    let bits = 6u8;
    let policy = DeadlinePolicy::eq7d();
    let mut server = ApServer::new();
    let key = server.register_model(m.clone());
    server.register_station(0, key, bits).unwrap();
    server.register_station(1, key, bits).unwrap();
    server.set_streaming(true);

    // Station 0 born at 1 ms (service deadline 11 ms), station 1 born at
    // 14 ms (service deadline 24 ms).
    let early = FrameStamp {
        arrival_ns: 1_000_000,
        ..FrameStamp::default()
    };
    let late = FrameStamp {
        arrival_ns: 14_000_000,
        ..FrameStamp::default()
    };
    server
        .ingest_wire_at(0, &station_frame(&m, 7000, bits), early)
        .unwrap();
    server
        .ingest_wire_at(1, &station_frame(&m, 7001, bits), late)
        .unwrap();

    for tick in 1..=25u64 {
        server.advance_watermark(tick * 1_000_000, 1_000_000, Some(policy));
    }
    // Station 0 was served by the 11 ms watermark — its feedback is already
    // visible mid-round, before the round close.
    assert!(server.feedback_of(0).is_some());
    let summary = server.process_round_streaming(Some(policy)).unwrap();
    assert_eq!(server.last_micro_closes(), 2, "two separate micro-closes");
    assert_eq!(summary.served, 2);
    assert_eq!(summary.batches, 2);
    assert_eq!(summary.on_time, 2);
    assert!(server.feedback_of(1).is_some());
}
