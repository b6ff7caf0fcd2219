//! Robustness suite for the fault-injection layer: a deterministic fuzz
//! harness (seeded shims RNG, no cargo-fuzz) over the wire codec and every
//! server flavor's ingest path, plus the two determinism anchors the fault
//! work must preserve:
//!
//! * **zero-fault parity** — an event driver whose `FaultInjector` is
//!   configured but inactive (and whose retry machinery is armed) stays
//!   bit-exact with the legacy lockstep/batched/serial/sharded drivers,
//! * **fault-plan determinism** — the same seed and the same fault plan
//!   produce identical `RoundSummary` streams across batched/serial/sharded
//!   {1, 4} flavors and both `SPLITBEAM_KERNEL` backends.
//!
//! The kernel override is process-global, so kernel-pinning tests serialize
//! on one mutex and restore default dispatch before returning (same pattern
//! as `event_parity`).

use mimo_math::kernel::{avx2_fma_available, set_kernel, KernelChoice};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam::SplitBeamError;
use splitbeam_hwsim::fault::FaultConfig;
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, RoundServing, ServeMode, SimConfig,
};
use splitbeam_serve::event::{build_event_driver, EventConfig};
use splitbeam_serve::{RoundSummary, ServeError};
use std::sync::Mutex;
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

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

/// Fuzz iteration budget: ≥ 100k frames by default, tunable for quick local
/// runs or CI via `SPLITBEAM_FUZZ_FRAMES`.
fn fuzz_budget() -> usize {
    std::env::var("SPLITBEAM_FUZZ_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// One fuzzed frame: arbitrary bytes, or a valid v2 frame put through
/// truncation, bit flips, or header mutation.
fn mutate_frame(rng: &mut ChaCha8Rng, valid: &[Vec<u8>]) -> Vec<u8> {
    match rng.gen_range(0u32..4) {
        // Arbitrary bytes, length 0..192.
        0 => {
            let len = rng.gen_range(0usize..192);
            let mut frame = vec![0u8; len];
            rng.fill_bytes(&mut frame);
            frame
        }
        // Truncation (possibly to zero) of a valid frame.
        1 => {
            let base = &valid[rng.gen_range(0..valid.len())];
            let len = rng.gen_range(0..base.len());
            base[..len].to_vec()
        }
        // 1..=8 random bit flips anywhere in a valid frame.
        2 => {
            let mut frame = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(1usize..=8) {
                let bit = rng.gen_range(0..frame.len() * 8);
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            frame
        }
        // Header-targeted mutation: rewrite 1..=4 of the first 14 bytes.
        _ => {
            let mut frame = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(1usize..=4) {
                let idx = rng.gen_range(0..frame.len().min(14));
                frame[idx] = rng.gen_range(0u32..256) as u8;
            }
            frame
        }
    }
}

/// ≥ 100k deterministic mutated/arbitrary frames through `decode_feedback`
/// and `ingest_wire` on every server flavor: no panics, every corrupted
/// CRC-bearing (v2) frame is rejected, and the error taxonomy stays within
/// the documented `SplitBeamError`/`ServeError` variants.
#[test]
fn fuzz_decode_and_ingest_survive_hostile_frames() {
    let m = model(606);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0f5a_2e11);
    // A pool of valid frames (varied widths) for mutation to start from.
    let mut valid = Vec::new();
    for (seed, bits) in [(1u64, 4u8), (2, 6), (3, 8), (4, 12)] {
        let mut crng = ChaCha8Rng::seed_from_u64(seed);
        let channel = wifi_phy::channel::ChannelModel::new(
            wifi_phy::channel::EnvironmentProfile::e1(),
            Bandwidth::Mhz20,
            2,
            1,
            1,
        );
        let csi: Vec<f32> = channel
            .sample(&mut crng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = m.compress_quantized(&csi, bits).unwrap();
        valid.push(wire::encode_feedback(&payload).unwrap());
    }

    // The one server type at 1 and 4 shards: batched and serial closes
    // share one ingest path.
    let mut servers = [
        build_server(m.clone(), 2, 8, 1),
        build_server(m.clone(), 2, 8, 4),
    ];

    let budget = fuzz_budget();
    let mut rejected_corrupt = 0usize;
    let mut decoded_ok = 0usize;
    for i in 0..budget {
        let frame = mutate_frame(&mut rng, &valid);
        let is_pristine = valid.iter().any(|v| v == &frame);

        // Decode taxonomy: a damaged v2 frame must never decode.
        match wire::decode_feedback(&frame) {
            Ok(_) => {
                decoded_ok += 1;
                assert!(
                    frame.first() != Some(&0xB5) || is_pristine,
                    "corrupted CRC-bearing frame decoded at iteration {i}: {frame:?}"
                );
            }
            Err(SplitBeamError::CorruptFrame(_)) => {
                rejected_corrupt += 1;
                assert_eq!(
                    frame.first(),
                    Some(&0xB5),
                    "CorruptFrame is reserved for CRC-bearing v2 frames"
                );
            }
            Err(SplitBeamError::DimensionMismatch(_)) => {}
            Err(other) => panic!("unexpected decode error class at iteration {i}: {other}"),
        }

        // Ingest at every shard count: must not panic, must stay within the
        // serve error taxonomy, and must keep the session machinery alive.
        let id = (i % 2) as u64;
        for server in servers.iter_mut() {
            match server.ingest_wire(id, &frame) {
                Ok(_) => {}
                Err(
                    ServeError::Corrupt(_, _)
                    | ServeError::Codec(_)
                    | ServeError::Quarantined(_)
                    | ServeError::DuplicateFrame(_, _),
                ) => {}
                Err(other) => panic!("unexpected ingest error at iteration {i}: {other}"),
            }
        }
        // Close rounds periodically so quarantine windows open *and* expire
        // under fire.
        if i % 257 == 0 {
            for server in servers.iter_mut() {
                server.close(ServeMode::Batched, None).unwrap();
            }
        }
    }
    assert!(
        rejected_corrupt > budget / 20,
        "the mutation mix must exercise CRC rejection ({rejected_corrupt}/{budget})"
    );
    assert!(decoded_ok > 0, "pristine frames in the mix must decode");

    // The servers are still serviceable after the bombardment: a clean frame
    // is either accepted or (legitimately) refused because the fuzz run
    // quarantined the station.
    for server in servers.iter_mut() {
        let result = server.ingest_wire(0, &valid[0]);
        assert!(
            matches!(result, Ok(_) | Err(ServeError::Quarantined(_))),
            "server no longer serviceable after fuzzing: {result:?}"
        );
    }
}

/// The fault-relevant projection of a summary stream, for comparison across
/// flavors whose non-fault bookkeeping (e.g. eviction counters) may
/// legitimately differ in representation.
#[allow(clippy::type_complexity)]
fn fault_profile(
    summaries: &[RoundSummary],
) -> Vec<(u64, usize, usize, usize, usize, usize, usize, usize)> {
    summaries
        .iter()
        .map(|s| {
            (
                s.round,
                s.served,
                s.stale,
                s.lost,
                s.corrupt,
                s.retransmitted,
                s.stale_served,
                s.on_time + s.late + s.expired,
            )
        })
        .collect()
}

/// Same seed + same fault plan → identical `RoundSummary` streams across
/// batched/serial/sharded {1, 4} and both kernel backends.
#[test]
fn fault_plan_is_deterministic_across_flavors_and_kernels() {
    let m = model(707);
    let cfg = SimConfig {
        stations: 6,
        rounds: 5,
        bits_per_value: 6,
        drop_every: 0,
        ..SimConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(708);
    let traffic = generate_traffic(&cfg, &m, &mut rng);
    let event_cfg = EventConfig {
        feedback_rate_mbps: Some(24.0),
        seed: 909,
        faults: FaultConfig {
            loss: 0.2,
            corrupt: 0.1,
            duplicate: 0.05,
            burst: Some(splitbeam_hwsim::fault::GilbertElliott {
                p_enter_bad: 0.1,
                p_exit_bad: 0.4,
                loss_good: 0.01,
                loss_bad: 0.6,
            }),
            ..FaultConfig::none()
        },
        max_retries: 2,
        retry_backoff_ns: 50_000,
        ..EventConfig::lockstep()
    };

    let mut reference: Option<Vec<_>> = None;
    for choice in kernel_choices() {
        with_kernel(choice, || {
            let mut batched = build_event_driver(
                m.clone(),
                cfg.stations,
                cfg.bits_per_value,
                1,
                event_cfg,
                None,
            );
            let got_batched = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
            let mut serial = build_event_driver(
                m.clone(),
                cfg.stations,
                cfg.bits_per_value,
                1,
                event_cfg,
                None,
            );
            let got_serial = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
            // Batched and serial closes are fully bit-exact under faults.
            assert_eq!(got_batched, got_serial, "batched vs serial, {choice:?}");
            assert_eq!(batched.fault_stats(), serial.fault_stats());

            let profile = fault_profile(&got_batched.summaries);
            for shards in [1usize, 4] {
                let mut sharded = build_event_driver(
                    m.clone(),
                    cfg.stations,
                    cfg.bits_per_value,
                    shards,
                    event_cfg,
                    None,
                );
                let got = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
                assert_eq!(
                    fault_profile(&got.summaries),
                    profile,
                    "{shards} shards vs single-shard, {choice:?}"
                );
                assert_eq!(
                    sharded.fault_stats(),
                    batched.fault_stats(),
                    "{shards} shards fault stats, {choice:?}"
                );
            }
            // And across kernels the whole stream is identical.
            match &reference {
                Some(want) => assert_eq!(&profile, want, "kernel {choice:?} diverged"),
                None => reference = Some(profile),
            }
        });
    }
    let profile = reference.expect("at least the scalar kernel ran");
    let injected: usize = profile.iter().map(|row| row.3 + row.4).sum();
    assert!(injected > 0, "the fault plan must actually disrupt the run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Zero-fault parity: an event driver with the fault machinery *armed*
    /// (retries configured, injector constructed) but a `FaultConfig::none()`
    /// plan is bit-exact with the PR 5 lockstep drivers — legacy batched,
    /// legacy serial, and sharded {1, 4} — under both kernel backends.
    #[test]
    fn prop_zero_fault_injector_is_bit_exact_with_pr5_drivers(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..5,
        max_retries in 0u32..4,
    ) {
        let m = model(seed.wrapping_add(811));
        let cfg = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: bits,
            drop_every,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let event_cfg = EventConfig {
            faults: FaultConfig::none(),
            max_retries,
            retry_backoff_ns: 100_000,
            seed,
            ..EventConfig::lockstep()
        };
        for choice in kernel_choices() {
            with_kernel(choice, || {
                let mut batched = build_server(m.clone(), cfg.stations, bits, 1);
                let want = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
                let mut serial = build_server(m.clone(), cfg.stations, bits, 1);
                let want_serial = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
                prop_assert_eq!(&want, &want_serial);

                let mut event =
                    build_event_driver(m.clone(), cfg.stations, bits, 1, event_cfg, None);
                let got = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
                prop_assert_eq!(&got, &want, "armed-but-inactive injector, {:?}", choice);
                let stats = event.fault_stats();
                prop_assert_eq!(
                    (stats.lost, stats.corrupted, stats.duplicated, stats.delayed),
                    (0, 0, 0, 0)
                );
                for id in 0..traffic.max_station_id {
                    prop_assert_eq!(event.feedback_of(id), batched.feedback_of(id));
                }
                for shards in [1usize, 4] {
                    let mut legacy =
                        build_server(m.clone(), cfg.stations, bits, shards);
                    let want_sharded =
                        serve_traffic(&mut legacy, &traffic, ServeMode::Batched).unwrap();
                    let mut sharded = build_event_driver(
                        m.clone(), cfg.stations, bits, shards, event_cfg, None);
                    let got =
                        serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
                    prop_assert_eq!(&got, &want_sharded,
                        "{} shards, {:?}", shards, choice);
                    for id in 0..traffic.max_station_id {
                        prop_assert_eq!(sharded.feedback_of(id), batched.feedback_of(id));
                    }
                }
            });
        }
    }
}
