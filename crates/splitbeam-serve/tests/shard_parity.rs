//! Property tests: sharded round processing is bit-exact with single-shard
//! batched and serial serving across shard counts, churn patterns and both
//! kernel backends.
//!
//! The kernel override is process-global, so every kernel-pinning test here
//! serializes on one mutex and restores the default before returning (the
//! same pattern as the workspace-level `kernel_dispatch` suite).

use mimo_math::kernel::{avx2_fma_available, set_kernel, KernelChoice};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam_serve::driver::{
    build_server, build_sharded_server, generate_traffic, serve_traffic, ChurnConfig, ServeMode,
    SimConfig,
};
use std::sync::Mutex;
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

/// The shard counts the acceptance criteria pin.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every sampled churn pattern and both kernel backends: sharded
    /// parallel serving == single-shard batched == station-at-a-time serial,
    /// bit for bit, at shard counts {1, 2, 4, 7}.
    #[test]
    fn prop_sharded_matches_batched_and_serial(
        seed in 0u64..1000,
        bits in 2u8..=12,
        drop_every in 0usize..6,
        join_every in 0usize..4,
        leave_every in 0usize..4,
        burst_every in 0usize..4,
    ) {
        let m = model(seed.wrapping_add(101));
        let cfg = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: bits,
            drop_every,
            snr_db: 25.0,
            churn: ChurnConfig { join_every, leave_every, burst_every },
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        for choice in kernel_choices() {
            with_kernel(choice, || {
                let mut batched = build_server(m.clone(), cfg.stations, bits);
                let mut serial = build_server(m.clone(), cfg.stations, bits);
                let b = serve_traffic(&mut batched, &traffic, ServeMode::Batched).unwrap();
                let s = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
                prop_assert_eq!(&b, &s, "batched vs serial summaries ({:?})", choice);
                for &shards in &SHARD_COUNTS {
                    let mut sharded =
                        build_sharded_server(m.clone(), cfg.stations, bits, shards);
                    let o = serve_traffic(&mut sharded, &traffic, ServeMode::Batched).unwrap();
                    prop_assert_eq!(o.total_served(), b.total_served());
                    for (got, want) in o.summaries.iter().zip(b.summaries.iter()) {
                        prop_assert_eq!(got.round, want.round);
                        prop_assert_eq!(got.served, want.served);
                        prop_assert_eq!(got.stale, want.stale);
                        prop_assert_eq!(
                            got.awaiting_first_report,
                            want.awaiting_first_report
                        );
                    }
                    for id in 0..traffic.max_station_id {
                        prop_assert_eq!(
                            sharded.feedback_of(id),
                            batched.feedback_of(id),
                            "{} shards, station {} ({:?})", shards, id, choice
                        );
                        prop_assert_eq!(
                            sharded.feedback_of(id),
                            serial.feedback_of(id),
                            "{} shards vs serial, station {} ({:?})", shards, id, choice
                        );
                    }
                }
            });
        }
    }

    /// The sharded serial reference (per-shard station-at-a-time close) is
    /// bit-exact with sharded parallel batched serving under churn.
    #[test]
    fn prop_sharded_serial_mode_matches_batched_mode(
        seed in 0u64..1000,
        shards_sel in 0usize..4,
        drop_every in 0usize..5,
    ) {
        let shards = SHARD_COUNTS[shards_sel];
        let m = model(seed.wrapping_add(301));
        let cfg = SimConfig {
            stations: 6,
            rounds: 3,
            bits_per_value: 4,
            drop_every,
            snr_db: 25.0,
            churn: ChurnConfig { join_every: 2, leave_every: 0, burst_every: 3 },
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        // Sibling tests flip the process-global kernel override; hold the
        // lock so both servers run the same kernel.
        with_kernel(KernelChoice::Auto, || {
            let mut parallel = build_sharded_server(m.clone(), cfg.stations, 4, shards);
            let mut serial = build_sharded_server(m.clone(), cfg.stations, 4, shards);
            let p = serve_traffic(&mut parallel, &traffic, ServeMode::Batched).unwrap();
            let s = serve_traffic(&mut serial, &traffic, ServeMode::Serial).unwrap();
            prop_assert_eq!(p.total_served(), s.total_served());
            for id in 0..traffic.max_station_id {
                prop_assert_eq!(parallel.feedback_of(id), serial.feedback_of(id));
            }
        });
    }
}

/// Eviction/re-registration state transitions hold at every shard count.
#[test]
fn eviction_and_reregistration_transitions_across_shard_counts() {
    let m = model(77);
    for &shards in &SHARD_COUNTS {
        let mut server = build_sharded_server(m.clone(), 6, 4, shards);
        server.set_max_idle_rounds(Some(0));
        let cfg = SimConfig {
            stations: 6,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 4,
            snr_db: 25.0,
            churn: ChurnConfig::none(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let outcome = serve_traffic(&mut server, &traffic, ServeMode::Batched).unwrap();
        // With a zero idle budget, every dropped report leads to an eviction
        // and the station's next frame re-associates it.
        assert!(
            outcome.reassociations > 0,
            "{shards} shards: drops must force re-association"
        );
        // Re-registered sessions are fresh: anyone present now either
        // reported this round or just re-joined.
        for session in server.sessions() {
            assert!(
                session.idle_rounds(server.current_round().saturating_sub(1)) == 0,
                "{shards} shards: survivor must be fresh"
            );
        }
    }
}
