//! Allocation sentinel over the serving hot paths.
//!
//! The serving stack claims zero steady-state heap traffic once its pools
//! are warm: barrier ingest→round close, streaming ingest→micro-batch
//! close→round close, the fused batched tail, and the int8 tail. This
//! binary registers the counting allocator, warms each path until every
//! arena/scratch/cache has reached its steady shape, then re-runs the same
//! operations under [`assert_no_alloc`].
//!
//! One `#[test]` only: the counters are process-global and the libtest
//! harness spawns an allocating thread per test. Run with
//! `RAYON_NUM_THREADS=1` so the rayon shim stays serial — a `thread::scope`
//! spawn inside a scope would be charged to the hot path.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::fused::{TailScratch, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam_analysis::alloc_sentinel::{assert_counting, assert_no_alloc, CountingAlloc};
use splitbeam_serve::server::{ApServer, ServeMode};
use splitbeam_serve::timing::FrameStamp;
use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARM_ROUNDS: u64 = 3;
const BITS: u8 = 4;

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

fn wire_frame(model: &SplitBeamModel, seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let payload = model.compress_quantized(&csi, BITS).unwrap();
    wire::encode_feedback(&payload).unwrap()
}

fn barrier_server(model: &SplitBeamModel, weights: TailWeights, stations: u64) -> ApServer {
    let mut server = ApServer::new();
    server.set_tail_weights(weights);
    let key = server.register_model(model.clone());
    for id in 0..stations {
        server.register_station(id, key, BITS).unwrap();
    }
    server
}

/// Stations on the barrier path: seven reports make one round's batch a
/// 4-row GEMM panel plus a 3-row remainder panel.
const BARRIER_STATIONS: u64 = 7;

/// Barrier serving: after warm-up rounds have sized the decode buffer, the
/// round arena, and the tail scratch, a full ingest + round close must not
/// touch the heap.
fn barrier_path(model: &SplitBeamModel, weights: TailWeights, label_prefix: &str) {
    let frames: Vec<Vec<u8>> = (0..BARRIER_STATIONS)
        .map(|s| wire_frame(model, 100 + s))
        .collect();
    let mut server = barrier_server(model, weights, frames.len() as u64);
    for _ in 0..WARM_ROUNDS {
        for (id, frame) in frames.iter().enumerate() {
            server.ingest_wire(id as u64, frame).unwrap();
        }
        server.process_round().unwrap();
    }
    assert_no_alloc(&format!("{label_prefix}: wire ingest"), || {
        for (id, frame) in frames.iter().enumerate() {
            server.ingest_wire(id as u64, frame).unwrap();
        }
    });
    let summary = assert_no_alloc(&format!("{label_prefix}: round close"), || {
        server.process_round().unwrap()
    });
    assert_eq!(summary.served, frames.len());
}

/// Streaming serving: ingest with a stamp, force a watermark micro-close,
/// then close the round — all allocation-free once warm.
fn streaming_path(model: &SplitBeamModel) {
    let frame = wire_frame(model, 200);
    let mut server = barrier_server(model, TailWeights::F32, 1);
    server.set_streaming(true);
    // The default deadline policy (eq. 7d) gives each frame a 10 ms service
    // budget from its sounding birth; 20 ms rounds keep virtual time
    // monotone across the watermark advances.
    let round_ns: u64 = 20_000_000;
    let budget_ns: u64 = 10_000_000;
    let run = |server: &mut ApServer, round: u64| {
        let base = round * round_ns;
        let stamp = FrameStamp {
            arrival_ns: base,
            ..FrameStamp::default()
        };
        server.ingest_wire_at(0, &frame, stamp).unwrap();
        // A watermark the frame's deadline can no longer outrun forces the
        // micro-batch close here rather than at the round barrier.
        server.advance_watermark(base + budget_ns, budget_ns / 10, None);
        let summary = server.close(ServeMode::Streaming, None).unwrap();
        assert_eq!(summary.served, 1);
        assert_eq!(
            server.shard_round_stats()[0].micro_closes,
            1,
            "watermark did not micro-close"
        );
    };
    for round in 0..WARM_ROUNDS {
        run(&mut server, round);
    }
    assert_no_alloc("streaming: ingest + watermark close + round close", || {
        run(&mut server, WARM_ROUNDS);
    });
}

/// The fused batched tail driven directly: a reused [`TailScratch`] absorbs
/// every intermediate, so repeat reconstructions are allocation-free.
fn fused_tail_path(model: &SplitBeamModel) {
    let mut rng = ChaCha8Rng::seed_from_u64(300);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let payloads: Vec<_> = (0..3)
        .map(|_| {
            let csi: Vec<f32> = channel
                .sample(&mut rng)
                .csi_real_vector(0)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            model.compress_quantized(&csi, BITS).unwrap()
        })
        .collect();
    let refs: Vec<&_> = payloads.iter().collect();
    let mut scratch = TailScratch::new();
    for _ in 0..WARM_ROUNDS {
        model
            .reconstruct_quantized_batch_into(&refs, &mut scratch)
            .unwrap();
    }
    assert_no_alloc("fused tail: batched reconstruct into warm scratch", || {
        let out = model
            .reconstruct_quantized_batch_into(&refs, &mut scratch)
            .unwrap();
        assert_eq!(out.rows(), payloads.len());
    });
}

#[test]
fn hot_paths_do_not_allocate_after_warmup() {
    assert_counting();
    let model = small_model(1);
    // Force kernel selection/autotune (which allocates probe buffers) before
    // any sentinel scope opens.
    fused_tail_path(&model);
    barrier_path(&model, TailWeights::F32, "barrier f32");
    barrier_path(&model, TailWeights::Int8, "barrier int8");
    streaming_path(&model);
}
