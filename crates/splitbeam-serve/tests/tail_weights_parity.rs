//! Correctness anchors of the low-precision tail serving path.
//!
//! Two guarantees, each checked under both `SPLITBEAM_KERNEL` backends:
//!
//! * **f32 is untouched** — with `SPLITBEAM_TAIL_WEIGHTS=f32` (and by
//!   default), every serving flavor reproduces the direct
//!   [`SplitBeamModel::reconstruct_quantized`] output bit-for-bit, i.e. the
//!   serving results of the pre-quantization servers.
//! * **int8 is one answer** — under [`TailWeights::Int8`], batched, serial,
//!   sharded and streaming closes all produce bit-identical feedback, equal
//!   to the scalar int8 reference reconstruction, regardless of which SIMD
//!   tier actually ran.
//!
//! The kernel override and the environment are process-global, so every test
//! serializes on one mutex and restores defaults before returning.

use mimo_math::kernel::{avx2_fma_available, set_kernel, KernelChoice};
use mimo_math::Int8Kernel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::{QuantizedTail, TailWeights};
use splitbeam_serve::server::{ApServer, ServeMode};
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
            std::env::remove_var("SPLITBEAM_TAIL_WEIGHTS");
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

/// One station's traffic: the validated payload (for direct reconstruction)
/// and its wire frame (for server ingest).
fn station_traffic(model: &SplitBeamModel, seed: u64, bits: u8) -> (QuantizedFeedback, Vec<u8>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
    let csi: Vec<f32> = channel
        .sample(&mut rng)
        .csi_real_vector(0)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let payload = model.compress_quantized(&csi, bits).unwrap();
    let frame = splitbeam::wire::encode_feedback(&payload).unwrap();
    (payload, frame)
}

#[test]
fn f32_knob_serving_reproduces_direct_reconstruction_under_both_kernels() {
    let m = model(51);
    let stations = 6u64;
    let bits = 6u8;
    for choice in kernel_choices() {
        with_kernel(choice, || {
            // The env knob spelled out, as CI sets it; `ApServer::new` reads it.
            std::env::set_var("SPLITBEAM_TAIL_WEIGHTS", "f32");
            let mut batched = ApServer::new();
            let mut serial = ApServer::new();
            assert_eq!(batched.tail_weights(), TailWeights::F32);
            let bkey = batched.register_model(m.clone());
            let skey = serial.register_model(m.clone());
            let mut expected = Vec::new();
            for id in 0..stations {
                batched.register_station(id, bkey, bits).unwrap();
                serial.register_station(id, skey, bits).unwrap();
                let (payload, frame) = station_traffic(&m, 300 + id, bits);
                batched.ingest_wire(id, &frame).unwrap();
                serial.ingest_wire(id, &frame).unwrap();
                // The pre-serving-layer ground truth: the model's own unfused
                // reconstruction of the same payload.
                expected.push(m.reconstruct_quantized(&payload).unwrap());
            }
            batched.process_round().unwrap();
            serial.process_round_serial().unwrap();
            for id in 0..stations {
                let want = expected[id as usize].as_slice();
                assert_eq!(
                    batched.feedback_of(id),
                    Some(want),
                    "kernel {choice:?}, station {id}: f32 batched serving must \
                     be bit-exact with direct model reconstruction"
                );
                assert_eq!(
                    serial.feedback_of(id),
                    Some(want),
                    "kernel {choice:?}, station {id}: f32 serial serving must \
                     be bit-exact with direct model reconstruction"
                );
            }
        });
    }
}

#[test]
fn int8_serving_is_bit_exact_across_all_close_paths() {
    let m = model(53);
    let stations = 7u64;
    let bits = 7u8;
    // Traffic is generated ONCE — the head compression runs the f32 kernel,
    // which is deterministic per backend but not identical across backends,
    // so the same frame bytes must be replayed under every kernel pin. The
    // scalar int8 reference of those payloads is what every backend and every
    // serving flavor must reproduce bit-for-bit.
    let reference_tail = QuantizedTail::bind(&m);
    let mut frames = Vec::new();
    let mut reference = Vec::new();
    for id in 0..stations {
        let (payload, frame) = station_traffic(&m, 400 + id, bits);
        frames.push(frame);
        reference.push(
            reference_tail
                .reconstruct_quantized(&payload, Int8Kernel::Scalar)
                .unwrap(),
        );
    }
    for choice in kernel_choices() {
        with_kernel(choice, || {
            std::env::set_var("SPLITBEAM_TAIL_WEIGHTS", "int8");
            let mut batched = ApServer::new();
            assert_eq!(batched.tail_weights(), TailWeights::Int8);
            let mut serial = ApServer::new();
            let mut streaming = ApServer::new();
            streaming.set_streaming(true);
            let mut sharded = ApServer::with_shards(3);
            assert_eq!(sharded.tail_weights(), TailWeights::Int8);
            let bk = batched.register_model(m.clone());
            let sk = serial.register_model(m.clone());
            let tk = streaming.register_model(m.clone());
            let hk = sharded.register_model(m.clone());
            for id in 0..stations {
                batched.register_station(id, bk, bits).unwrap();
                serial.register_station(id, sk, bits).unwrap();
                streaming.register_station(id, tk, bits).unwrap();
                sharded.register_station(id, hk, bits).unwrap();
                let frame = &frames[id as usize];
                batched.ingest_wire(id, frame).unwrap();
                serial.ingest_wire(id, frame).unwrap();
                streaming.ingest_wire(id, frame).unwrap();
                sharded.ingest_wire(id, frame).unwrap();
            }
            batched.process_round().unwrap();
            serial.process_round_serial().unwrap();
            streaming.close(ServeMode::Streaming, None).unwrap();
            sharded.process_round().unwrap();
            for id in 0..stations {
                let want = reference[id as usize].as_slice();
                for (name, got) in [
                    ("batched", batched.feedback_of(id)),
                    ("serial", serial.feedback_of(id)),
                    ("streaming", streaming.feedback_of(id)),
                    ("sharded", sharded.feedback_of(id)),
                ] {
                    assert_eq!(
                        got,
                        Some(want),
                        "kernel {choice:?}, station {id}: int8 {name} serving \
                         must be bit-exact with the scalar int8 reference"
                    );
                }
            }
        });
    }
}

#[test]
fn tail_weights_can_be_switched_at_round_boundaries() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let m = model(57);
    let mut server = ApServer::new();
    server.set_tail_weights(TailWeights::F32);
    let key = server.register_model(m.clone());
    server.register_station(0, key, 8).unwrap();
    let (payload, frame) = station_traffic(&m, 500, 8);
    server.ingest_wire(0, &frame).unwrap();
    server.process_round().unwrap();
    let f32_out = server.feedback_of(0).unwrap().to_vec();
    assert_eq!(f32_out, m.reconstruct_quantized(&payload).unwrap());
    // Flip to int8 and serve the same payload again: the output now matches
    // the bound quantized tail instead.
    server.set_tail_weights(TailWeights::Int8);
    server.ingest_wire(0, &frame).unwrap();
    server.process_round().unwrap();
    let int8_out = server.feedback_of(0).unwrap().to_vec();
    let tail = server.quantized_tail(key).unwrap();
    let ik = mimo_math::kernel::int8::selected_int8();
    assert_eq!(int8_out, tail.reconstruct_quantized(&payload, ik).unwrap());
}
