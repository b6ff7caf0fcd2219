//! Low-precision tail serving report: f32 vs int8 tail weights end to end.
//!
//! Measures AP serving throughput at the paper's 3x3/80 MHz serve
//! configuration under both `SPLITBEAM_TAIL_WEIGHTS` modes, checks the
//! correctness anchors of the quantized path, and writes `BENCH_PR8.json`:
//!
//! * **Throughput** — payloads/s batched-serving under the dispatched (auto)
//!   kernel with f32 and int8 tail weights, the int8 speedup, and the effective
//!   weight-stream GB/s of each mode (the tail GEMM is memory-bound, so the
//!   byte ratio is the speedup lever).
//! * **Bit-exactness** — with `f32` weights every serving flavor must
//!   reproduce the direct [`SplitBeamModel::reconstruct_quantized`] output
//!   (the pre-quantization serving behavior) bit-for-bit under both existing
//!   kernel backends; with `int8` weights batched and serial serving must
//!   reproduce the scalar int8 reference bit-for-bit under both backends.
//! * **Accuracy guardrail** — BER at the `fig09_ber_vs_compression` 3x3/80 MHz
//!   point (E1, 1/8 compression) with the int8 tail must stay within the
//!   quantized-f32 envelope ([`splitbeam_bench::ber_within_envelope`]).
//! * **Row ladder** — the dispatched int8 GEMM alone at the serve tail shape
//!   for 1..=8 rows (one row per report in a micro-batch): median ns per call
//!   and per row, so the cost of the rows left over after the 4-row panels
//!   shows next to the full panels.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin quant_report        # writes BENCH_PR8.json
//! SPLITBEAM_SAMPLES=40 SPLITBEAM_EPOCHS=4 cargo run --release -p bench --bin quant_report
//! ```
//!
//! The binary exits non-zero when any verdict fails — CI runs it as the PR 8
//! regression gate.

use mimo_math::kernel::int8::{
    gemm_u8i8_i32, pack_weights_k4, padded_k, selected_int8, Int8Kernel,
};
use mimo_math::kernel::{set_kernel, KernelChoice};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::fused::{QuantizedTail, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::wire::decode_feedback;
use splitbeam_bench::report::{kernel_dispatch_value, object, tune_value, JsonReport, JsonValue};
use splitbeam_bench::timing::{gb_per_s, measure_pair, num_threads};
use splitbeam_bench::{
    ber_within_envelope, dataset, env_usize, measure_ber, train_splitbeam, FeedbackScheme, Workload,
};
use splitbeam_datasets::catalog::dataset_for;
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, ServeMode, SimConfig, SimTraffic,
};
use splitbeam_serve::server::ApServer;
use std::time::Instant;
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// The PR index this report seeds.
const PR_INDEX: u32 = 8;

/// Largest batch of the `int8_rows` ladder: two full 4-row panels, so every
/// leftover-row count (1..=3) appears both alone and after a full panel.
const LADDER_ROWS: usize = 8;

/// Timed repetitions per ladder rung, after one warm-up repetition.
const LADDER_REPS: usize = 200;

/// Median ns per call of the dispatched int8 GEMM at depth `k` and width
/// `n`, for every batch of 1..=[`LADDER_ROWS`] rows. Each repetition times
/// every rung once in turn, so frequency scaling and background load drift
/// over all rungs alike instead of favouring whichever ran in a quiet spell.
/// The GEMM's speed does not depend on operand values, so deterministic
/// synthetic operands stand in for real activations and weights.
fn int8_rows_ladder(k: usize, n: usize) -> Vec<f64> {
    let kernel = selected_int8();
    let k_pad = padded_k(k);
    let a: Vec<u8> = (0..LADDER_ROWS * k_pad)
        .map(|i| ((i * 37 + 11) % 128) as u8)
        .collect();
    let wq: Vec<i8> = (0..k * n)
        .map(|i| (((i * 97 + 5) % 255) as i64 - 127) as i8)
        .collect();
    let b = pack_weights_k4(&wq, k, n);
    let mut out = vec![0i32; LADDER_ROWS * n];
    let mut samples: Vec<Vec<f64>> = (0..LADDER_ROWS)
        .map(|_| Vec::with_capacity(LADDER_REPS))
        .collect();
    for rep in 0..=LADDER_REPS {
        for (rung, rows) in samples.iter_mut().zip(1usize..) {
            let start = Instant::now();
            gemm_u8i8_i32(
                kernel,
                &a[..rows * k_pad],
                &b,
                &mut out[..rows * n],
                rows,
                k_pad,
                n,
            );
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(&mut out);
            if rep > 0 {
                rung.push(ns);
            }
        }
    }
    samples
        .into_iter()
        .map(|mut rung| {
            rung.sort_by(f64::total_cmp);
            rung[rung.len() / 2]
        })
        .collect()
}

/// Batched-serving payloads/s of both tail-weight modes under auto dispatch,
/// measured with alternating batches ([`measure_pair`]) so frequency scaling
/// and background load hit the f32 and int8 sides equally — the speedup
/// verdict divides the two, so drift between separate measurements would go
/// straight into the ratio.
fn serve_pps_pair(model: &SplitBeamModel, sim: &SimConfig, traffic: &SimTraffic) -> (f64, f64) {
    set_kernel(Some(KernelChoice::Auto));
    let mut f32_server = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    f32_server.set_tail_weights(TailWeights::F32);
    let mut int8_server = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    int8_server.set_tail_weights(TailWeights::Int8);
    let (f32_ns, int8_ns) = measure_pair(
        || {
            serve_traffic(&mut f32_server, traffic, ServeMode::Batched).expect("batched serving");
        },
        || {
            serve_traffic(&mut int8_server, traffic, ServeMode::Batched).expect("batched serving");
        },
    );
    set_kernel(None);
    let pps = |ns_per_pass: f64| traffic.total_frames() as f64 / (ns_per_pass / 1e9);
    (pps(f32_ns), pps(int8_ns))
}

/// One frame + decoded payload per station, taken from a single-round traffic
/// pass. The frames were produced by the head under whatever kernel was live
/// at generation time; replaying the same bytes under every pin keeps the
/// bit-exactness comparisons honest (the f32 head is deterministic per
/// backend, not identical across backends).
fn exactness_frames(traffic: &SimTraffic) -> Vec<(u64, Vec<u8>, QuantizedFeedback)> {
    traffic.rounds[0]
        .frames
        .iter()
        .filter_map(|(id, frame)| {
            let frame = frame.as_ref()?;
            let payload = decode_feedback(frame).ok()?;
            Some((*id, frame.clone(), payload))
        })
        .collect()
}

/// Serves the frames under a pinned kernel in `mode`, both batched and
/// serial, and checks every station's feedback against `expected_of`
/// (computed inside the pin, so the reference sees the same f32 backend).
fn bit_exact_under(
    choice: KernelChoice,
    mode: TailWeights,
    model: &SplitBeamModel,
    frames: &[(u64, Vec<u8>, QuantizedFeedback)],
    expected_of: impl Fn(usize, &QuantizedFeedback) -> Vec<f32>,
    bits: u8,
) -> bool {
    set_kernel(Some(choice));
    let mut batched = ApServer::new();
    let mut serial = ApServer::new();
    batched.set_tail_weights(mode);
    serial.set_tail_weights(mode);
    let bk = batched.register_model(model.clone());
    let sk = serial.register_model(model.clone());
    for (id, frame, _) in frames {
        batched.register_station(*id, bk, bits).expect("register");
        serial.register_station(*id, sk, bits).expect("register");
        batched.ingest_wire(*id, frame).expect("ingest");
        serial.ingest_wire(*id, frame).expect("ingest");
    }
    batched.process_round().expect("batched round");
    serial.process_round_serial().expect("serial round");
    let ok = frames.iter().enumerate().all(|(i, (id, _, payload))| {
        let want = expected_of(i, payload);
        batched.feedback_of(*id) == Some(want.as_slice())
            && serial.feedback_of(*id) == Some(want.as_slice())
    });
    set_kernel(None);
    ok
}

fn main() {
    let stations = env_usize("SPLITBEAM_STATIONS", 12);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let dispatch = mimo_math::kernel::dispatch_report();
    println!(
        "SplitBeam quantized-tail report (PR {PR_INDEX}) — f32 kernel {}, int8 kernel {}, \
         vnni {}\n",
        dispatch.selected, dispatch.selected_int8, dispatch.avx512_vnni_available
    );

    // The serve configuration (same as kernel_report / BENCH_PR3): the paper's
    // 3x3/80 MHz tail at 1/8 compression.
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);
    let tail = QuantizedTail::bind(&model);
    let f32_weight_bytes = model.tail_macs() as usize * 4;
    let int8_weight_bytes = tail.weight_bytes();

    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value: 4,
        drop_every: 0,
        snr_db: 25.0,
        churn: splitbeam_serve::driver::ChurnConfig::none(),
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let exact_sim = SimConfig { rounds: 1, ..sim };
    let exact_traffic = generate_traffic(&exact_sim, &model, &mut rng);
    let frames = exactness_frames(&exact_traffic);
    assert!(!frames.is_empty(), "exactness traffic produced no frames");

    // Throughput: f32 vs int8 under the dispatched kernel.
    let (f32_pps, int8_pps) = serve_pps_pair(&model, &sim, &traffic);
    let speedup = int8_pps / f32_pps;
    let speedup_target = if dispatch.avx512_vnni_available {
        3.0
    } else if dispatch.avx2_fma_available {
        2.0
    } else {
        1.0
    };
    let speedup_ok = speedup >= speedup_target;
    let batch_ns = |pps: f64| stations as f64 / pps * 1e9;
    let f32_gb = gb_per_s(f32_weight_bytes, batch_ns(f32_pps));
    let int8_gb = gb_per_s(int8_weight_bytes, batch_ns(int8_pps));

    // Bit-exactness anchors under both existing kernel backends. The scalar
    // int8 reference is exact integer math, so one reference serves all pins;
    // the f32 reference must be recomputed inside each pin.
    let int8_reference: Vec<Vec<f32>> = frames
        .iter()
        .map(|(_, _, payload)| {
            tail.reconstruct_quantized(payload, Int8Kernel::Scalar)
                .expect("scalar int8 reference")
        })
        .collect();
    let mut f32_exact = Vec::new();
    let mut int8_exact = Vec::new();
    for choice in [KernelChoice::Scalar, KernelChoice::Auto] {
        f32_exact.push(bit_exact_under(
            choice,
            TailWeights::F32,
            &model,
            &frames,
            |_, payload| model.reconstruct_quantized(payload).expect("f32 reference"),
            sim.bits_per_value,
        ));
        int8_exact.push(bit_exact_under(
            choice,
            TailWeights::Int8,
            &model,
            &frames,
            |i, _| int8_reference[i].clone(),
            sim.bits_per_value,
        ));
    }
    let (f32_exact_scalar, f32_exact_auto) = (f32_exact[0], f32_exact[1]);
    let (int8_exact_scalar, int8_exact_auto) = (int8_exact[0], int8_exact[1]);

    // Accuracy guardrail: BER at the fig09 3x3/80 MHz point (E1), f32 vs int8
    // tail on the same trained model, same link noise seed.
    let workload = Workload::from_env();
    let spec = dataset_for(3, Bandwidth::Mhz80, "E1").expect("catalog entry");
    let generated = dataset(&spec, &workload, 100 + spec.id.0 as u64);
    let (_, _, test) = generated.split_train_val_test();
    let ber_config = SplitBeamConfig::new(spec.mimo, CompressionLevel::OneEighth);
    let trained = train_splitbeam(&ber_config, &generated, &workload, 7 + spec.id.0 as u64);
    let trained_tail = QuantizedTail::bind(&trained);
    let ber_f32 = measure_ber(
        &FeedbackScheme::SplitBeam(&trained),
        test,
        &workload,
        None,
        13,
    );
    let ber_int8 = measure_ber(
        &FeedbackScheme::SplitBeamInt8(&trained, &trained_tail),
        test,
        &workload,
        None,
        13,
    );
    let ber_ok = ber_within_envelope(ber_int8, ber_f32);

    // Row ladder at the serve tail shape: the first (at this configuration,
    // the only) tail layer.
    let first_tail_layer = &model.tail().layers()[0];
    let (ladder_k, ladder_n) = (first_tail_layer.input_dim(), first_tail_layer.output_dim());
    let ladder_ns = int8_rows_ladder(ladder_k, ladder_n);

    println!(
        "serve e2e   f32 {f32_pps:>10.0} payloads/s ({f32_gb:.1} GB/s weights)   int8 \
         {int8_pps:>10.0} payloads/s ({int8_gb:.1} GB/s weights)   speedup {speedup:.2}x \
         (target {speedup_target:.1}x)"
    );
    println!(
        "bit-exact   f32==PR7 scalar {f32_exact_scalar} / auto {f32_exact_auto}, int8==scalar-ref \
         scalar {int8_exact_scalar} / auto {int8_exact_auto}"
    );
    println!("BER 3x3/80  f32 {ber_f32:.4}   int8 {ber_int8:.4}   within envelope {ber_ok}");
    println!(
        "int8 rows   {} GEMM, k {ladder_k} (padded {}) x n {ladder_n}, median of {LADDER_REPS} \
         interleaved reps:",
        selected_int8().name(),
        padded_k(ladder_k)
    );
    for (rows, ns) in (1usize..).zip(&ladder_ns) {
        println!(
            "  rows {rows}: {:>8.1} us/call  {:>7.1} us/row",
            ns / 1e3,
            ns / 1e3 / rows as f64
        );
    }

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("tune", tune_value())
        .field("stations", stations)
        .field("rounds", rounds)
        .field(
            "serve",
            object(vec![
                ("payloads_per_pass", traffic.total_frames().into()),
                ("f32_payloads_per_sec", f32_pps.into()),
                ("int8_payloads_per_sec", int8_pps.into()),
                ("int8_speedup_vs_f32", speedup.into()),
                ("speedup_target", speedup_target.into()),
                ("f32_weight_bytes", f32_weight_bytes.into()),
                ("int8_weight_bytes", int8_weight_bytes.into()),
                (
                    "weight_bytes_ratio",
                    (f32_weight_bytes as f64 / int8_weight_bytes as f64).into(),
                ),
                ("f32_weight_stream_gb_per_s", f32_gb.into()),
                ("int8_weight_stream_gb_per_s", int8_gb.into()),
            ]),
        )
        .field(
            "ber",
            object(vec![
                ("config", "3x3 80MHz E1 1/8".into()),
                ("f32_ber", ber_f32.into()),
                ("int8_ber", ber_int8.into()),
            ]),
        )
        .field(
            "int8_rows",
            object(vec![
                ("kernel", selected_int8().name().into()),
                ("k", ladder_k.into()),
                ("k_pad", padded_k(ladder_k).into()),
                ("n", ladder_n.into()),
                ("reps", LADDER_REPS.into()),
                (
                    "ladder",
                    (1usize..)
                        .zip(&ladder_ns)
                        .map(|(rows, &ns)| {
                            object(vec![
                                ("rows", rows.into()),
                                ("ns_per_call", ns.into()),
                                ("ns_per_row", (ns / rows as f64).into()),
                            ])
                        })
                        .collect::<Vec<JsonValue>>()
                        .into(),
                ),
            ]),
        )
        .field(
            "verdicts",
            object(vec![
                ("int8_speedup_meets_target", speedup_ok.into()),
                ("ber_within_envelope", ber_ok.into()),
                ("f32_bit_exact_scalar", f32_exact_scalar.into()),
                ("f32_bit_exact_auto", f32_exact_auto.into()),
                ("int8_bit_exact_scalar", int8_exact_scalar.into()),
                ("int8_bit_exact_auto", int8_exact_auto.into()),
            ]),
        );
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("\nwrote {out_path}");

    let mut failed = false;
    for (name, ok) in [
        ("int8_speedup_meets_target", speedup_ok),
        ("ber_within_envelope", ber_ok),
        ("f32_bit_exact_scalar", f32_exact_scalar),
        ("f32_bit_exact_auto", f32_exact_auto),
        ("int8_bit_exact_scalar", int8_exact_scalar),
        ("int8_bit_exact_auto", int8_exact_auto),
    ] {
        if !ok {
            eprintln!("FAIL: verdict {name} is false");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
