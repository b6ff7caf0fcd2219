//! Kernel-dispatch benchmark: scalar vs SIMD across the compute layers.
//!
//! Measures, per kernel backend, the hot kernels the `SPLITBEAM_KERNEL`
//! dispatch covers — the complex matmul of `mimo-math`, the dense f32 GEMM of
//! `neural` at the head and tail shapes of the paper's configurations, and the
//! fused dequantize→tail reconstruction of `splitbeam` — plus the end-to-end
//! AP serving throughput (`splitbeam-serve`) under `scalar` and `auto`
//! dispatch, and writes `BENCH_PR3.json`.
//!
//! On hosts without AVX2+FMA the SIMD measurements gracefully degrade to the
//! scalar backend: the parity numbers (speedups ~1.0) are still reported, not
//! skipped, and the `kernel.avx2_fma_available` field says why.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin kernel_report           # writes BENCH_PR3.json
//! SPLITBEAM_STATIONS=32 SPLITBEAM_ROUNDS=12 cargo run --release -p bench --bin kernel_report
//! ```
//!
//! The binary exits non-zero when fused and unfused reconstructions diverge or
//! batched serving stops being bit-exact with serial serving under either
//! kernel — CI runs it as a smoke test.

use std::hint::black_box;

use mimo_math::kernel::{avx2_fma_available, set_kernel, Kernel, KernelChoice};
use mimo_math::{CMatrix, Complex64};
use neural::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use splitbeam::config::{CompressionLevel, SplitBeamConfig};
use splitbeam::fused::TailScratch;
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::{dequantize_bottleneck, quantize_bottleneck, QuantizedFeedback};
use splitbeam_bench::report::{kernel_dispatch_value, object, tune_value, JsonReport, JsonValue};
use splitbeam_bench::timing::{gb_per_s, gflop_per_s, measure, measure_pair, num_threads};
use splitbeam_bench::{env_usize, feedback_identical};
use splitbeam_serve::driver::{
    build_server, generate_traffic, serve_traffic, ServeMode, SimConfig,
};
use wifi_phy::ofdm::{Bandwidth, MimoConfig};

/// The PR index this report seeds.
const PR_INDEX: u32 = 3;

/// One scalar-vs-SIMD kernel comparison, with the bytes moved and FLOPs
/// executed per op so the report can state effective GB/s and GFLOP/s
/// alongside ns/op.
struct KernelBench {
    name: &'static str,
    unit: &'static str,
    scalar_ns: f64,
    simd_ns: f64,
    bytes_per_op: usize,
    flops_per_op: usize,
}

impl KernelBench {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }

    fn to_json(&self) -> JsonValue {
        object(vec![
            ("name", self.name.into()),
            ("unit", self.unit.into()),
            ("scalar_ns_per_op", self.scalar_ns.into()),
            ("simd_ns_per_op", self.simd_ns.into()),
            ("simd_speedup_vs_scalar", self.speedup().into()),
            ("bytes_per_op", self.bytes_per_op.into()),
            ("flops_per_op", self.flops_per_op.into()),
            (
                "simd_gb_per_s",
                gb_per_s(self.bytes_per_op, self.simd_ns).into(),
            ),
            (
                "simd_gflop_per_s",
                gflop_per_s(self.flops_per_op, self.simd_ns).into(),
            ),
            (
                "scalar_gb_per_s",
                gb_per_s(self.bytes_per_op, self.scalar_ns).into(),
            ),
            (
                "scalar_gflop_per_s",
                gflop_per_s(self.flops_per_op, self.scalar_ns).into(),
            ),
        ])
    }
}

/// The SIMD backend to measure: AVX2+FMA when available, otherwise the scalar
/// fallback itself (parity run).
fn simd_kernel() -> Kernel {
    if avx2_fma_available() {
        Kernel::Avx2Fma
    } else {
        Kernel::Scalar
    }
}

fn bench_complex_matmul() -> KernelBench {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let a = CMatrix::from_fn(8, 8, |_, _| {
        Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    let b = CMatrix::from_fn(8, 8, |_, _| {
        Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    let mut out_simd = CMatrix::zeros(8, 8);
    let mut out_scalar = CMatrix::zeros(8, 8);
    let simd = simd_kernel();
    let (simd_ns, scalar_ns) = measure_pair(
        || a.matmul_into_with(black_box(&b), &mut out_simd, simd),
        || a.matmul_into_with(black_box(&b), &mut out_scalar, Kernel::Scalar),
    );
    KernelBench {
        name: "cmatrix_matmul_8x8",
        unit: "matmul",
        scalar_ns,
        simd_ns,
        // Two operands read + one written, 16 bytes per complex; 8 real FLOPs
        // per complex multiply-accumulate.
        bytes_per_op: 3 * 8 * 8 * 16,
        flops_per_op: 8 * 8 * 8 * 8,
    }
}

fn bench_dense_gemm(name: &'static str, batch: usize, m: usize, n: usize) -> KernelBench {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let a = Matrix::xavier_uniform(batch, m, &mut rng);
    let b = Matrix::xavier_uniform(m, n, &mut rng);
    let mut out_simd = Matrix::zeros(batch, n);
    let mut out_scalar = Matrix::zeros(batch, n);
    let simd = simd_kernel();
    let (simd_ns, scalar_ns) = measure_pair(
        || a.matmul_into_with(black_box(&b), &mut out_simd, simd),
        || a.matmul_into_with(black_box(&b), &mut out_scalar, Kernel::Scalar),
    );
    KernelBench {
        name,
        unit: "gemm",
        scalar_ns,
        simd_ns,
        bytes_per_op: 4 * (batch * m + m * n + batch * n),
        flops_per_op: 2 * batch * m * n,
    }
}

/// Fused dequantize→tail vs dequantize-then-batched-tail at the serve
/// configuration, both under the dispatched (auto) kernel, plus the bitwise
/// verdict between the two paths.
fn bench_fused(model: &SplitBeamModel, stations: usize) -> (KernelBench, bool) {
    let dim = model.bottleneck_dim();
    let payloads: Vec<QuantizedFeedback> = (0..stations.max(1))
        .map(|s| {
            let values: Vec<f32> = (0..dim)
                .map(|j| ((s * dim + j) as f32 * 0.173).sin() * 0.4)
                .collect();
            quantize_bottleneck(&values, 4)
        })
        .collect();
    let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
    let mut scratch = TailScratch::new();

    set_kernel(Some(KernelChoice::Auto));
    let fused = model
        .reconstruct_quantized_batch_into(&refs, &mut scratch)
        .expect("fused reconstruction")
        .as_slice()
        .to_vec();
    let unfused: Vec<f32> = {
        let bottlenecks: Vec<Vec<f32>> = payloads.iter().map(dequantize_bottleneck).collect();
        let slices: Vec<&[f32]> = bottlenecks.iter().map(Vec::as_slice).collect();
        model
            .reconstruct_batch(&slices)
            .expect("unfused reconstruction")
            .concat()
    };
    let fused_matches_unfused = fused == unfused;

    let (fused_ns, unfused_ns) = measure_pair(
        || {
            black_box(
                model
                    .reconstruct_quantized_batch_into(black_box(&refs), &mut scratch)
                    .unwrap(),
            );
        },
        || {
            let bottlenecks: Vec<Vec<f32>> = payloads.iter().map(dequantize_bottleneck).collect();
            let slices: Vec<&[f32]> = bottlenecks.iter().map(Vec::as_slice).collect();
            black_box(model.reconstruct_batch(black_box(&slices)).unwrap());
        },
    );
    set_kernel(None);
    // One batched reconstruction streams the tail weights once (one f32 per
    // MAC) plus the batch inputs and outputs, and runs 2 FLOPs per MAC per
    // station.
    let macs = model.tail_macs() as usize;
    let out_dim = fused.len() / stations.max(1);
    (
        KernelBench {
            name: "fused_dequant_tail_vs_dequant_then_batch",
            unit: "batched reconstruction",
            scalar_ns: unfused_ns,
            simd_ns: fused_ns,
            bytes_per_op: 4 * (macs + stations * (dim + out_dim)),
            flops_per_op: 2 * macs * stations,
        },
        fused_matches_unfused,
    )
}

/// Serves the same traffic under a pinned kernel choice; returns
/// (payloads/sec, batched-matches-serial).
fn serve_under(
    choice: KernelChoice,
    model: &SplitBeamModel,
    sim: &SimConfig,
    traffic: &splitbeam_serve::driver::SimTraffic,
) -> (f64, bool) {
    set_kernel(Some(choice));
    let mut batched = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    let mut serial = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    serve_traffic(&mut batched, traffic, ServeMode::Batched).expect("batched serving");
    serve_traffic(&mut serial, traffic, ServeMode::Serial).expect("serial serving");
    let bit_exact = feedback_identical(&batched, &serial, sim.stations);

    let mut server = build_server(model.clone(), sim.stations, sim.bits_per_value, 1);
    let ns_per_pass = measure(|| {
        serve_traffic(&mut server, traffic, ServeMode::Batched).expect("batched serving");
    });
    set_kernel(None);
    (
        traffic.total_frames() as f64 / (ns_per_pass / 1e9),
        bit_exact,
    )
}

fn main() {
    let stations = env_usize("SPLITBEAM_STATIONS", 12);
    let rounds = env_usize("SPLITBEAM_ROUNDS", 6);
    let dispatch = mimo_math::kernel::dispatch_report();
    println!(
        "SplitBeam kernel report (PR {PR_INDEX}) — requested {}, selected {}, avx2+fma {}\n",
        dispatch.requested, dispatch.selected, dispatch.avx2_fma_available
    );

    // Microkernels: the paper's 2x2/20MHz head shape (448→56, batch 16) and
    // the 3x3/80MHz tail shape (545→4356, batch = stations) the AP serves.
    let benchmarks = [
        bench_complex_matmul(),
        bench_dense_gemm("dense_gemm_head_448x56_batch16", 16, 448, 56),
        bench_dense_gemm("dense_gemm_tail_545x4356_batch12", 12, 545, 4356),
    ];

    // The serve configuration (same as serve_report / BENCH_PR2).
    let config = SplitBeamConfig::new(
        MimoConfig::symmetric(3, Bandwidth::Mhz80),
        CompressionLevel::OneEighth,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let model = SplitBeamModel::new(config, &mut rng);
    let (fused_bench, fused_matches_unfused) = bench_fused(&model, stations);

    let sim = SimConfig {
        stations,
        rounds,
        bits_per_value: 4,
        drop_every: 0,
        snr_db: 25.0,
        churn: splitbeam_serve::driver::ChurnConfig::none(),
    };
    let traffic = generate_traffic(&sim, &model, &mut rng);
    let (payloads_per_sec_scalar, bit_exact_scalar) =
        serve_under(KernelChoice::Scalar, &model, &sim, &traffic);
    let (payloads_per_sec_auto, bit_exact_auto) =
        serve_under(KernelChoice::Auto, &model, &sim, &traffic);
    let e2e_speedup = payloads_per_sec_auto / payloads_per_sec_scalar;

    for b in benchmarks.iter().chain([&fused_bench]) {
        println!(
            "{:<42} scalar {:>12.1} ns/op   simd {:>12.1} ns/op   speedup {:>5.2}x   \
             {:>6.1} GB/s {:>6.1} GFLOP/s",
            b.name,
            b.scalar_ns,
            b.simd_ns,
            b.speedup(),
            gb_per_s(b.bytes_per_op, b.simd_ns),
            gflop_per_s(b.flops_per_op, b.simd_ns),
        );
    }
    println!(
        "\nserve e2e   scalar {payloads_per_sec_scalar:>10.0} payloads/s   auto \
         {payloads_per_sec_auto:>10.0} payloads/s   speedup {e2e_speedup:.2}x"
    );
    println!(
        "bit-exact   fused==unfused {fused_matches_unfused}, batched==serial scalar \
         {bit_exact_scalar} / auto {bit_exact_auto}"
    );

    let report = JsonReport::new()
        .field("pr", PR_INDEX)
        .field("threads", num_threads())
        .field("kernel", kernel_dispatch_value())
        .field("tune", tune_value())
        .field("stations", stations)
        .field("rounds", rounds)
        .field(
            "benchmarks",
            benchmarks
                .iter()
                .map(KernelBench::to_json)
                .collect::<Vec<_>>(),
        )
        .field(
            "fused",
            object(vec![
                ("fused_ns_per_op", fused_bench.simd_ns.into()),
                ("unfused_ns_per_op", fused_bench.scalar_ns.into()),
                ("fused_speedup_vs_unfused", fused_bench.speedup().into()),
                ("fused_matches_unfused", fused_matches_unfused.into()),
            ]),
        )
        .field(
            "serve_e2e",
            object(vec![
                ("payloads_per_pass", traffic.total_frames().into()),
                ("payloads_per_sec_scalar", payloads_per_sec_scalar.into()),
                ("payloads_per_sec_auto", payloads_per_sec_auto.into()),
                ("auto_speedup_vs_scalar", e2e_speedup.into()),
                ("batched_matches_serial_scalar", bit_exact_scalar.into()),
                ("batched_matches_serial_auto", bit_exact_auto.into()),
            ]),
        );
    let out_path = report.write(&format!("BENCH_PR{PR_INDEX}.json"));
    println!("\nwrote {out_path}");

    if !fused_matches_unfused {
        eprintln!("FAIL: fused dequantize→tail diverged from dequantize-then-reconstruct");
        std::process::exit(1);
    }
    if !bit_exact_scalar || !bit_exact_auto {
        eprintln!("FAIL: batched serving diverged from station-at-a-time serving");
        std::process::exit(1);
    }
}
