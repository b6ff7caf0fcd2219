//! The repository benchmark: the SplitBeam beamforming-report path, end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_round --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (`paper_round`, `fleet_scale`, `hostile_stream`) are described
//! in their modules. Each is a closed loop in host time: one sounding round
//! is in flight and the next starts when the AP has closed the previous one.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` alternates
//! untraced and traced blocks of rounds, derives per-layer self time from
//! spans recorded around every call into a layer, and writes the spans to
//! `benchmark/traces/`. Human-readable lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The process exits non-zero when a correctness check fails.
//!
//! Every setting is pinned here as a value; the run refuses to start when a
//! `SPLITBEAM_*` variable or `RAYON_NUM_THREADS` could steer a library
//! constructor.

mod common;
mod fleet_scale;
mod hostile_stream;
mod paper_round;
mod stats;
mod trace;

use common::{Report, RunArgs, Workload};
use mimo_math::kernel::{self, tune, KernelChoice};
use stats::Series;
use std::process::ExitCode;
use std::time::Instant;
use trace::Layer;

/// Set-ups per run: `setup_s` reports the median.
const SETUPS: usize = 3;

const WORKLOADS: [&str; 3] = ["paper_round", "fleet_scale", "hostile_stream"];

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Variables a library constructor would read in place of the values
/// pinned here.
fn steering_variables() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPLITBEAM_") || k == "RAYON_NUM_THREADS")
        .collect()
}

/// Pins the process to the CPU it starts on and returns that CPU.
///
/// One CPU for the whole run: the rayon shim sizes its fan-out from the
/// CPUs the process may use, so the shard close of `hostile_stream` runs
/// inline instead of waking a second vCPU per round. On a 2-vCPU guest that
/// wake-up took p90 2.8 ms and p99 10 ms under host contention against a
/// ~0.2 ms close, and moved the workload's reports/s between 10k and 27k
/// from run to run; pinned, it measures the serving layers, not the
/// hypervisor's scheduler.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's current CPU.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    // A 1024-CPU mask, the size glibc's `cpu_set_t` uses.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("cpu {cpu} beyond the affinity mask")))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed; pid 0 names the calling thread, which is the only thread
    // running this early in `main`, so the whole process inherits the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Host, dispatch and tuning facts the numbers depend on, as one JSON object.
fn fingerprint(host_cpus: usize, pinned_cpu: usize, probe_s: f64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let d = kernel::dispatch_report();
    let t = tune::params();
    let queue_backend = splitbeam_hwsim::EventQueue::<()>::new().backend_name();
    format!(
        "{{\"cpu\": \"{}\", \"host_cpus\": {host_cpus}, \"pinned_cpu\": {pinned_cpu}, \"kernel_requested\": \"{}\", \"kernel_f32\": \"{}\", \
         \"kernel_int8\": \"{}\", \"avx2_fma\": {}, \"avx512_vnni\": {}, \"tune_probed\": {}, \
         \"tune_probe_s\": {probe_s:.4}, \
         \"tune_f32_k_block\": {}, \"tune_int8_group_block\": {}, \"tune_int8_panel4\": {}, \
         \"event_queue\": \"{queue_backend}\"}}",
        cpu.replace('"', "'"),
        d.requested,
        d.selected,
        d.selected_int8,
        d.avx2_fma_available,
        d.avx512_vnni_available,
        t.probed,
        t.f32_k_block,
        t.int8_group_block,
        t.int8_panel4,
    )
}

/// Sets the workload up `SETUPS` times, keeps the last, and runs it.
/// `setup_s` is `once_s` (process start through kernel and blocking
/// selection) plus the median set-up.
fn set_up_and_run<W: Workload>(args: &RunArgs, once_s: f64) -> Report {
    let mut builds = Vec::with_capacity(SETUPS);
    let mut parts = Vec::new();
    let mut station_us = Series::default();
    let mut built: Option<W> = None;
    for setup in 0..SETUPS {
        drop(built.take());
        parts.clear();
        let t = Instant::now();
        let mut w = W::build(args.seed, &mut parts);
        builds.push(t.elapsed().as_secs_f64());
        if let Some(series) = w.setup_station_us() {
            station_us.append_block(setup, series);
        }
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");
    if let Some(series) = w.setup_station_us() {
        *series = station_us;
    }
    let setup_s = once_s + stats::median(&builds);
    let mut report = w.run(args);
    report.e2e.insert(
        0,
        common::Metric {
            name: "setup_s".into(),
            value: setup_s,
            unit: "s",
        },
    );
    let mut note = format!(
        "setup_s {setup_s:.4} = process start through kernel and blocking selection {once_s:.4} \
         + median of {SETUPS} set-ups {:?}; parts of the last:",
        builds
            .iter()
            .map(|b| (b * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    for (name, s) in &parts {
        note.push_str(&format!(" {name} {s:.4}"));
    }
    report.note(note);
    report
}

/// Count metrics of the traced run. A workload that never touches a layer
/// reports 0 for it.
const COUNT_METRICS: [(&str, &str); 12] = [
    ("ap.reports_per_batch", "count"),
    ("tail.weight_bytes_per_report", "B"),
    ("ap.micro_closes_per_round", "count"),
    ("medium.air_ms_per_round", "ms"),
    ("medium.wait_ms_per_round", "ms"),
    ("fault.lost_per_round", "count"),
    ("fault.corrupt_per_round", "count"),
    ("fault.duplicate_per_round", "count"),
    ("event.retransmits_per_round", "count"),
    ("event.scheduled_per_report", "count"),
    ("fleet.handoffs_settled_per_round", "count"),
    ("fleet.served_per_round", "count"),
];

/// Per-layer metrics from the spans: self time per call, share of traced
/// wall time, the unaccounted remainder and the tracing overhead.
fn layer_metrics(report: &mut Report) {
    let counts = std::mem::take(&mut report.layers);
    let b = trace::breakdown();
    let wall = b.root_ns as f64;
    for layer in Layer::ALL.into_iter().filter(|&l| l != Layer::Round) {
        let t = b.layers[layer as usize];
        let us = if t.calls == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.calls as f64 / 1e3
        };
        report.layer(&format!("{}_us", layer.name()), us, "us");
        report.layer(
            &format!("{}_share", layer.name()),
            t.self_ns as f64 / wall,
            "ratio",
        );
    }
    for (name, unit) in COUNT_METRICS {
        let value = counts
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        report.layer(name, value, unit);
    }
    let remainder = b.root_ns - b.covered_ns;
    report.layer("remainder_share", remainder as f64 / wall, "ratio");
    let overhead = 1.0 - report.traced_rate / report.untraced_rate;
    report.layer("trace.overhead_share", overhead, "ratio");
    report.check(
        "layer self times tile the covered wall time (spans nest)",
        b.layer_self_ns == b.covered_ns,
    );
    report.note(format!(
        "traced wall {:.3} s over {} spans: layers {:.3} s + remainder {:.3} s; \
         traced {:.1} reports/s vs untraced {:.1} (overhead {:.2}%)",
        wall / 1e9,
        b.spans,
        b.layer_self_ns as f64 / 1e9,
        remainder as f64 / 1e9,
        report.traced_rate,
        report.untraced_rate,
        overhead * 100.0
    ));
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let steering = steering_variables();
    if !steering.is_empty() {
        eprintln!("error: unset {steering:?}: the benchmark pins every setting itself");
        return ExitCode::from(2);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = match pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("error: cannot pin the process to one CPU: {e}");
            return ExitCode::from(2);
        }
    };

    // Pinned settings: the best kernel tier the CPU offers (the default the
    // serving code ships with), and the GEMM blocking the kernels ship with.
    // The library pins blocking only through `SPLITBEAM_TUNE=off`, so the
    // benchmark sets it on its own process before the first GEMM; no thread
    // but this one runs yet. Left to the one-shot probe, the f32 k-block
    // flipped between 16, 32 and 64 from run to run with the host's load,
    // and 64 made the `paper_round` AP round ~20% slower.
    std::env::set_var("SPLITBEAM_TUNE", "off");
    kernel::set_kernel(Some(KernelChoice::Auto));
    let t = Instant::now();
    tune::params();
    let probe_s = t.elapsed().as_secs_f64();
    let once_s = process_start.elapsed().as_secs_f64();

    let mut report = match args.workload.as_str() {
        "paper_round" => set_up_and_run::<paper_round::PaperRound>(&args, once_s),
        "fleet_scale" => set_up_and_run::<fleet_scale::FleetScale>(&args, once_s),
        _ => set_up_and_run::<hostile_stream::HostileStream>(&args, once_s),
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "fingerprint {}",
        fingerprint(host_cpus, pinned_cpu, probe_s)
    );
    report.e2e("peak_rss_mb", common::peak_rss_mb(), "MB");
    if args.trace {
        layer_metrics(&mut report);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}.tsv", args.workload));
        match trace::write(&path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.check(format!("write spans to {}: {e}", path.display()), false),
        }
    }

    for line in &report.notes {
        println!("  {line}");
    }
    for (name, ok) in &report.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("digest {:016x}", report.digest);
    let shown = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    for m in if args.trace {
        &report.e2e
    } else {
        &report.layers
    } {
        println!(
            "  ({}) {} = {} {}",
            if args.trace { "e2e" } else { "layer" },
            m.name,
            m.value,
            m.unit
        );
    }
    for m in shown {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }

    let correct = report.checks.iter().all(|(_, ok)| *ok);
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
