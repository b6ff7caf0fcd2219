//! Runtime-dispatched SIMD kernel backend.
//!
//! Every hot inner loop of the workspace (complex matmul/axpy, the LU
//! elimination and MMSE filter of [`crate::solve`], the dense f32 GEMM of the
//! `neural` crate, and the fused dequantize→tail kernel of `splitbeam`) funnels
//! through the primitives in this module. Each primitive exists in two
//! implementations:
//!
//! * **scalar** — byte-for-byte the historical loops. Selecting
//!   [`Kernel::Scalar`] reproduces the pre-dispatch outputs bit-identically.
//! * **AVX2+FMA** — `core::arch::x86_64` vector code, selected at runtime only
//!   when the CPU reports both `avx2` and `fma`. FMA contracts the
//!   multiply-add, so results differ from scalar by normal rounding (the
//!   parity tests document max-abs tolerances); per output element the
//!   accumulation order is still ascending `k` with a single accumulator
//!   chain, which keeps *different call shapes* of the same kernel (one row at
//!   a time vs a whole batch, fused vs unfused) bit-identical to each other.
//!   On hosts that also report `avx512f`, the f32 GEMM of this tier runs a
//!   register-blocked AVX-512F body (4 x 64 tiles, masked column tails) that
//!   is bit-identical to the AVX2 body; there is no knob for it.
//!
//! # Selection
//!
//! The active kernel is resolved once and cached:
//!
//! 1. a programmatic override set via [`set_kernel`] wins,
//! 2. otherwise the `SPLITBEAM_KERNEL` environment variable is consulted
//!    (`scalar` forces the fallback, `auto` — or anything else, or unset —
//!    picks the best available),
//! 3. `auto` resolves to [`Kernel::Avx2Fma`] only when the host CPU supports
//!    AVX2 and FMA; on every other host it degrades to [`Kernel::Scalar`].
//!
//! Hot paths call [`selected`] once per kernel invocation (an atomic load) and
//! pass the result down; benchmarks and parity tests bypass the global state
//! entirely by passing an explicit [`Kernel`] to the primitives.
//!
//! A third tier lives in [`int8`]: integer `u8 x i8 -> i32` GEMM arms for
//! quantized tail weights (AVX-512 VNNI → AVX2 `maddubs` → scalar reference,
//! all bit-exact with each other), resolved by [`int8::selected_int8`] behind
//! the same override/environment seam. Blocking parameters for the SIMD arms
//! come from the one-shot startup probe in [`tune`] (`SPLITBEAM_TUNE=off`
//! pins the shipped constants).

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU8, Ordering};

pub mod int8;
pub mod tune;

/// What the caller asked for (environment variable or [`set_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Pick the fastest backend the CPU supports.
    Auto,
    /// Force the scalar reference kernels (bit-identical to the pre-SIMD code).
    Scalar,
}

/// A concrete kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Plain scalar loops — always available, the bit-exactness reference.
    Scalar,
    /// AVX2 + FMA vector kernels (x86_64 only, runtime-detected).
    Avx2Fma,
}

impl Kernel {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2_fma",
        }
    }
}

/// Cached resolution of [`selected`]: 0 = unresolved, 1 = scalar, 2 = AVX2+FMA.
static RESOLVED: AtomicU8 = AtomicU8::new(0);
/// Programmatic override: 0 = none (use the environment), 1 = auto, 2 = scalar.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Returns `true` when the host CPU supports both AVX2 and FMA.
///
/// Detection is delegated to `std::is_x86_feature_detected!`, which caches its
/// own answer; on non-x86_64 targets this is constant `false`.
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses a `SPLITBEAM_KERNEL` value. Only `scalar` forces the fallback;
/// `auto`, the empty string, and unknown values all mean "best available", so
/// a typo can never silently disable correctness (scalar and SIMD agree within
/// tolerance) — it merely fails to pin the kernel.
fn parse_choice(value: &str) -> KernelChoice {
    if value.trim().eq_ignore_ascii_case("scalar") {
        KernelChoice::Scalar
    } else {
        KernelChoice::Auto
    }
}

/// The kernel choice currently in force: the programmatic override if one was
/// set, otherwise the `SPLITBEAM_KERNEL` environment variable (default `auto`).
pub fn requested() -> KernelChoice {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelChoice::Auto,
        2 => KernelChoice::Scalar,
        _ => crate::env::raw("SPLITBEAM_KERNEL")
            .map(|v| parse_choice(&v))
            .unwrap_or(KernelChoice::Auto),
    }
}

/// Resolves a choice against the host CPU.
fn resolve(choice: KernelChoice) -> Kernel {
    match choice {
        KernelChoice::Scalar => Kernel::Scalar,
        KernelChoice::Auto => {
            if avx2_fma_available() {
                Kernel::Avx2Fma
            } else {
                Kernel::Scalar
            }
        }
    }
}

/// The kernel backend all dispatched hot paths use right now.
///
/// Resolved once (override → environment → CPU detection) and cached; a single
/// relaxed atomic load afterwards.
pub fn selected() -> Kernel {
    match RESOLVED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2Fma,
        _ => {
            let kernel = resolve(requested());
            RESOLVED.store(
                match kernel {
                    Kernel::Scalar => 1,
                    Kernel::Avx2Fma => 2,
                },
                Ordering::Relaxed,
            );
            kernel
        }
    }
}

/// Installs (or with `None` removes) a programmatic kernel override, replacing
/// whatever `SPLITBEAM_KERNEL` requested. Takes effect for all subsequent
/// dispatched calls in the process.
///
/// This is the programmatic form of the environment knob — benchmark drivers
/// use it to measure both backends in one process, and the bit-exactness suite
/// uses it to pin `scalar`. Note the override is process-global: concurrent
/// tests that flip it must serialize among themselves.
pub fn set_kernel(choice: Option<KernelChoice>) {
    OVERRIDE.store(
        match choice {
            None => 0,
            Some(KernelChoice::Auto) => 1,
            Some(KernelChoice::Scalar) => 2,
        },
        Ordering::Relaxed,
    );
    RESOLVED.store(0, Ordering::Relaxed);
    int8::reset_selected();
}

/// A report of how kernel dispatch resolved, for benchmark JSON and logs.
///
/// Besides the selected backends this records every CPU feature the dispatch
/// chain *inspects* — including detected-but-unselected ones — so a bench
/// JSON always explains why a tier was not taken on its host (e.g. AVX-512F
/// present but VNNI absent pins the int8 tier to `avx2_maddubs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// What was requested (`auto` or `scalar`).
    pub requested: &'static str,
    /// The f32/complex backend actually in use.
    pub selected: &'static str,
    /// The f32 GEMM body the selected backend runs: `avx512f` (the
    /// register-blocked AVX-512F tiles), `avx2_fma` (the 8-wide AVX2
    /// panels) or `scalar`.
    pub selected_f32_gemm: &'static str,
    /// The integer (quantized-weight) backend actually in use.
    pub selected_int8: &'static str,
    /// Whether the host CPU supports AVX2+FMA at all.
    pub avx2_fma_available: bool,
    /// Whether the host CPU reports AVX-512F (foundation).
    pub avx512f_available: bool,
    /// Whether the host CPU reports AVX-512BW.
    pub avx512bw_available: bool,
    /// Whether the full VNNI arm requirement (F+BW+VL+VNNI) is met.
    pub avx512_vnni_available: bool,
}

/// Snapshot of the current dispatch state.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        requested: match requested() {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
        },
        selected: selected().name(),
        selected_f32_gemm: f32_gemm_body(selected()),
        selected_int8: int8::selected_int8().name(),
        avx2_fma_available: avx2_fma_available(),
        avx512f_available: int8::avx512f_available(),
        avx512bw_available: int8::avx512bw_available(),
        avx512_vnni_available: int8::avx512_vnni_available(),
    }
}

// ---------------------------------------------------------------------------
// Complex f64 primitives (CMatrix products, LU elimination, MMSE filter).
// ---------------------------------------------------------------------------

/// `y += a * x` over complex slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy(kernel: Kernel, a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "caxpy length mismatch");
    match kernel {
        Kernel::Scalar => {
            for (o, &b) in y.iter_mut().zip(x.iter()) {
                *o += a * b;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { caxpy_avx2(a, x, y) },
        #[allow(unreachable_patterns)]
        _ => caxpy(Kernel::Scalar, a, x, y),
    }
}

/// `y -= a * x` over complex slices (the LU elimination update).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy_sub(kernel: Kernel, a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "caxpy_sub length mismatch");
    match kernel {
        Kernel::Scalar => {
            for (o, &b) in y.iter_mut().zip(x.iter()) {
                let sub = a * b;
                *o -= sub;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { caxpy_sub_avx2(a, x, y) },
        #[allow(unreachable_patterns)]
        _ => caxpy_sub(Kernel::Scalar, a, x, y),
    }
}

/// Conjugated dot product `sum_k x[k] * conj(y[k])` (the MMSE filter row).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn cdotc(kernel: Kernel, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "cdotc length mismatch");
    match kernel {
        Kernel::Scalar => {
            let mut acc = Complex64::ZERO;
            for (&a, &b) in x.iter().zip(y.iter()) {
                acc += a * b.conj();
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { cdotc_avx2(x, y) },
        #[allow(unreachable_patterns)]
        _ => cdotc(Kernel::Scalar, x, y),
    }
}

// ---------------------------------------------------------------------------
// Dense f32 primitives (neural GEMM, fused dequantize→tail kernel).
// ---------------------------------------------------------------------------

/// Dense f32 GEMM: `out += a * b` where `a` is `rows x m`, `b` is `m x n` and
/// `out` is `rows x n`, all row-major. `out` is typically pre-zeroed by the
/// caller (`+=` semantics make the kernel composable).
///
/// The scalar arm accumulates each output element over ascending `k` with
/// individually rounded adds and skips exact-zero `a` terms — per element
/// identical to the historical register-blocked panel kernels. The FMA arm
/// uses one FMA chain per output element (also ascending `k`), so any call
/// shape — whole batch, single row, fused variants — produces bit-identical
/// elements for identical inputs. It runs the register-blocked AVX-512F body
/// when the host reports `avx512f` and the 8-wide AVX2 body otherwise; the
/// two are bit-identical ([`DispatchReport::selected_f32_gemm`] names the
/// body in use).
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_f32(kernel: Kernel, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize) {
    check_gemm_f32_shape(a, b, out, m, n);
    match kernel {
        Kernel::Scalar => {
            for (a_row, out_row) in a.chunks_exact(m).zip(out.chunks_exact_mut(n)) {
                for (k, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(b[k * n..(k + 1) * n].iter()) {
                        *o += av * bv;
                    }
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present; `m`/`n` describe
        // `a`/`b`/`out` exactly per the shape check above.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe {
            gemm_f32_fma(a, b, out, m, n, tune::params().f32_k_block, false, |_| {})
        },
        #[allow(unreachable_patterns)]
        _ => gemm_f32(Kernel::Scalar, a, b, out, m, n),
    }
}

/// Dense f32 GEMM with an epilogue: `out = a * b` (overwriting whatever
/// `out` held), then `epilogue` on each finished block of whole output rows.
///
/// The FMA arm walks rows in L2-sized row blocks (256 KiB of output) with the
/// k-blocks inside each block, seeds the first k-block's accumulators with
/// zero instead of reading `out`, and hands each block to `epilogue` while
/// it is still cache-hot — one pass over the output instead of a memset, a
/// GEMM that re-streams it per k-block, and a separate epilogue sweep.
/// Every element is the same FMA chain [`gemm_f32`] computes into a zeroed
/// `out` (a `+0.0` register seed equals a loaded `+0.0`), so the product is
/// bit-identical to zero-fill + [`gemm_f32`] + `epilogue(out)` under every
/// kernel; the scalar arm runs exactly that.
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_f32_then(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    mut epilogue: impl FnMut(&mut [f32]),
) {
    check_gemm_f32_shape(a, b, out, m, n);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present; `m`/`n` describe
        // `a`/`b`/`out` exactly per the shape check above.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe {
            gemm_f32_fma(a, b, out, m, n, tune::params().f32_k_block, true, epilogue)
        },
        _ => {
            out.fill(0.0);
            gemm_f32(Kernel::Scalar, a, b, out, m, n);
            epilogue(out);
        }
    }
}

/// The shape contract shared by the f32 GEMM entry points.
fn check_gemm_f32_shape(a: &[f32], b: &[f32], out: &[f32], m: usize, n: usize) {
    assert_eq!(b.len(), m * n, "gemm_f32 rhs length mismatch");
    assert_eq!(a.len() % m.max(1), 0, "gemm_f32 lhs length mismatch");
    let rows = a.len().checked_div(m).unwrap_or(0);
    assert_eq!(out.len(), rows * n, "gemm_f32 out length mismatch");
}

/// The f32 GEMM body the FMA tier runs on this host: `"avx512f"` (the
/// register-blocked AVX-512F tiles), `"avx2_fma"` (the 8-wide AVX2 panels)
/// or `"scalar"` when `kernel` is the scalar backend or the host has no FMA.
fn f32_gemm_body(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Avx2Fma if avx2_fma_available() && int8::avx512f_available() => "avx512f",
        Kernel::Avx2Fma if avx2_fma_available() => "avx2_fma",
        _ => "scalar",
    }
}

/// Output bytes per row block of the FMA-tier GEMM: a block's output plus
/// the weight k-block streamed over it stay L2-resident while every
/// k-block passes over the block, and a fused epilogue then reads it hot.
const ROW_BLOCK_BYTES: usize = 256 * 1024;

/// Rows per row block for an `n`-wide f32 output: a multiple of four (so
/// only the last block can end in a 1–3 row leftover panel), at least four.
fn row_block(n: usize) -> usize {
    (ROW_BLOCK_BYTES / (4 * n.max(1))).max(4) / 4 * 4
}

/// The FMA tier: row block by row block, the AVX-512F body when the host
/// has it, else the AVX2 body; `epilogue` runs on each finished block.
/// `overwrite` seeds the first k-block with zero (`out = a * b`); otherwise
/// the accumulators start from `out` (`out += a * b`).
///
/// # Safety
/// Caller must ensure AVX2+FMA support and that `a` is `rows x m`, `b` is
/// `m x n` and `out` is `rows x n` (the public entry points assert it).
// The shape, the blocking and the seed rule are all distinct inputs of the
// body; a struct would only rename them.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
unsafe fn gemm_f32_fma(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    k_block: usize,
    overwrite: bool,
    mut epilogue: impl FnMut(&mut [f32]),
) {
    if out.is_empty() {
        return;
    }
    let wide = int8::avx512f_available();
    let rows = row_block(n);
    for (a_blk, o_blk) in a.chunks(rows * m).zip(out.chunks_mut(rows * n)) {
        let rows = o_blk.len() / n;
        // SAFETY: the caller guarantees AVX2+FMA, `wide` proves AVX-512F for
        // the wide body, and the chunks cut `a`/`out` at the same row.
        unsafe {
            if wide {
                avx512::gemm_f32_avx512(a_blk, b, o_blk, rows, m, n, k_block, overwrite);
            } else {
                if overwrite {
                    o_blk.fill(0.0);
                }
                gemm_f32_avx2(a_blk, b, o_blk, rows, m, n, k_block);
            }
        }
        epilogue(o_blk);
    }
}

/// One GEMM row: `out_row += a_row * b` — [`gemm_f32`] with a single
/// left-hand row, used by the parity tests to pin that single-row and
/// batched calls agree bit-for-bit per kernel.
#[cfg(test)]
fn gemm_row_f32(kernel: Kernel, a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let (m, n) = (a_row.len(), out_row.len());
    gemm_f32(kernel, a_row, b, out_row, m, n);
}

/// `y += a * x` over f32 slices; exact-zero `a` is a no-op (matching the
/// historical `axpy1_skip`).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn saxpy(kernel: Kernel, a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "saxpy length mismatch");
    if a == 0.0 {
        return;
    }
    match kernel {
        Kernel::Scalar => {
            for (o, &b) in y.iter_mut().zip(x.iter()) {
                *o += a * b;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { saxpy_avx2(a, x, y) },
        #[allow(unreachable_patterns)]
        _ => saxpy(Kernel::Scalar, a, x, y),
    }
}

/// Dot product `sum_k x[k] * y[k]` over f32 slices.
///
/// The scalar arm is the historical sequential accumulation; the AVX2 arm uses
/// four independent vector accumulators and a horizontal reduction (different
/// association, tolerance-tested).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn sdot(kernel: Kernel, x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "sdot length mismatch");
    match kernel {
        Kernel::Scalar => {
            let mut acc = 0.0f32;
            for (&a, &b) in x.iter().zip(y.iter()) {
                acc += a * b;
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard proves AVX2+FMA are present, and the lengths
        // were asserted equal above — the target-feature fn's only contract.
        Kernel::Avx2Fma if avx2_fma_available() => unsafe { sdot_avx2(x, y) },
        #[allow(unreachable_patterns)]
        _ => sdot(Kernel::Scalar, x, y),
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex64;
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_fmaddsub_pd,
        _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_set_pd, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps, _mm256_sub_pd,
    };

    /// Complexes per 256-bit vector (2 × f64 re/im pairs).
    const CPV: usize = 2;

    /// Sums the four f64 lanes of a vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
        }
    }

    /// Computes the per-lane complex product `a * x` for one vector of two
    /// interleaved complexes: even lanes `ar*xr - ai*xi`, odd lanes
    /// `ar*xi + ai*xr` (the first product FMA-fused by `fmaddsub`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn cmul_lanes(ar: __m256d, ai: __m256d, xv: __m256d) -> __m256d {
        let xswap = _mm256_permute_pd(xv, 0b0101);
        _mm256_fmaddsub_pd(ar, xv, _mm256_mul_pd(ai, xswap))
    }

    /// `y += a * x` (complex, interleaved f64). `Complex64` is `repr(C)`, so a
    /// complex slice is safely viewed as interleaved `re, im` f64 memory.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn caxpy_avx2(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let ar = _mm256_set1_pd(a.re);
            let ai = _mm256_set1_pd(a.im);
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_mut_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                _mm256_storeu_pd(yp.add(2 * i), _mm256_add_pd(yv, cmul_lanes(ar, ai, xv)));
                i += CPV;
            }
            for k in pairs..x.len() {
                y[k] += a * x[k];
            }
        }
    }

    /// `y -= a * x` (complex, interleaved f64).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn caxpy_sub_avx2(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let ar = _mm256_set1_pd(a.re);
            let ai = _mm256_set1_pd(a.im);
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_mut_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                _mm256_storeu_pd(yp.add(2 * i), _mm256_sub_pd(yv, cmul_lanes(ar, ai, xv)));
                i += CPV;
            }
            for k in pairs..x.len() {
                let sub = a * x[k];
                y[k] -= sub;
            }
        }
    }

    /// `sum_k x[k] * conj(y[k])` (complex, interleaved f64).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn cdotc_avx2(x: &[Complex64], y: &[Complex64]) -> Complex64 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // acc_direct lanes hold xr*yr / xi*yi products; their full sum is the
            // real part. acc_cross lanes hold xi*yr / xr*yi; the real part of the
            // cross term enters with +, the imaginary with -, giving xi*yr - xr*yi.
            let mut acc_direct = _mm256_setzero_pd();
            let mut acc_cross = _mm256_setzero_pd();
            let pairs = x.len() / CPV * CPV;
            let xp = x.as_ptr().cast::<f64>();
            let yp = y.as_ptr().cast::<f64>();
            let mut i = 0;
            while i < pairs {
                let xv = _mm256_loadu_pd(xp.add(2 * i));
                let yv = _mm256_loadu_pd(yp.add(2 * i));
                acc_direct = _mm256_fmadd_pd(xv, yv, acc_direct);
                let xswap = _mm256_permute_pd(xv, 0b0101);
                acc_cross = _mm256_fmadd_pd(xswap, yv, acc_cross);
                i += CPV;
            }
            let re = hsum_pd(acc_direct);
            let sign = _mm256_set_pd(-1.0, 1.0, -1.0, 1.0);
            let im = hsum_pd(_mm256_mul_pd(acc_cross, sign));
            let mut acc = Complex64::new(re, im);
            for k in pairs..x.len() {
                acc += x[k] * y[k].conj();
            }
            acc
        }
    }

    /// Dense f32 GEMM `out += a * b` (`a`: rows x m, `b`: m x n, `out`:
    /// rows x n, all row-major) — the 8-wide FMA microkernel.
    ///
    /// Same blocking discipline as the historical scalar panel kernel, with
    /// vector registers: the outer loop walks `k_block`-deep `k` blocks (so
    /// the corresponding `b` rows are streamed *sequentially* and reused
    /// across the whole batch from cache; the block depth comes from
    /// [`super::tune`], default 16), the middle loop walks 4-row panels of
    /// `a`/`out` (one loaded `b` vector feeds four FMA accumulators), and the
    /// inner loop runs 8 floats per instruction over `n`.
    ///
    /// Every output element accumulates as a single FMA chain over ascending
    /// `k`: the accumulator round-trips memory only between `k` blocks, and an
    /// f32 store/load is value-preserving, so results are independent of the
    /// blocking — single-row calls, batched calls, the fused dequantize→tail
    /// path, and every autotuned `k_block` all agree bit-for-bit.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_f32_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        m: usize,
        n: usize,
        k_block: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            for k0 in (0..m).step_by(k_block.max(1)) {
                let k1 = (k0 + k_block.max(1)).min(m);
                let mut r = 0;
                while r + 4 <= rows {
                    gemm_panel4_avx2(
                        &a[r * m..(r + 4) * m],
                        b,
                        &mut out[r * n..(r + 4) * n],
                        m,
                        n,
                        k0,
                        k1,
                    );
                    r += 4;
                }
                while r < rows {
                    gemm_panel1_avx2(
                        &a[r * m..(r + 1) * m],
                        b,
                        &mut out[r * n..(r + 1) * n],
                        n,
                        k0,
                        k1,
                    );
                    r += 1;
                }
            }
        }
    }

    /// Four output rows over `k0..k1`: each loaded `b` vector feeds four
    /// accumulator chains (16 live accumulators at the 32-float unroll).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_panel4_avx2(
        a: &[f32],
        b: &[f32],
        o: &mut [f32],
        m: usize,
        n: usize,
        k0: usize,
        k1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let (a0, rest) = a.split_at(m);
            let (a1, rest) = rest.split_at(m);
            let (a2, a3) = rest.split_at(m);
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let mut acc0 = _mm256_loadu_ps(op.add(j));
                let mut acc1 = _mm256_loadu_ps(op.add(n + j));
                let mut acc2 = _mm256_loadu_ps(op.add(2 * n + j));
                let mut acc3 = _mm256_loadu_ps(op.add(3 * n + j));
                for k in k0..k1 {
                    let bv = _mm256_loadu_ps(bp.add(k * n + j));
                    acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.get_unchecked(k)), bv, acc0);
                    acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.get_unchecked(k)), bv, acc1);
                    acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.get_unchecked(k)), bv, acc2);
                    acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.get_unchecked(k)), bv, acc3);
                }
                _mm256_storeu_ps(op.add(j), acc0);
                _mm256_storeu_ps(op.add(n + j), acc1);
                _mm256_storeu_ps(op.add(2 * n + j), acc2);
                _mm256_storeu_ps(op.add(3 * n + j), acc3);
                j += 8;
            }
            while j < n {
                for (row, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = *slot;
                    for k in k0..k1 {
                        acc = ar.get_unchecked(k).mul_add(*bp.add(k * n + j), acc);
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One output row over `k0..k1`, 16 floats (two accumulators) per step.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_panel1_avx2(
        a: &[f32],
        b: &[f32],
        o: &mut [f32],
        n: usize,
        k0: usize,
        k1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 16 <= n {
                let mut acc0 = _mm256_loadu_ps(op.add(j));
                let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
                for k in k0..k1 {
                    let av = _mm256_set1_ps(*a.get_unchecked(k));
                    let bk = bp.add(k * n + j);
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk.add(8)), acc1);
                }
                _mm256_storeu_ps(op.add(j), acc0);
                _mm256_storeu_ps(op.add(j + 8), acc1);
                j += 16;
            }
            while j + 8 <= n {
                let mut acc = _mm256_loadu_ps(op.add(j));
                for k in k0..k1 {
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(*a.get_unchecked(k)),
                        _mm256_loadu_ps(bp.add(k * n + j)),
                        acc,
                    );
                }
                _mm256_storeu_ps(op.add(j), acc);
                j += 8;
            }
            while j < n {
                let mut acc = *op.add(j);
                for k in k0..k1 {
                    acc = a.get_unchecked(k).mul_add(*bp.add(k * n + j), acc);
                }
                *op.add(j) = acc;
                j += 1;
            }
        }
    }

    /// `y += a * x` (f32), FMA per element; scalar tail with `mul_add`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn saxpy_avx2(a: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let av = _mm256_set1_ps(a);
            let n8 = x.len() / 8 * 8;
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i < n8 {
                let acc =
                    _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
                _mm256_storeu_ps(yp.add(i), acc);
                i += 8;
            }
            for k in n8..x.len() {
                y[k] = a.mul_add(x[k], y[k]);
            }
        }
    }

    /// f32 dot product with four independent accumulators.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sdot_avx2(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let n32 = x.len() / 32 * 32;
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let mut i = 0;
            while i < n32 {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 8)),
                    _mm256_loadu_ps(yp.add(i + 8)),
                    acc1,
                );
                acc2 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 16)),
                    _mm256_loadu_ps(yp.add(i + 16)),
                    acc2,
                );
                acc3 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 24)),
                    _mm256_loadu_ps(yp.add(i + 24)),
                    acc3,
                );
                i += 32;
            }
            let mut n8 = n32;
            while n8 + 8 <= x.len() {
                acc0 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(n8)),
                    _mm256_loadu_ps(yp.add(n8)),
                    acc0,
                );
                n8 += 8;
            }
            let folded = {
                let mut lanes = [0.0f32; 8];
                let sum01 = {
                    let mut l0 = [0.0f32; 8];
                    let mut l1 = [0.0f32; 8];
                    _mm256_storeu_ps(l0.as_mut_ptr(), acc0);
                    _mm256_storeu_ps(l1.as_mut_ptr(), acc1);
                    for (a, b) in l0.iter_mut().zip(l1.iter()) {
                        *a += b;
                    }
                    l0
                };
                let mut l2 = [0.0f32; 8];
                let mut l3 = [0.0f32; 8];
                _mm256_storeu_ps(l2.as_mut_ptr(), acc2);
                _mm256_storeu_ps(l3.as_mut_ptr(), acc3);
                for i in 0..8 {
                    lanes[i] = sum01[i] + (l2[i] + l3[i]);
                }
                lanes
            };
            let mut acc = folded.iter().sum::<f32>();
            for k in n8..x.len() {
                acc = x[k].mul_add(y[k], acc);
            }
            acc
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{caxpy_avx2, caxpy_sub_avx2, cdotc_avx2, gemm_f32_avx2, saxpy_avx2, sdot_avx2};

// ---------------------------------------------------------------------------
// AVX-512F f32 GEMM body (the FMA tier's body on hosts that report avx512f).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::{
        __m512, __mmask16, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// All 16 lanes of a zmm tile column.
    const FULL: __mmask16 = 0xFFFF;

    /// Dense f32 GEMM `out += a * b` (or `out = a * b` with `overwrite`) —
    /// the register-blocked AVX-512F body of the FMA tier.
    ///
    /// The outer loop walks `k_block`-deep k-blocks (one k-block when the
    /// batch fits a single panel: no other panel would reuse the streamed
    /// `b` rows), the middle loop walks row panels — 4 x 64 tiles, and the
    /// `rows % 4` leftover rows in one 3 x 64, 2 x 64 or 1 x 128 panel —
    /// and [`tile`] holds each panel tile in up to 16 zmm accumulators.
    ///
    /// Every output element is one FMA chain over ascending `k`, exactly as
    /// in the AVX2 body: accumulators start from the loaded `out` (or from
    /// `+0.0` on the first k-block under `overwrite`, which equals loading a
    /// zeroed `out`) and round-trip memory losslessly between k-blocks, so
    /// the two bodies agree bit-for-bit for any blocking.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F support and that `a` is `rows x m`, `b`
    /// is `m x n` and `out` is `rows x n`.
    // Same GEMM signature rationale as `gemm_f32_fma`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_f32_avx512(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        m: usize,
        n: usize,
        k_block: usize,
        overwrite: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let block = k_block.max(1);
            let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            for k0 in (0..m).step_by(block) {
                let k1 = (k0 + block).min(m);
                let load = !overwrite || k0 != 0;
                let mut r = 0;
                while r < rows {
                    let take = (rows - r).min(4);
                    let (a_r, o_r) = (ap.add(r * m), op.add(r * n));
                    match take {
                        4 => panel::<4, 4>(a_r, bp, o_r, m, n, k0, k1, load),
                        3 => panel::<3, 4>(a_r, bp, o_r, m, n, k0, k1, load),
                        2 => panel::<2, 4>(a_r, bp, o_r, m, n, k0, k1, load),
                        _ => panel::<1, 8>(a_r, bp, o_r, m, n, k0, k1, load),
                    }
                    r += take;
                }
            }
        }
    }

    /// `R` output rows over `k0..k1`: `16 * T`-column tiles, then 64-column
    /// tiles, then the narrow remainder as one tile of `ceil(rest / 16)` zmm
    /// columns whose last column is masked to the leftover lanes — never a
    /// scalar loop.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F support, `a` pointing at `R` rows of
    /// stride `m`, `b` at `m x n` weights, `o` at `R` rows of stride `n`,
    /// and `k1 <= m`.
    // Same GEMM signature rationale as `gemm_f32_fma`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn panel<const R: usize, const T: usize>(
        a: *const f32,
        b: *const f32,
        o: *mut f32,
        m: usize,
        n: usize,
        k0: usize,
        k1: usize,
        load: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let ap: [*const f32; R] = core::array::from_fn(|r| a.add(r * m));
            let mut j = 0;
            while j + 16 * T <= n {
                tile::<R, T>(ap, b, o, n, j, k0, k1, load, FULL);
                j += 16 * T;
            }
            while n - j > 64 {
                tile::<R, 4>(ap, b, o, n, j, k0, k1, load, FULL);
                j += 64;
            }
            let rest = n - j;
            if rest == 0 {
                return;
            }
            let last = FULL >> ((16 - rest % 16) % 16);
            match rest.div_ceil(16) {
                1 => tile::<R, 1>(ap, b, o, n, j, k0, k1, load, last),
                2 => tile::<R, 2>(ap, b, o, n, j, k0, k1, load, last),
                3 => tile::<R, 3>(ap, b, o, n, j, k0, k1, load, last),
                _ => tile::<R, 4>(ap, b, o, n, j, k0, k1, load, last),
            }
        }
    }

    /// One `R x 16T` tile at column `j` over `k0..k1`, held in `R * T` zmm
    /// accumulators: per `k`, `T` weight loads feed `R` broadcasts, so every
    /// load serves `R` independent FMA chains. The last of the `T` columns
    /// loads and stores only the lanes in `last` (masked-off lanes are never
    /// read or written).
    ///
    /// # Safety
    /// Caller must ensure AVX-512F support, `ap` pointing at `R` rows
    /// readable through `k1 - 1`, `b` at weights of width `n` readable
    /// through row `k1 - 1`, `o` at `R` output rows of stride `n`, and
    /// `j + 16 * (T - 1) + popcount(last) <= n`.
    // Every argument is a pointer, a dimension, a blocking bound or the seed
    // rule the tile needs; a struct would only rename them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const R: usize, const T: usize>(
        ap: [*const f32; R],
        b: *const f32,
        o: *mut f32,
        n: usize,
        j: usize,
        k0: usize,
        k1: usize,
        load: bool,
        last: __mmask16,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); T]; R];
            if load {
                for (row, acc_r) in acc.iter_mut().enumerate() {
                    let slot = o.add(row * n + j);
                    for (t, acc_rt) in acc_r.iter_mut().enumerate() {
                        *acc_rt = if t + 1 == T {
                            _mm512_maskz_loadu_ps(last, slot.add(16 * t))
                        } else {
                            _mm512_loadu_ps(slot.add(16 * t))
                        };
                    }
                }
            }
            for k in k0..k1 {
                let row = b.add(k * n + j);
                let w: [__m512; T] = core::array::from_fn(|t| {
                    if t + 1 == T {
                        _mm512_maskz_loadu_ps(last, row.add(16 * t))
                    } else {
                        _mm512_loadu_ps(row.add(16 * t))
                    }
                });
                for (acc_r, &a_r) in acc.iter_mut().zip(&ap) {
                    let av = _mm512_set1_ps(*a_r.add(k));
                    for (acc_rt, &w_t) in acc_r.iter_mut().zip(&w) {
                        *acc_rt = _mm512_fmadd_ps(av, w_t, *acc_rt);
                    }
                }
            }
            for (row, acc_r) in acc.iter().enumerate() {
                let slot = o.add(row * n + j);
                for (t, &acc_rt) in acc_r.iter().enumerate() {
                    if t + 1 == T {
                        _mm512_mask_storeu_ps(slot.add(16 * t), last, acc_rt);
                    } else {
                        _mm512_storeu_ps(slot.add(16 * t), acc_rt);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complex_series(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    ((i as f64) * 0.37 + seed).sin(),
                    ((i as f64) * 0.21 - seed).cos(),
                )
            })
            .collect()
    }

    fn f32_series(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.173 + seed).sin() * 0.5)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both kernels, but AVX2 only on hosts that have it.
    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if avx2_fma_available() {
            ks.push(Kernel::Avx2Fma);
        }
        ks
    }

    #[test]
    fn resolve_is_pure_and_total() {
        assert_eq!(resolve(KernelChoice::Scalar), Kernel::Scalar);
        let auto = resolve(KernelChoice::Auto);
        if avx2_fma_available() {
            assert_eq!(auto, Kernel::Avx2Fma);
        } else {
            assert_eq!(auto, Kernel::Scalar);
        }
    }

    #[test]
    fn parse_choice_only_scalar_forces_fallback() {
        assert_eq!(parse_choice("scalar"), KernelChoice::Scalar);
        assert_eq!(parse_choice(" SCALAR "), KernelChoice::Scalar);
        assert_eq!(parse_choice("auto"), KernelChoice::Auto);
        assert_eq!(parse_choice(""), KernelChoice::Auto);
        assert_eq!(parse_choice("sse9000"), KernelChoice::Auto);
    }

    #[test]
    fn dispatch_report_is_consistent() {
        let report = dispatch_report();
        assert!(["auto", "scalar"].contains(&report.requested));
        assert!(["scalar", "avx2_fma"].contains(&report.selected));
        assert!(["scalar", "avx2_fma", "avx512f"].contains(&report.selected_f32_gemm));
        assert_eq!(
            report.selected == "scalar",
            report.selected_f32_gemm == "scalar"
        );
        if report.selected_f32_gemm == "avx512f" {
            assert!(report.avx512f_available);
        }
        assert!(["scalar", "avx2_maddubs", "avx512_vnni"].contains(&report.selected_int8));
        if !report.avx2_fma_available {
            assert_eq!(report.selected, "scalar");
        }
        // Detected-but-unselected features must still be reported: the report
        // explains *why* a tier was not taken, so the availability bits are
        // filled regardless of what got selected.
        if !report.avx512_vnni_available {
            assert_ne!(report.selected_int8, "avx512_vnni");
        }
        if report.requested == "scalar" {
            assert_eq!(report.selected_int8, "scalar");
        }
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Avx2Fma.name(), "avx2_fma");
    }

    #[test]
    fn f32_gemm_results_are_independent_of_the_k_block() {
        // The autotune safety property: any probed k_block produces
        // bit-identical f32 results (single FMA chain per element, lossless
        // accumulator round-trips between blocks).
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() {
            let (rows, m, n) = (6usize, 50usize, 33usize);
            let a = f32_series(rows * m, 0.7);
            let b = f32_series(m * n, 1.3);
            let mut want = vec![0.0f32; rows * n];
            unsafe { avx2::gemm_f32_avx2(&a, &b, &mut want, rows, m, n, 16) };
            for k_block in [1usize, 8, 17, 32, 64, 1000] {
                let mut out = vec![0.0f32; rows * n];
                unsafe { avx2::gemm_f32_avx2(&a, &b, &mut out, rows, m, n, k_block) };
                let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want_bits, "k_block={k_block}");
            }
        }
    }

    #[test]
    fn avx512_and_avx2_f32_bodies_agree_bitwise_into_dirty_out() {
        // The AVX-512F body must reproduce the AVX2 reference bit-for-bit
        // for every panel shape (4-row panels plus 3/2/1-row leftovers),
        // every column remainder (full 64/128-column tiles, 64-column tiles,
        // masked tails of 1..=16 lanes) and every k-blocking. Both bodies
        // are called directly — no kernel-override flip — into the same
        // dirty `out`, which they accumulate onto; the overwrite seed must
        // equal the AVX2 body run into a zeroed `out`.
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() && int8::avx512f_available() {
            const NS: [usize; 14] = [1, 7, 8, 9, 15, 16, 17, 56, 63, 64, 65, 129, 224, 545];
            for m in [1usize, 17, 56, 448] {
                for &n in &NS {
                    let b = f32_series(m * n, 0.31 + n as f32);
                    for rows in 1usize..=13 {
                        let a = f32_series(rows * m, 1.7 + rows as f32);
                        let dirty = f32_series(rows * n, -2.9);
                        for k_block in [1usize, 8, 16, 32, 64, m] {
                            let mut want = dirty.clone();
                            let mut got = dirty.clone();
                            unsafe {
                                avx2::gemm_f32_avx2(&a, &b, &mut want, rows, m, n, k_block);
                                avx512::gemm_f32_avx512(
                                    &a, &b, &mut got, rows, m, n, k_block, false,
                                );
                            }
                            let shape = format!("rows={rows} m={m} n={n} k_block={k_block}");
                            assert_eq!(bits(&got), bits(&want), "accumulate {shape}");

                            let mut want = vec![0.0f32; rows * n];
                            let mut got = dirty.clone();
                            unsafe {
                                avx2::gemm_f32_avx2(&a, &b, &mut want, rows, m, n, k_block);
                                avx512::gemm_f32_avx512(
                                    &a, &b, &mut got, rows, m, n, k_block, true,
                                );
                            }
                            assert_eq!(bits(&got), bits(&want), "overwrite {shape}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_pass_epilogue_matches_gemm_then_sweep_across_row_blocks() {
        // `gemm_f32_then` overwrites a dirty `out` and runs the epilogue per
        // row block; it must equal zero-fill + `gemm_f32` + one sweep, bit
        // for bit, and hand every row to the epilogue exactly once. Row
        // counts span one block, several blocks, and a 1–3 row leftover
        // panel in the last block.
        let (m, n) = (23usize, 1452usize);
        let b = f32_series(m * n, 0.45);
        let bias = f32_series(n, 3.3);
        let sweep = |block: &mut [f32]| {
            for row in block.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(&bias) {
                    *o = (*o + bv).tanh();
                }
            }
        };
        let block_rows = row_block(n);
        for rows in [1usize, 3, 4, block_rows, block_rows + 1, 3 * block_rows + 3] {
            let a = f32_series(rows * m, 0.8);
            for k in kernels() {
                let mut want = vec![0.0f32; rows * n];
                gemm_f32(k, &a, &b, &mut want, m, n);
                sweep(&mut want);
                let mut got = f32_series(rows * n, 7.0);
                let mut seen = 0usize;
                gemm_f32_then(k, &a, &b, &mut got, m, n, |block| {
                    assert_eq!(block.len() % n, 0, "whole rows per block");
                    seen += block.len() / n;
                    sweep(block);
                });
                assert_eq!(seen, rows, "{k:?} rows={rows}: every row exactly once");
                assert_eq!(bits(&got), bits(&want), "{k:?} rows={rows}");
            }
        }
    }

    #[test]
    fn row_blocks_are_whole_panels() {
        for n in [1usize, 56, 224, 545, 1452, 100_000] {
            let rows = row_block(n);
            assert!(rows >= 4 && rows.is_multiple_of(4), "n={n}: {rows}");
        }
        assert_eq!(row_block(224), 292);
    }

    #[test]
    fn caxpy_parity_across_kernels_and_lengths() {
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            let a = Complex64::new(0.7, -0.3);
            let x = complex_series(n, 1.0);
            let base = complex_series(n, 2.0);
            let mut expect = base.clone();
            for (o, &b) in expect.iter_mut().zip(x.iter()) {
                *o += a * b;
            }
            for k in kernels() {
                let mut y = base.clone();
                caxpy(k, a, &x, &mut y);
                for (got, want) in y.iter().zip(expect.iter()) {
                    assert!(
                        (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                        "caxpy {k:?} n={n}"
                    );
                }
                let mut y2 = base.clone();
                caxpy_sub(k, a, &x, &mut y2);
                let mut expect_sub = base.clone();
                for (o, &b) in expect_sub.iter_mut().zip(x.iter()) {
                    *o -= a * b;
                }
                for (got, want) in y2.iter().zip(expect_sub.iter()) {
                    assert!(
                        (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                        "caxpy_sub {k:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cdotc_parity_across_kernels() {
        for n in [0usize, 1, 2, 5, 9, 33] {
            let x = complex_series(n, 0.4);
            let y = complex_series(n, 1.7);
            let want = cdotc(Kernel::Scalar, &x, &y);
            for k in kernels() {
                let got = cdotc(k, &x, &y);
                assert!(
                    (got.re - want.re).abs() < 1e-10 && (got.im - want.im).abs() < 1e-10,
                    "cdotc {k:?} n={n}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn gemm_parity_across_kernels_and_shapes() {
        for (m, n) in [(1, 1), (3, 7), (8, 8), (5, 33), (16, 40), (7, 70)] {
            let a = f32_series(2 * m, 0.3);
            let b = f32_series(m * n, 1.1);
            let mut want = vec![0.0f32; 2 * n];
            gemm_f32(Kernel::Scalar, &a, &b, &mut want, m, n);
            for k in kernels() {
                let mut out = vec![0.0f32; 2 * n];
                gemm_f32(k, &a, &b, &mut out, m, n);
                for (got, w) in out.iter().zip(want.iter()) {
                    assert!((got - w).abs() < 1e-4, "gemm {k:?} {m}x{n}: {got} vs {w}");
                }
            }
        }
    }

    #[test]
    fn gemm_row_and_batch_shapes_agree_bitwise_per_kernel() {
        // One row at a time must equal the batched call exactly — the property
        // the fused dequantize→tail path relies on. Six rows exercise the
        // 4-row AVX2 panel plus the single-row remainder path.
        const ROWS: usize = 6;
        let (m, n) = (37, 41);
        let a = f32_series(ROWS * m, 0.9);
        let b = f32_series(m * n, 0.2);
        for k in kernels() {
            let mut batched = vec![0.0f32; ROWS * n];
            gemm_f32(k, &a, &b, &mut batched, m, n);
            for r in 0..ROWS {
                let mut row = vec![0.0f32; n];
                gemm_row_f32(k, &a[r * m..(r + 1) * m], &b, &mut row);
                assert_eq!(row, batched[r * n..(r + 1) * n].to_vec(), "{k:?} row {r}");
            }
        }
    }

    #[test]
    fn saxpy_and_sdot_parity() {
        for n in [0usize, 1, 7, 8, 31, 64, 100] {
            let x = f32_series(n, 0.5);
            let base = f32_series(n, 2.5);
            for k in kernels() {
                let mut y = base.clone();
                saxpy(k, 0.37, &x, &mut y);
                for (i, (got, b)) in y.iter().zip(base.iter()).enumerate() {
                    let want = 0.37f32 * x[i] + b;
                    assert!((got - want).abs() < 1e-5, "saxpy {k:?} n={n} i={i}");
                }
                let mut y2 = base.clone();
                saxpy(k, 0.0, &x, &mut y2);
                assert_eq!(y2, base, "zero saxpy must be a no-op");

                let want = sdot(Kernel::Scalar, &x, &base);
                let got = sdot(k, &x, &base);
                assert!((got - want).abs() < 1e-4, "sdot {k:?} n={n}");
            }
        }
    }

    #[test]
    fn scalar_gemm_skips_exact_zero_terms() {
        // -0.0 in the accumulator must survive a zero a-term, exactly like the
        // historical axpy1_skip.
        let a = [0.0f32, 1.0];
        let b = [5.0f32, -0.0, 2.0, -0.0];
        let mut out = [-0.0f32, -0.0];
        gemm_row_f32(Kernel::Scalar, &a, &b, &mut out);
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1].to_bits(), (-0.0f32).to_bits());
    }
}
