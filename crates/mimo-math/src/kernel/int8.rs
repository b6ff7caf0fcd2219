//! Third kernel tier: integer (u8 x i8 -> i32) GEMM for quantized tail
//! weights.
//!
//! The f32 tail GEMM is memory-bound — BENCH_PR3 measured only 1.51x from
//! AVX2+FMA on the 545x4356 tail layer because the weight matrix streams from
//! DRAM every batch. Quantizing weights to int8 shrinks that stream 4x, and
//! this module provides the matching integer microkernels behind the same
//! `SPLITBEAM_KERNEL` seam as the f32 tier:
//!
//! * **scalar** — a verbatim reference loop. Every wider arm must match it
//!   **bit-exactly**: all arms accumulate the same `u8 x i8` products into
//!   `i32`, and integer addition is associative, so equality is exact by
//!   construction (and pinned by tests), not by tolerance.
//! * **AVX2 `maddubs`** — `_mm256_maddubs_epi16` + `_mm256_madd_epi16`
//!   per 4-deep group, 8 columns per vector.
//! * **AVX-512 VNNI** — `_mm512_dpbusd_epi32`, 16 columns per vector, one
//!   instruction per 4-deep group (runtime-detected `avx512f/bw/vl/vnni`).
//!
//! # Data layout
//!
//! All arms consume the same **K4-packed** weight layout, the native shape of
//! the VNNI dot instruction: quantized weights `wq` (row-major `k x n`,
//! row = input channel, column = output channel) are regrouped so the 4
//! consecutive input channels of one output column are adjacent:
//!
//! ```text
//! packed[(g * n + j) * 4 + q] = wq[(4g + q) * n + j]   (zero-padded past k)
//! ```
//!
//! Activations are quantized to **u7** (`0..=127`) per row: with both
//! operands bounded by 127, a `maddubs` pair sum is at most `2*127*127 =
//! 32258 < i16::MAX`, so the AVX2 arm can never saturate and stays exact.
//! Activation rows are zero-padded to [`padded_k`] bytes; the padded products
//! are exact zeros in every arm.
//!
//! # Overflow
//!
//! A full `i32` accumulator over `k` groups is bounded by `127 * 127 * k`;
//! the largest tail layer in the workspace has `k = 4356`, giving `~7.0e7`,
//! five orders of magnitude inside `i32` range.

use super::KernelChoice;
use std::sync::atomic::{AtomicU8, Ordering};

/// A concrete integer-GEMM backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Kernel {
    /// Verbatim scalar reference — always available, the bit-exactness anchor.
    Scalar,
    /// AVX2 `maddubs`-style kernel (x86_64, runtime-detected `avx2`).
    Avx2Maddubs,
    /// AVX-512 VNNI `dpbusd` kernel (x86_64, runtime-detected
    /// `avx512f/bw/vl/vnni`).
    Avx512Vnni,
}

impl Int8Kernel {
    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Scalar => "scalar",
            Int8Kernel::Avx2Maddubs => "avx2_maddubs",
            Int8Kernel::Avx512Vnni => "avx512_vnni",
        }
    }
}

/// Cached resolution of [`selected_int8`]: 0 = unresolved, 1 = scalar,
/// 2 = AVX2 maddubs, 3 = AVX-512 VNNI.
static RESOLVED_INT8: AtomicU8 = AtomicU8::new(0);

/// Invalidated by [`super::set_kernel`] so an override re-resolves this tier
/// too.
pub(super) fn reset_selected() {
    RESOLVED_INT8.store(0, Ordering::Relaxed);
}

/// `true` when the host CPU supports AVX2 (the `maddubs` arm needs no FMA).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the host CPU reports AVX-512F (foundation).
pub fn avx512f_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the host CPU reports AVX-512BW (byte/word ops).
pub fn avx512bw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the VNNI arm can run: AVX-512 F + BW + VL + VNNI.
pub fn avx512_vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a [`KernelChoice`] to the best integer backend the host supports.
fn resolve_int8(choice: KernelChoice) -> Int8Kernel {
    match choice {
        KernelChoice::Scalar => Int8Kernel::Scalar,
        KernelChoice::Auto => {
            if avx512_vnni_available() {
                Int8Kernel::Avx512Vnni
            } else if avx2_available() {
                Int8Kernel::Avx2Maddubs
            } else {
                Int8Kernel::Scalar
            }
        }
    }
}

/// The integer backend the dispatched quantized paths use right now. Honors
/// the same override / `SPLITBEAM_KERNEL` / CPU-detection chain as
/// [`super::selected`] (so `SPLITBEAM_KERNEL=scalar` pins *both* tiers) and
/// caches the answer behind one relaxed atomic load.
pub fn selected_int8() -> Int8Kernel {
    match RESOLVED_INT8.load(Ordering::Relaxed) {
        1 => Int8Kernel::Scalar,
        2 => Int8Kernel::Avx2Maddubs,
        3 => Int8Kernel::Avx512Vnni,
        _ => {
            let kernel = resolve_int8(super::requested());
            RESOLVED_INT8.store(
                match kernel {
                    Int8Kernel::Scalar => 1,
                    Int8Kernel::Avx2Maddubs => 2,
                    Int8Kernel::Avx512Vnni => 3,
                },
                Ordering::Relaxed,
            );
            kernel
        }
    }
}

/// The activation-row / packed-weight depth for a logical depth `k`: rounded
/// up to a whole number of 4-deep groups.
pub fn padded_k(k: usize) -> usize {
    k.div_ceil(4) * 4
}

/// Packs row-major quantized weights (`k x n`, row = input channel) into the
/// K4 layout shared by every arm: `packed[(g*n + j)*4 + q] = wq[(4g+q)*n + j]`,
/// zero-padded past `k`. The returned buffer has `padded_k(k) * n` bytes.
pub fn pack_weights_k4(wq: &[i8], k: usize, n: usize) -> Vec<i8> {
    assert_eq!(wq.len(), k * n, "pack_weights_k4 shape mismatch");
    let k_pad = padded_k(k);
    let mut packed = vec![0i8; k_pad * n];
    for g in 0..k_pad / 4 {
        for j in 0..n {
            for q in 0..4 {
                let row = 4 * g + q;
                if row < k {
                    packed[(g * n + j) * 4 + q] = wq[row * n + j];
                }
            }
        }
    }
    packed
}

/// The 4-deep group dot product every arm computes: activation quad `g` of
/// row `a` against the packed weight quad at `wbase`.
#[inline]
fn dot4(a: &[u8], g: usize, b: &[i8], wbase: usize) -> i32 {
    i32::from(a[4 * g]) * i32::from(b[wbase])
        + i32::from(a[4 * g + 1]) * i32::from(b[wbase + 1])
        + i32::from(a[4 * g + 2]) * i32::from(b[wbase + 2])
        + i32::from(a[4 * g + 3]) * i32::from(b[wbase + 3])
}

/// Integer GEMM `out = a * b` (overwrite — `out` need not be zeroed): `a` is
/// `rows x k_pad` unsigned u7 activations (row-major, zero-padded), `b` is
/// K4-packed i8 weights for depth `k_pad` over `n` output columns
/// ([`pack_weights_k4`]), `out` is `rows x n` i32.
///
/// The SIMD arms block the inner dimension; the first k-block **stores** its
/// in-register sums and later blocks fold on top, so callers skip a full
/// `out` memset per call without any change in results (integer adds are
/// exact however the accumulation is split).
///
/// Every arm computes identical `i32` sums, so outputs are **bit-identical
/// across backends, batch shapes and blocking** — the property the fused
/// quantized tail path and the sharded server rely on.
///
/// # Panics
/// Panics when `k_pad` is not a multiple of 4 or any slice length disagrees
/// with the dimensions.
pub fn gemm_u8i8_i32(
    kernel: Int8Kernel,
    a: &[u8],
    b: &[i8],
    out: &mut [i32],
    rows: usize,
    k_pad: usize,
    n: usize,
) {
    assert_eq!(k_pad % 4, 0, "gemm_u8i8_i32 depth must be 4-padded");
    assert_eq!(a.len(), rows * k_pad, "gemm_u8i8_i32 lhs length mismatch");
    assert_eq!(b.len(), k_pad * n, "gemm_u8i8_i32 rhs length mismatch");
    assert_eq!(out.len(), rows * n, "gemm_u8i8_i32 out length mismatch");
    match kernel {
        Int8Kernel::Scalar => {
            // The verbatim reference: per output element, ascending groups.
            let groups = k_pad / 4;
            for (a_row, out_row) in a.chunks_exact(k_pad).zip(out.chunks_exact_mut(n)) {
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0i32;
                    for g in 0..groups {
                        acc += dot4(a_row, g, b, (g * n + j) * 4);
                    }
                    *o = acc;
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2Maddubs if avx2_available() => {
            let p = super::tune::params();
            // SAFETY: the guard proves AVX2 is present; `rows`/`k_pad`/`n`
            // describe `a`/`b`/`out` exactly per the asserts above.
            unsafe { x86::gemm_avx2(a, b, out, rows, k_pad, n, p.int8_group_block, p.int8_panel4) }
        }
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx512Vnni if avx512_vnni_available() => {
            let p = super::tune::params();
            // SAFETY: the guard proves AVX-512 VNNI is present; the shape
            // arguments describe `a`/`b`/`out` exactly per the asserts above.
            unsafe { x86::gemm_vnni(a, b, out, rows, k_pad, n, p.int8_group_block, p.int8_panel4) }
        }
        #[allow(unreachable_patterns)]
        _ => gemm_u8i8_i32(Int8Kernel::Scalar, a, b, out, rows, k_pad, n),
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm512_add_epi32, _mm512_dpbusd_epi32, _mm512_loadu_si512,
        _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// Seeds an accumulator tile: the prior blocks' partial sums when
    /// folding, zero when this is the overwriting first k-block.
    ///
    /// # Safety
    /// Caller must guarantee 8 readable i32 slots at `slot` and AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn seed_avx2(slot: *const i32, fold: bool) -> __m256i {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                _mm256_loadu_si256(slot.cast())
            } else {
                _mm256_setzero_si256()
            }
        }
    }

    /// [`seed_avx2`], 16 i32 lanes wide.
    ///
    /// # Safety
    /// Caller must guarantee 16 readable i32 slots at `slot` and AVX-512F
    /// support.
    #[target_feature(enable = "avx512f")]
    unsafe fn seed_avx512(slot: *const i32, fold: bool) -> __m512i {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                _mm512_loadu_si512(slot.cast())
            } else {
                _mm512_setzero_si512()
            }
        }
    }

    /// Seeds a scalar accumulator under the same fold/overwrite rule.
    ///
    /// # Safety
    /// `slot` must be readable.
    #[inline(always)]
    unsafe fn seed_scalar(slot: *const i32, fold: bool) -> i32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            if fold {
                *slot
            } else {
                0
            }
        }
    }

    /// The 4 activation bytes of group `g` as one broadcastable i32 lane —
    /// a raw unaligned load so the hot loops carry no per-byte bounds checks.
    ///
    /// # Safety
    /// Caller must guarantee `4 * g + 3` is in bounds of the row `a` points
    /// into (every caller iterates `g < k_pad / 4` over a `k_pad`-byte row).
    #[inline(always)]
    unsafe fn quad(a: *const u8, g: usize) -> i32 {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe { a.add(4 * g).cast::<i32>().read_unaligned() }
    }

    /// [`super::dot4`] over raw pointers, so the scalar column tail of the
    /// VNNI panels carries no per-byte bounds checks. At the 1452-column
    /// serve tail layer, the bounds-checked `dot4` on the 12 tail columns
    /// took about a third of a 4-row GEMM call.
    ///
    /// # Safety
    /// Caller must guarantee 4 readable bytes at both `a` and `w`.
    #[inline(always)]
    unsafe fn dot4_raw(a: *const u8, w: *const i8) -> i32 {
        // SAFETY: the caller guarantees 4 readable bytes at `a` and at `w`,
        // and `q < 4`.
        unsafe {
            (0..4)
                .map(|q| i32::from(*a.add(q)) * i32::from(*w.add(q)))
                .sum()
        }
    }

    /// AVX2 `maddubs` arm: outer loop over `group_block`-deep k-group blocks
    /// (the corresponding packed-weight rows stream sequentially and are
    /// reused across the whole batch from cache), middle loop over 4-row
    /// panels when `panel4` (one loaded weight vector feeds four
    /// accumulators), inner loop 8 columns per vector.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and the slice lengths match
    /// `rows x k_pad` / `k_pad x n` / `rows x n` with `k_pad % 4 == 0` (the
    /// public dispatcher asserts both).
    // Every argument is a distinct matrix dimension or blocking parameter;
    // bundling them into a struct would only obscure the GEMM signature.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_avx2(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        rows: usize,
        k_pad: usize,
        n: usize,
        group_block: usize,
        panel4: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let groups = k_pad / 4;
            let block = group_block.max(1);
            for g0 in (0..groups).step_by(block) {
                let g1 = (g0 + block).min(groups);
                let mut r = 0;
                if panel4 {
                    while r + 4 <= rows {
                        panel4_avx2(
                            &a[r * k_pad..(r + 4) * k_pad],
                            b,
                            &mut out[r * n..(r + 4) * n],
                            k_pad,
                            n,
                            g0,
                            g1,
                        );
                        r += 4;
                    }
                }
                while r < rows {
                    panel1_avx2(
                        &a[r * k_pad..(r + 1) * k_pad],
                        b,
                        &mut out[r * n..(r + 1) * n],
                        n,
                        g0,
                        g1,
                    );
                    r += 1;
                }
            }
        }
    }

    /// Four output rows over groups `g0..g1`: each loaded weight vector feeds
    /// four `maddubs`+`madd` accumulator updates.
    #[target_feature(enable = "avx2")]
    unsafe fn panel4_avx2(
        a: &[u8],
        b: &[i8],
        o: &mut [i32],
        k_pad: usize,
        n: usize,
        g0: usize,
        g1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // The first k-block (g0 == 0) overwrites `out`, later blocks fold on
            // top — so the caller never has to pre-zero the output.
            let fold = g0 != 0;
            let (a0, rest) = a.split_at(k_pad);
            let (a1, rest) = rest.split_at(k_pad);
            let (a2, a3) = rest.split_at(k_pad);
            let (p0, p1, p2, p3) = (a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr());
            let ones = _mm256_set1_epi16(1);
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            // Two 8-column tiles per pass: each broadcast activation quad feeds
            // two weight vectors, halving the broadcast overhead per madd.
            while j + 16 <= n {
                let mut acc00 = seed_avx2(op.add(j), fold);
                let mut acc01 = seed_avx2(op.add(j + 8), fold);
                let mut acc10 = seed_avx2(op.add(n + j), fold);
                let mut acc11 = seed_avx2(op.add(n + j + 8), fold);
                let mut acc20 = seed_avx2(op.add(2 * n + j), fold);
                let mut acc21 = seed_avx2(op.add(2 * n + j + 8), fold);
                let mut acc30 = seed_avx2(op.add(3 * n + j), fold);
                let mut acc31 = seed_avx2(op.add(3 * n + j + 8), fold);
                for g in g0..g1 {
                    let w0: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    let w1: __m256i = _mm256_loadu_si256(bp.add((g * n + j + 8) * 4).cast());
                    let q0 = _mm256_set1_epi32(quad(p0, g));
                    let q1 = _mm256_set1_epi32(quad(p1, g));
                    let q2 = _mm256_set1_epi32(quad(p2, g));
                    let q3 = _mm256_set1_epi32(quad(p3, g));
                    acc00 = _mm256_add_epi32(
                        acc00,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w0), ones),
                    );
                    acc01 = _mm256_add_epi32(
                        acc01,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w1), ones),
                    );
                    acc10 = _mm256_add_epi32(
                        acc10,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w0), ones),
                    );
                    acc11 = _mm256_add_epi32(
                        acc11,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w1), ones),
                    );
                    acc20 = _mm256_add_epi32(
                        acc20,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w0), ones),
                    );
                    acc21 = _mm256_add_epi32(
                        acc21,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w1), ones),
                    );
                    acc30 = _mm256_add_epi32(
                        acc30,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w0), ones),
                    );
                    acc31 = _mm256_add_epi32(
                        acc31,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w1), ones),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc00);
                _mm256_storeu_si256(op.add(j + 8).cast(), acc01);
                _mm256_storeu_si256(op.add(n + j).cast(), acc10);
                _mm256_storeu_si256(op.add(n + j + 8).cast(), acc11);
                _mm256_storeu_si256(op.add(2 * n + j).cast(), acc20);
                _mm256_storeu_si256(op.add(2 * n + j + 8).cast(), acc21);
                _mm256_storeu_si256(op.add(3 * n + j).cast(), acc30);
                _mm256_storeu_si256(op.add(3 * n + j + 8).cast(), acc31);
                j += 16;
            }
            while j + 8 <= n {
                let mut acc0 = seed_avx2(op.add(j), fold);
                let mut acc1 = seed_avx2(op.add(n + j), fold);
                let mut acc2 = seed_avx2(op.add(2 * n + j), fold);
                let mut acc3 = seed_avx2(op.add(3 * n + j), fold);
                for g in g0..g1 {
                    let w: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    let q0 = _mm256_set1_epi32(quad(p0, g));
                    let q1 = _mm256_set1_epi32(quad(p1, g));
                    let q2 = _mm256_set1_epi32(quad(p2, g));
                    let q3 = _mm256_set1_epi32(quad(p3, g));
                    acc0 = _mm256_add_epi32(
                        acc0,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q0, w), ones),
                    );
                    acc1 = _mm256_add_epi32(
                        acc1,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q1, w), ones),
                    );
                    acc2 = _mm256_add_epi32(
                        acc2,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q2, w), ones),
                    );
                    acc3 = _mm256_add_epi32(
                        acc3,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(q3, w), ones),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc0);
                _mm256_storeu_si256(op.add(n + j).cast(), acc1);
                _mm256_storeu_si256(op.add(2 * n + j).cast(), acc2);
                _mm256_storeu_si256(op.add(3 * n + j).cast(), acc3);
                j += 8;
            }
            while j < n {
                for (row, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = seed_scalar(slot, fold);
                    for g in g0..g1 {
                        acc += super::dot4(ar, g, b, (g * n + j) * 4);
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One output row over groups `g0..g1`, 8 columns per vector.
    #[target_feature(enable = "avx2")]
    unsafe fn panel1_avx2(a: &[u8], b: &[i8], o: &mut [i32], n: usize, g0: usize, g1: usize) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let fold = g0 != 0;
            let ones = _mm256_set1_epi16(1);
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = seed_avx2(op.add(j), fold);
                for g in g0..g1 {
                    let w: __m256i = _mm256_loadu_si256(bp.add((g * n + j) * 4).cast());
                    acc = _mm256_add_epi32(
                        acc,
                        _mm256_madd_epi16(
                            _mm256_maddubs_epi16(_mm256_set1_epi32(quad(ap, g)), w),
                            ones,
                        ),
                    );
                }
                _mm256_storeu_si256(op.add(j).cast(), acc);
                j += 8;
            }
            while j < n {
                let slot = op.add(j);
                let mut acc = seed_scalar(slot, fold);
                for g in g0..g1 {
                    acc += super::dot4(a, g, b, (g * n + j) * 4);
                }
                *slot = acc;
                j += 1;
            }
        }
    }

    /// AVX-512 VNNI arm: the same k-group blocking as [`gemm_avx2`], one
    /// `dpbusd` per 4-deep group over 16 columns, and every row of the batch
    /// in a register-blocked panel. With `panel4`, rows run in 4 x 64 panels
    /// and the `rows % 4` leftover rows in one 3 x 64, 2 x 64 or 1 x 128
    /// panel; without it, every row runs in a 1 x 128 panel.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512 F/BW/VL/VNNI and the
    /// slice lengths match (the public dispatcher asserts both).
    // Same GEMM signature rationale as `gemm_avx2`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(crate) unsafe fn gemm_vnni(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        rows: usize,
        k_pad: usize,
        n: usize,
        group_block: usize,
        panel4: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let groups = k_pad / 4;
            let block = group_block.max(1);
            for g0 in (0..groups).step_by(block) {
                let g1 = (g0 + block).min(groups);
                let mut r = 0;
                while r < rows {
                    let take = if panel4 { (rows - r).min(4) } else { 1 };
                    let a = &a[r * k_pad..(r + take) * k_pad];
                    let o = &mut out[r * n..(r + take) * n];
                    match take {
                        4 => panel_vnni::<4, 4>(a, b, o, k_pad, n, g0, g1),
                        3 => panel_vnni::<3, 4>(a, b, o, k_pad, n, g0, g1),
                        2 => panel_vnni::<2, 4>(a, b, o, k_pad, n, g0, g1),
                        _ => panel_vnni::<1, 8>(a, b, o, k_pad, n, g0, g1),
                    }
                    r += take;
                }
            }
        }
    }

    /// `R` output rows over groups `g0..g1`: `16 * T`-column tiles, then
    /// 16-column tiles for the narrow remainder, then the scalar `dot4` tail.
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F/BW/VL/VNNI support, `a` holding `R`
    /// rows of `k_pad` bytes, `o` holding `R` rows of `n` slots, `b` the
    /// K4-packed `k_pad x n` weights and `g1 <= k_pad / 4`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn panel_vnni<const R: usize, const T: usize>(
        a: &[u8],
        b: &[i8],
        o: &mut [i32],
        k_pad: usize,
        n: usize,
        g0: usize,
        g1: usize,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            // The first k-block (g0 == 0) overwrites `out`, later blocks fold on
            // top — so the caller never has to pre-zero the output.
            let fold = g0 != 0;
            let ap: [*const u8; R] = core::array::from_fn(|r| a[r * k_pad..].as_ptr());
            let bp = b.as_ptr();
            let op = o.as_mut_ptr();
            let mut j = 0;
            while j + 16 * T <= n {
                tile_vnni::<R, T>(ap, bp, op, n, j, g0, g1, fold);
                j += 16 * T;
            }
            while j + 16 <= n {
                tile_vnni::<R, 1>(ap, bp, op, n, j, g0, g1, fold);
                j += 16;
            }
            while j < n {
                for (row, &a_r) in ap.iter().enumerate() {
                    let slot = op.add(row * n + j);
                    let mut acc = seed_scalar(slot, fold);
                    for g in g0..g1 {
                        acc += dot4_raw(a_r.add(4 * g), bp.add((g * n + j) * 4));
                    }
                    *slot = acc;
                }
                j += 1;
            }
        }
    }

    /// One `R x 16T` tile at column `j` over groups `g0..g1`, held in `R * T`
    /// zmm accumulators: per k-group, `T` weight loads feed `R` broadcast
    /// activation quads, so every load serves `R` independent `dpbusd`
    /// chains instead of one latency-bound chain. The sums are folded into
    /// the output once per k-block (integer adds — exact regardless of the
    /// split).
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F/BW/VL/VNNI support, `ap` pointing at `R`
    /// activation rows readable through group `g1 - 1`, `bp` at K4-packed
    /// weights of width `n` readable through group `g1 - 1`, and `op` at `R`
    /// output rows of stride `n` with `j + 16 * T <= n`.
    // Every argument is a pointer, a dimension or a blocking bound the
    // tile needs; a struct would only rename them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn tile_vnni<const R: usize, const T: usize>(
        ap: [*const u8; R],
        bp: *const i8,
        op: *mut i32,
        n: usize,
        j: usize,
        g0: usize,
        g1: usize,
        fold: bool,
    ) {
        // SAFETY: the caller upholds this fn's `# Safety` contract: the required target features are enabled and every pointer/shape argument describes the buffers exactly.
        unsafe {
            let mut acc = [[_mm512_setzero_si512(); T]; R];
            for g in g0..g1 {
                let w: [__m512i; T] = core::array::from_fn(|t| {
                    _mm512_loadu_si512(bp.add((g * n + j + 16 * t) * 4).cast())
                });
                for (acc_r, &a_r) in acc.iter_mut().zip(&ap) {
                    let q = _mm512_set1_epi32(quad(a_r, g));
                    for (acc_rt, &w_t) in acc_r.iter_mut().zip(&w) {
                        *acc_rt = _mm512_dpbusd_epi32(*acc_rt, q, w_t);
                    }
                }
            }
            for (row, acc_r) in acc.iter().enumerate() {
                for (t, &acc_rt) in acc_r.iter().enumerate() {
                    let slot = op.add(row * n + j + 16 * t);
                    _mm512_storeu_si512(
                        slot.cast(),
                        _mm512_add_epi32(seed_avx512(slot, fold), acc_rt),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic u7 activations.
    fn activations(rows: usize, k_pad: usize, k: usize, seed: u64) -> Vec<u8> {
        let mut a = vec![0u8; rows * k_pad];
        for r in 0..rows {
            for c in 0..k {
                a[r * k_pad + c] = (((r as u64 + 3) * 37 + c as u64 * 11 + seed) % 128) as u8;
            }
        }
        a
    }

    /// Deterministic signed weights spanning the full i8 quantized range.
    fn weights(k: usize, n: usize, seed: u64) -> Vec<i8> {
        (0..k * n)
            .map(|i| ((((i as u64).wrapping_mul(2654435761) >> 7) + seed) % 255) as i64 - 127)
            .map(|v| v as i8)
            .collect()
    }

    /// All backends the host can run.
    fn backends() -> Vec<Int8Kernel> {
        let mut ks = vec![Int8Kernel::Scalar];
        if avx2_available() {
            ks.push(Int8Kernel::Avx2Maddubs);
        }
        if avx512_vnni_available() {
            ks.push(Int8Kernel::Avx512Vnni);
        }
        ks
    }

    /// Plain unpacked triple loop — independent of the packed layout, so it
    /// cross-checks `pack_weights_k4` and every arm at once.
    fn reference(a: &[u8], wq: &[i8], rows: usize, k_pad: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; rows * n];
        for r in 0..rows {
            for j in 0..n {
                let mut acc = 0i32;
                for c in 0..k {
                    acc += i32::from(a[r * k_pad + c]) * i32::from(wq[c * n + j]);
                }
                out[r * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn pack_weights_k4_layout_and_padding() {
        let (k, n) = (6, 3);
        let wq = weights(k, n, 1);
        let packed = pack_weights_k4(&wq, k, n);
        assert_eq!(packed.len(), padded_k(k) * n);
        for g in 0..padded_k(k) / 4 {
            for j in 0..n {
                for q in 0..4 {
                    let row = 4 * g + q;
                    let want = if row < k { wq[row * n + j] } else { 0 };
                    assert_eq!(packed[(g * n + j) * 4 + q], want, "g={g} j={j} q={q}");
                }
            }
        }
        assert_eq!(padded_k(0), 0);
        assert_eq!(padded_k(1), 4);
        assert_eq!(padded_k(4), 4);
        assert_eq!(padded_k(5), 8);
    }

    #[test]
    fn all_backends_match_the_reference_bit_exactly() {
        // Shapes hit the 4-row panel, the 3-, 2- and 1-row remainder panels,
        // the wide column tiles (64 columns, 128 for a lone row), and the 8-
        // and 16-column vector remainders and scalar column tail of both SIMD
        // arms.
        for (rows, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (6, 37, 41),
            (5, 64, 23),
            (2, 12, 100),
            (9, 31, 33),
            (7, 29, 150),
            (1, 9, 130),
        ] {
            let k_pad = padded_k(k);
            let a = activations(rows, k_pad, k, 7);
            let wq = weights(k, n, 3);
            let packed = pack_weights_k4(&wq, k, n);
            let want = reference(&a, &wq, rows, k_pad, k, n);
            for backend in backends() {
                let mut out = vec![0i32; rows * n];
                gemm_u8i8_i32(backend, &a, &packed, &mut out, rows, k_pad, n);
                assert_eq!(out, want, "{backend:?} rows={rows} k={k} n={n}");
            }
        }
    }

    #[test]
    fn overwrite_semantics_and_saturation_extremes() {
        // A dirty (non-zero) out must be fully overwritten, with the extreme
        // u7 x i8 operands that would saturate maddubs if activations were
        // full u8. Rows 1..=7 put every row panel (4-row and each remainder)
        // on a dirty out; 145 columns reach the wide, 16-column and scalar
        // column tiles; k = 40 spans several k-group blocks, so later blocks
        // fold onto what the first one overwrote.
        for (k, n) in [(8usize, 9usize), (40, 145)] {
            let k_pad = padded_k(k);
            let packed = pack_weights_k4(&vec![-127i8; k * n], k, n);
            let want = -127 * 127 * k as i32;
            for rows in 1..=7usize {
                let a = vec![127u8; rows * k_pad];
                for backend in backends() {
                    let mut out = vec![5i32; rows * n];
                    gemm_u8i8_i32(backend, &a, &packed, &mut out, rows, k_pad, n);
                    assert!(
                        out.iter().all(|&v| v == want),
                        "{backend:?} rows={rows} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn blocking_and_panel_shape_do_not_change_results() {
        // Calls the SIMD arms directly with explicit blocking, so every
        // (group block, panel) pair runs without touching the process-global
        // kernel override or the autotuned parameters. Rows 1..=13 reach
        // every row-panel mix; the widths reach the 64- and 128-column tiles,
        // the 16- (and 8-) column remainders and the scalar column tail.
        if !avx2_available() {
            return;
        }
        let k = 45usize;
        let k_pad = padded_k(k);
        for n in [17usize, 64, 100, 129, 200] {
            let packed = pack_weights_k4(&weights(k, n, 5), k, n);
            for rows in 1..=13usize {
                let a = activations(rows, k_pad, k, 13);
                let mut want = vec![0i32; rows * n];
                gemm_u8i8_i32(Int8Kernel::Scalar, &a, &packed, &mut want, rows, k_pad, n);
                for group_block in [1usize, 2, 3, 8, 64, usize::MAX / 4] {
                    for panel4 in [false, true] {
                        let label =
                            format!("rows={rows} n={n} block={group_block} panel4={panel4}");
                        let mut out = vec![-1i32; rows * n];
                        // SAFETY: AVX2 was detected above; the buffers are
                        // rows x k_pad, k_pad x n and rows x n.
                        unsafe {
                            x86::gemm_avx2(
                                &a,
                                &packed,
                                &mut out,
                                rows,
                                k_pad,
                                n,
                                group_block,
                                panel4,
                            )
                        };
                        assert_eq!(out, want, "avx2 {label}");
                        if avx512_vnni_available() {
                            let mut out = vec![-1i32; rows * n];
                            // SAFETY: AVX-512 VNNI was detected; same shapes
                            // as the AVX2 call.
                            unsafe {
                                x86::gemm_vnni(
                                    &a,
                                    &packed,
                                    &mut out,
                                    rows,
                                    k_pad,
                                    n,
                                    group_block,
                                    panel4,
                                )
                            };
                            assert_eq!(out, want, "vnni {label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn selection_tracks_host_features() {
        assert_eq!(resolve_int8(KernelChoice::Scalar), Int8Kernel::Scalar);
        let auto = resolve_int8(KernelChoice::Auto);
        if avx512_vnni_available() {
            assert_eq!(auto, Int8Kernel::Avx512Vnni);
        } else if avx2_available() {
            assert_eq!(auto, Int8Kernel::Avx2Maddubs);
        } else {
            assert_eq!(auto, Int8Kernel::Scalar);
        }
        assert!(["scalar", "avx2_maddubs", "avx512_vnni"].contains(&selected_int8().name()));
        // VNNI implies the narrower feature reports agree.
        if avx512_vnni_available() {
            assert!(avx512f_available() && avx512bw_available());
        }
    }
}
