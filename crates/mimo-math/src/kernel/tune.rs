//! One-shot startup autotuning of GEMM blocking parameters.
//!
//! The f32 and int8 GEMM arms block their inner-dimension loop so the
//! streamed weight panel stays cache-resident across the batch, and the int8
//! arms optionally walk 4-row panels so one loaded weight vector feeds four
//! accumulators. The best block sizes depend on the host's cache hierarchy,
//! so instead of hard-coding them this module times a handful of candidates
//! on a representative tail-shaped GEMM **once per process** (lazily, at the
//! first dispatched GEMM) and pins the winner.
//!
//! `SPLITBEAM_TUNE=off` skips the probe and pins [`DEFAULT`] — the constants
//! the kernels shipped with — for strictly reproducible run-to-run perf. Any
//! other value (or unset) probes.
//!
//! Autotuning can never change *results*, only speed: the int8 arms
//! accumulate exact `i32` sums (associative), and the f32 FMA arm keeps one
//! FMA chain per output element whose accumulator round-trips memory
//! losslessly between blocks, so every candidate produces bit-identical
//! output. The kernel test suite pins both properties.

use std::sync::OnceLock;

/// Blocking parameters shared by the dispatched GEMM arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// Inner-dimension rows per block of the f32 FMA-tier GEMM (AVX-512F or
    /// AVX2 body, whichever the host runs).
    pub f32_k_block: usize,
    /// 4-deep k-groups per block of the int8 arms (a block spans
    /// `4 * int8_group_block` inner-dimension rows).
    pub int8_group_block: usize,
    /// Whether the int8 arms use the 4-row output panel (one weight load
    /// feeding four accumulators) or plain row-at-a-time panels.
    pub int8_panel4: bool,
    /// `true` when these values came from the startup probe, `false` when
    /// pinned to the shipped constants (`SPLITBEAM_TUNE=off`, non-SIMD hosts).
    pub probed: bool,
}

/// The shipped constants: the blocking the kernels used before autotuning.
pub const DEFAULT: TuneParams = TuneParams {
    f32_k_block: 16,
    int8_group_block: 8,
    int8_panel4: true,
    probed: false,
};

/// The process-wide blocking parameters: resolved by the one-shot probe on
/// first use (or pinned to [`DEFAULT`] under `SPLITBEAM_TUNE=off`), then a
/// cheap shared read forever after.
pub fn params() -> &'static TuneParams {
    static PARAMS: OnceLock<TuneParams> = OnceLock::new();
    PARAMS.get_or_init(|| compute(tuning_off()))
}

/// `SPLITBEAM_TUNE=off` (case-insensitive) pins the shipped constants; every
/// other value — including malformed ones — keeps the probe enabled.
fn tuning_off() -> bool {
    matches!(
        crate::env::raw("SPLITBEAM_TUNE")
            .map(|v| v.to_ascii_lowercase())
            .as_deref(),
        Some("off")
    )
}

/// Resolves the parameters: [`DEFAULT`] when disabled or on hosts without the
/// SIMD arms (the scalar loops take no blocking), otherwise the probe winner.
fn compute(disabled: bool) -> TuneParams {
    if disabled {
        return DEFAULT;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if super::avx2_fma_available() || super::int8::avx2_available() {
            return probe();
        }
    }
    DEFAULT
}

/// Times each candidate on a tail-shaped workload (best of three runs after a
/// warm-up) and returns the fastest blocking per arm.
#[cfg(target_arch = "x86_64")]
fn probe() -> TuneParams {
    use std::time::Instant;

    // Representative of the tail layers: a modest batch against a weight
    // panel much larger than L1 but smaller than L2, so blocking choices
    // actually move the needle without making the probe slow (a few ms
    // total).
    const ROWS: usize = 8;
    const K: usize = 384;
    const N: usize = 512;
    // Best-of-(REPS-1) per candidate (the first rep only warms caches): on a
    // busy single-core host a scheduler hiccup in a small sample can hand a
    // slow blocking a lucky minimum and pin it for the whole process, so
    // spend a few extra reps to make the winner stable.
    const REPS: usize = 10;

    let mut best = DEFAULT;
    best.probed = true;

    // Reps are interleaved round-robin across candidates (not candidate by
    // candidate), so frequency scaling or a background burst drifts over
    // every candidate equally instead of handing whichever candidate ran
    // during the quiet window a spuriously fast minimum.
    if super::avx2_fma_available() {
        const K_BLOCKS: [usize; 4] = [8, 16, 32, 64];
        let a: Vec<f32> = (0..ROWS * K)
            .map(|i| ((i % 251) as f32) * 0.01 - 1.2)
            .collect();
        let b: Vec<f32> = (0..K * N)
            .map(|i| ((i % 509) as f32) * 0.004 - 1.0)
            .collect();
        let mut out = vec![0.0f32; ROWS * N];
        let mut candidate_ns = [u128::MAX; K_BLOCKS.len()];
        for rep in 0..REPS {
            for (slot, &k_block) in candidate_ns.iter_mut().zip(&K_BLOCKS) {
                out.fill(0.0);
                let t = Instant::now();
                // SAFETY: this probe only runs after `avx2_fma_available()`
                // (checked by the caller); the buffers were sized ROWS*K,
                // K*N and ROWS*N above. The FMA tier picks the body the
                // dispatched GEMM runs on this host (AVX-512F or AVX2).
                unsafe { super::gemm_f32_fma(&a, &b, &mut out, K, N, k_block, false, |_| {}) };
                let ns = t.elapsed().as_nanos();
                if rep > 0 {
                    *slot = (*slot).min(ns);
                }
            }
        }
        let mut best_ns = u128::MAX;
        for (&ns, &k_block) in candidate_ns.iter().zip(&K_BLOCKS) {
            if ns < best_ns {
                best_ns = ns;
                best.f32_k_block = k_block;
            }
        }
    }

    if super::int8::avx2_available() {
        // `usize::MAX / 4` effectively disables k-blocking: one in-register
        // accumulation sweep per column tile, output folded exactly once.
        const GROUP_BLOCKS: [usize; 5] = [4, 8, 16, 64, usize::MAX / 4];
        const PANELS: [bool; 2] = [true, false];
        let k_pad = super::int8::padded_k(K);
        let a: Vec<u8> = (0..ROWS * k_pad).map(|i| (i % 128) as u8).collect();
        let b: Vec<i8> = (0..k_pad * N)
            .map(|i| ((i % 255) as i64 - 127) as i8)
            .collect();
        let mut out = vec![0i32; ROWS * N];
        let vnni = super::int8::avx512_vnni_available();
        let mut candidate_ns = [[u128::MAX; PANELS.len()]; GROUP_BLOCKS.len()];
        for rep in 0..REPS {
            for (row, &group_block) in candidate_ns.iter_mut().zip(&GROUP_BLOCKS) {
                for (slot, &panel4) in row.iter_mut().zip(&PANELS) {
                    out.fill(0);
                    let t = Instant::now();
                    // SAFETY: the caller checked `avx2_available()` and
                    // `vnni` selects the VNNI body only when
                    // `avx512_vnni_available()`; buffer shapes match the
                    // ROWS/k_pad/N sizing above.
                    unsafe {
                        if vnni {
                            super::int8::x86::gemm_vnni(
                                &a,
                                &b,
                                &mut out,
                                ROWS,
                                k_pad,
                                N,
                                group_block,
                                panel4,
                            );
                        } else {
                            super::int8::x86::gemm_avx2(
                                &a,
                                &b,
                                &mut out,
                                ROWS,
                                k_pad,
                                N,
                                group_block,
                                panel4,
                            );
                        }
                    }
                    let ns = t.elapsed().as_nanos();
                    if rep > 0 {
                        *slot = (*slot).min(ns);
                    }
                }
            }
        }
        let mut best_ns = u128::MAX;
        for (row, &group_block) in candidate_ns.iter().zip(&GROUP_BLOCKS) {
            for (&ns, &panel4) in row.iter().zip(&PANELS) {
                if ns < best_ns {
                    best_ns = ns;
                    best.int8_group_block = group_block;
                    best.int8_panel4 = panel4;
                }
            }
        }
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_pins_the_shipped_constants() {
        let pinned = compute(true);
        assert_eq!(pinned, DEFAULT);
        assert!(!pinned.probed);
        assert_eq!(pinned.f32_k_block, 16);
    }

    #[test]
    fn probe_picks_from_the_candidate_sets() {
        let p = compute(false);
        #[cfg(target_arch = "x86_64")]
        if super::super::int8::avx2_available() {
            assert!(p.probed);
            assert!([8, 16, 32, 64].contains(&p.f32_k_block));
            assert!([4, 8, 16, 64, usize::MAX / 4].contains(&p.int8_group_block));
        }
        // On non-SIMD hosts the probe is skipped entirely.
        if !super::super::avx2_fma_available() && !super::super::int8::avx2_available() {
            assert_eq!(p, DEFAULT);
        }
    }

    #[test]
    fn params_is_cached_and_stable() {
        let a = *params();
        let b = *params();
        assert_eq!(a, b);
        assert!(a.f32_k_block >= 8 && a.int8_group_block >= 1);
    }
}
