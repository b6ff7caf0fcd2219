//! Fused dequantize→tail-inference kernel.
//!
//! The AP's per-round hot path used to be: dequantize every payload into a
//! fresh `Vec<f32>`, stack the vectors into a freshly allocated batch matrix,
//! then run the tail network layer by layer with intermediate matrices. This
//! module fuses the chain: payload codes are dequantized straight into one
//! arena-owned strip (a `batch x bottleneck` block that is reused round after
//! round — no per-payload heap `Vec`), the first tail layer runs as a single
//! panel-blocked GEMM over that strip with the bias + activation epilogue in
//! the same pass, and the remaining tail layers ping-pong between two
//! reusable matrices.
//!
//! **Exactness.** The dequantized strip is computed by
//! [`dequantize_bottleneck_into`] (bit-identical to the allocating
//! dequantizer), and the first layer runs through the very
//! [`neural::Matrix::matmul_bias_act_into_with`] kernel the unfused
//! per-payload path uses, whose per-element accumulation is independent of
//! the batch shape under every backend — so a fused batched reconstruction
//! is bit-identical to dequantize-then-reconstruct, payload by payload, for
//! both the scalar and the AVX2 backend. The batched-equals-serial property
//! of the serving layer therefore survives kernel dispatch unchanged.

use crate::model::SplitBeamModel;
use crate::quantization::{dequantize_bottleneck_into, QuantizedFeedback};
use crate::SplitBeamError;
use mimo_math::kernel::int8::Int8Kernel;
use mimo_math::kernel::{self, Kernel};
use neural::quant::{QuantScratch, QuantizedDense};
use neural::Matrix;

/// Which tail-weight representation the serving layer runs.
///
/// Parsed from `SPLITBEAM_TAIL_WEIGHTS`: `int8` selects the quantized path;
/// `f32`, unset, blank, and malformed values all select the f32 master
/// weights — the default stays bit-exact with the pre-quantization serving
/// output under both existing kernel backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailWeights {
    /// The f32 master weights (the historical, bit-exact default).
    #[default]
    F32,
    /// Per-output-channel symmetric int8 weights via [`QuantizedTail`].
    Int8,
}

impl TailWeights {
    /// Resolves the knob from `SPLITBEAM_TAIL_WEIGHTS`.
    pub fn from_env() -> Self {
        match mimo_math::env::raw("SPLITBEAM_TAIL_WEIGHTS")
            .map(|v| v.to_ascii_lowercase())
            .as_deref()
        {
            Some("int8") => TailWeights::Int8,
            _ => TailWeights::F32,
        }
    }

    /// Stable lower-snake name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            TailWeights::F32 => "f32",
            TailWeights::Int8 => "int8",
        }
    }
}

/// Reusable buffers for one fused batched tail reconstruction: the
/// one-payload dequantization strip, the two layer-output ping-pong
/// matrices, and the int8 activation/accumulator scratch. Hold one per
/// serving loop; after the first round at the largest batch size a
/// reconstruction performs no heap allocation.
#[derive(Debug, Clone)]
pub struct TailScratch {
    /// Dequantized bottleneck strip for the whole batch (`batch x bottleneck`).
    strip: Matrix,
    ping: Matrix,
    pong: Matrix,
    /// u7 activation codes + i32 accumulator for the quantized path.
    quant: QuantScratch,
}

impl TailScratch {
    /// Creates an empty scratch; buffers grow to their high-water marks on use.
    pub fn new() -> Self {
        Self {
            strip: Matrix::zeros(1, 1),
            ping: Matrix::zeros(1, 1),
            pong: Matrix::zeros(1, 1),
            quant: QuantScratch::new(),
        }
    }
}

impl Default for TailScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SplitBeamModel {
    /// **AP side, batched + fused**: reconstructs many quantized payloads with
    /// the dequantization fused into the first tail-layer GEMM, using the
    /// runtime-selected kernel backend. Returns the `batch x output_dim`
    /// matrix held by `scratch` (row `i` is payload `i`'s reconstruction).
    ///
    /// Results are bit-identical to
    /// [`SplitBeamModel::reconstruct_quantized`] applied per payload.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the batch is empty
    /// or a payload's code count differs from the bottleneck width.
    pub fn reconstruct_quantized_batch_into<'a>(
        &self,
        payloads: &[&QuantizedFeedback],
        scratch: &'a mut TailScratch,
    ) -> Result<&'a Matrix, SplitBeamError> {
        self.reconstruct_quantized_batch_iter_into(
            payloads.iter().copied(),
            payloads.len(),
            scratch,
            kernel::selected(),
        )
    }

    /// Iterator form of [`SplitBeamModel::reconstruct_quantized_batch_into`]
    /// with an explicit kernel backend — the allocation-free seam the serving
    /// layer drives (no payload-reference slice needs materializing) and the
    /// entry point the dispatch-parity tests pin.
    ///
    /// `batch` must equal the iterator's length.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the batch is empty,
    /// the iterator yields fewer than `batch` payloads, or a payload's code
    /// count differs from the bottleneck width.
    pub fn reconstruct_quantized_batch_iter_into<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kern: Kernel,
    ) -> Result<&'a Matrix, SplitBeamError>
    where
        I: Iterator<Item = &'p QuantizedFeedback>,
    {
        let tail = self.tail();
        let dim = tail.input_dim();
        let layers = tail.layers();
        let first = &layers[0];
        fill_strip(&mut scratch.strip, payloads, batch, dim)?;

        // First layer: one blocked GEMM over the strip with the bias +
        // activation epilogue fused — the very kernel the unfused per-payload
        // path runs, so fused == unfused bit-for-bit under every backend.
        scratch.strip.matmul_bias_act_into_with(
            &first.weights,
            &first.bias,
            first.activation,
            &mut scratch.ping,
            kern,
        );

        // Remaining tail layers ping-pong between the two scratch matrices.
        let mut cur = &mut scratch.ping;
        let mut next = &mut scratch.pong;
        for layer in &layers[1..] {
            layer.infer_into_with(cur, next, kern);
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }
}

/// Dequantizes every payload straight into the arena strip (row `r` is
/// payload `r`'s bottleneck) — the only materialization of the batch, in
/// storage that is reused round after round. The f32 reconstruction path;
/// the int8 path maps codes directly via [`quantize_codes_u7`] under the
/// same batch-validation rules.
fn fill_strip<'p, I>(
    strip: &mut Matrix,
    payloads: I,
    batch: usize,
    dim: usize,
) -> Result<(), SplitBeamError>
where
    I: Iterator<Item = &'p QuantizedFeedback>,
{
    if batch == 0 {
        return Err(SplitBeamError::DimensionMismatch(
            "empty fused reconstruction batch".into(),
        ));
    }
    let mut payloads = payloads;
    // Every success path dequantizes all `batch` rows of `dim` values (each
    // payload is checked to carry exactly `dim` codes); every error path
    // returns before the strip is read. So the memset is skipped.
    strip.reshape_for_overwrite(batch, dim);
    let mut rows = 0usize;
    // Chunks drive the zip so it never consumes a payload beyond `batch`
    // (zip pulls from its first iterator before checking the second).
    for (strip_row, payload) in strip
        .as_mut_slice()
        .chunks_exact_mut(dim)
        .zip(&mut payloads)
    {
        if payload.codes.len() != dim {
            return Err(SplitBeamError::DimensionMismatch(format!(
                "payload carries {} codes, bottleneck width is {dim}",
                payload.codes.len()
            )));
        }
        dequantize_bottleneck_into(payload, strip_row);
        rows += 1;
    }
    if rows != batch || payloads.next().is_some() {
        return Err(SplitBeamError::DimensionMismatch(format!(
            "fused batch declared {batch} payloads, iterator yielded {}",
            if rows != batch {
                rows.to_string()
            } else {
                format!("more than {batch}")
            }
        )));
    }
    Ok(())
}

/// Maps one payload's wire codes straight to the first int8 layer's u7
/// activation codes, skipping the dequantize-to-f32 round trip.
///
/// The dequantized value of wire code `c` is `v(c) = (min + c * step) as f32`
/// — **exactly** the [`dequantize_bottleneck_into`] formula — and the u7
/// row quantization of `v` uses the exact
/// [`neural::quant::QuantizedDense`] formula
/// (`round_ties_even`, clamp to `0..=127`). Because `v` is affine in `c`,
/// the row's value range is attained at the integer code extremes, so one
/// cheap integer min/max scan replaces the f32 scan; and because at most
/// `2^bits` distinct codes exist, payloads at wire widths ≤ 8 bits go
/// through a ≤256-entry LUT (one formula evaluation per *distinct* code
/// instead of per element). Wider payloads evaluate per element. Both routes
/// compute the identical expression, so the resulting codes — and therefore
/// the reconstruction — are independent of the route taken.
///
/// Returns the `(scale, min)` row parameters for
/// [`QuantizedDense::matmul_bias_act_from_rows`]; `dst` must hold exactly
/// `payload.codes.len()` bytes.
fn quantize_codes_u7(payload: &QuantizedFeedback, dst: &mut [u8]) -> (f32, f32) {
    let levels = f64::from((1u32 << payload.bits_per_value) - 1);
    let step = (f64::from(payload.max) - f64::from(payload.min)) / levels;
    let base = f64::from(payload.min);
    let value = |c: u16| (base + f64::from(c) * step) as f32;
    let (mut cmin, mut cmax) = (u16::MAX, u16::MIN);
    for &c in &payload.codes {
        cmin = cmin.min(c);
        cmax = cmax.max(c);
    }
    // `v` is affine in `c`, so the extreme values sit at the extreme codes
    // whichever sign `step` has (a corrupt payload may carry max < min).
    let va = value(cmin);
    let vb = value(cmax);
    let lo = va.min(vb);
    let hi = va.max(vb);
    let scale = (hi - lo) / 127.0;
    // `scale > 0.0` is false for a constant payload (scale == 0), a
    // degenerate/non-finite range, or NaN — every element is the zero point
    // `lo`, codes all zero. Deliberately not `scale <= 0.0`: that would let
    // NaN through.
    let positive = scale > 0.0;
    if !positive {
        dst.fill(0);
        return (0.0, lo);
    }
    let inv = 1.0 / scale;
    let q = |c: u16| ((value(c) - lo) * inv).round_ties_even().clamp(0.0, 127.0) as u8;
    if payload.bits_per_value <= 8 {
        let mut lut = [0u8; 256];
        for (c, e) in lut.iter_mut().enumerate().take(cmax as usize + 1) {
            *e = q(c as u16);
        }
        for (d, &c) in dst.iter_mut().zip(&payload.codes) {
            *d = lut[c as usize];
        }
    } else {
        for (d, &c) in dst.iter_mut().zip(&payload.codes) {
            *d = q(c);
        }
    }
    (scale, lo)
}

/// A model's tail network with every layer's weights quantized to
/// per-output-channel symmetric int8 ([`neural::quant::QuantizedDense`]),
/// bound **once** from the f32 master model. The master model is never
/// modified — servers hold a `QuantizedTail` *next to* each registered
/// [`SplitBeamModel`] and pick a path per round via [`TailWeights`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTail {
    layers: Vec<QuantizedDense>,
    bottleneck: usize,
    output_dim: usize,
}

impl QuantizedTail {
    /// Quantizes and packs every tail layer of `model` (the one-time
    /// bind-time cost; the serving hot path only streams the packed bytes).
    pub fn bind(model: &SplitBeamModel) -> Self {
        let layers: Vec<QuantizedDense> = model
            .tail()
            .layers()
            .iter()
            .map(QuantizedDense::quantize)
            .collect();
        let output_dim = layers.last().map(QuantizedDense::output_dim).unwrap_or(0);
        Self {
            layers,
            bottleneck: model.bottleneck_dim(),
            output_dim,
        }
    }

    /// The bottleneck width payloads must carry.
    pub fn bottleneck_dim(&self) -> usize {
        self.bottleneck
    }

    /// The reconstruction width (rows of the output matrix).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Total quantized weight bytes streamed per batch across all layers —
    /// ~4x smaller than the f32 master tail.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(QuantizedDense::weight_bytes).sum()
    }

    /// **AP side, batched + fused, int8**: the quantized counterpart of
    /// [`SplitBeamModel::reconstruct_quantized_batch_iter_into`] — same batch
    /// validation, but the wire codes are mapped **directly** to the first
    /// layer's u7 activation codes (a per-payload LUT, see
    /// [`quantize_codes_u7`]) with no dequantize-to-f32 strip in between, and
    /// every layer runs the integer GEMM tier on `kernel` with the shared
    /// epilogue.
    ///
    /// Outputs are bit-identical across integer backends and batch shapes
    /// (exact i32 accumulation), so batched, serial, sharded and streaming
    /// serving agree under the int8 path exactly as they do under f32.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] under the same
    /// conditions as the f32 path.
    pub fn reconstruct_quantized_batch_iter_into<'a, 'p, I>(
        &self,
        payloads: I,
        batch: usize,
        scratch: &'a mut TailScratch,
        kernel: Int8Kernel,
    ) -> Result<&'a Matrix, SplitBeamError>
    where
        I: Iterator<Item = &'p QuantizedFeedback>,
    {
        if batch == 0 {
            return Err(SplitBeamError::DimensionMismatch(
                "empty fused reconstruction batch".into(),
            ));
        }
        let (first, rest) = self
            .layers
            .split_first()
            .expect("a bound tail always has at least one layer");
        // The row filler consumes the iterator directly — payloads are
        // validated and code-mapped row by row with no intermediate
        // collection, keeping the serving hot path allocation-free.
        let mut payloads = payloads;
        first.try_matmul_bias_act_from_rows(
            batch,
            |r, dst| {
                let payload = payloads.next().ok_or_else(|| {
                    SplitBeamError::DimensionMismatch(format!(
                        "fused batch declared {batch} payloads, iterator yielded {r}"
                    ))
                })?;
                if payload.codes.len() != self.bottleneck {
                    return Err(SplitBeamError::DimensionMismatch(format!(
                        "payload carries {} codes, bottleneck width is {}",
                        payload.codes.len(),
                        self.bottleneck
                    )));
                }
                Ok(quantize_codes_u7(payload, dst))
            },
            &mut scratch.quant,
            &mut scratch.ping,
            kernel,
        )?;
        if payloads.next().is_some() {
            return Err(SplitBeamError::DimensionMismatch(format!(
                "fused batch declared {batch} payloads, iterator yielded more than {batch}"
            )));
        }
        let mut cur = &mut scratch.ping;
        let mut next = &mut scratch.pong;
        for layer in rest {
            layer.matmul_bias_act_into(cur, &mut scratch.quant, next, kernel);
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// Serial reference: reconstructs one payload through the quantized tail
    /// (allocating its own scratch — the station-at-a-time verification path,
    /// not the hot path). Bit-identical to a batch-of-one fused call.
    ///
    /// # Errors
    /// Returns [`SplitBeamError::DimensionMismatch`] when the payload's code
    /// count differs from the bottleneck width.
    pub fn reconstruct_quantized(
        &self,
        payload: &QuantizedFeedback,
        kernel: Int8Kernel,
    ) -> Result<Vec<f32>, SplitBeamError> {
        let mut scratch = TailScratch::new();
        let out = self.reconstruct_quantized_batch_iter_into(
            std::iter::once(payload),
            1,
            &mut scratch,
            kernel,
        )?;
        Ok(out.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompressionLevel, SplitBeamConfig};
    use crate::quantization::{dequantize_bottleneck, quantize_bottleneck};
    use mimo_math::kernel::avx2_fma_available;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn model(seed: u64, deeper: bool) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut config = SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneEighth,
        );
        if deeper {
            config = config.with_extra_tail_layer();
        }
        SplitBeamModel::new(config, &mut rng)
    }

    fn payloads_for(model: &SplitBeamModel, count: usize, bits: u8) -> Vec<QuantizedFeedback> {
        let dim = model.bottleneck_dim();
        (0..count)
            .map(|i| {
                let values: Vec<f32> = (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.173).sin() * 0.4)
                    .collect();
                quantize_bottleneck(&values, bits)
            })
            .collect()
    }

    fn kernels() -> Vec<Kernel> {
        let mut ks = vec![Kernel::Scalar];
        if avx2_fma_available() {
            ks.push(Kernel::Avx2Fma);
        }
        ks
    }

    /// Reference: dequantize then run the tail per payload with the same
    /// explicit kernel.
    fn unfused(model: &SplitBeamModel, payload: &QuantizedFeedback, kern: Kernel) -> Vec<f32> {
        let bottleneck = dequantize_bottleneck(payload);
        let mut x = Matrix::row_vector(&bottleneck);
        let mut out = Matrix::zeros(1, 1);
        for layer in model.tail().layers() {
            layer.infer_into_with(&x, &mut out, kern);
            std::mem::swap(&mut x, &mut out);
        }
        x.as_slice().to_vec()
    }

    #[test]
    fn fused_matches_dequantize_then_matmul_bitwise_per_kernel() {
        for deeper in [false, true] {
            let m = model(11, deeper);
            let payloads = payloads_for(&m, 5, 6);
            let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
            for kern in kernels() {
                let mut scratch = TailScratch::new();
                let out = m
                    .reconstruct_quantized_batch_iter_into(
                        refs.iter().copied(),
                        refs.len(),
                        &mut scratch,
                        kern,
                    )
                    .unwrap();
                assert_eq!(out.rows(), 5);
                for (i, payload) in payloads.iter().enumerate() {
                    let want = unfused(&m, payload, kern);
                    let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
                    assert_eq!(got, &want[..], "kern {kern:?} deeper={deeper} row {i}");
                }
            }
        }
    }

    #[test]
    fn fused_dispatch_matches_public_reconstruct_quantized() {
        // The dispatched entry point must agree bit-for-bit with the
        // single-payload public path (which dispatches the same backend).
        let m = model(13, false);
        let payloads = payloads_for(&m, 3, 12);
        let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
        let mut scratch = TailScratch::new();
        let out = m
            .reconstruct_quantized_batch_into(&refs, &mut scratch)
            .unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            let want = m.reconstruct_quantized(payload).unwrap();
            let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
            assert_eq!(got, &want[..], "row {i}");
        }
    }

    #[test]
    fn fused_batch_validation() {
        let m = model(17, false);
        let mut scratch = TailScratch::new();
        assert!(matches!(
            m.reconstruct_quantized_batch_into(&[], &mut scratch),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let short = quantize_bottleneck(&[0.5; 3], 8);
        assert!(matches!(
            m.reconstruct_quantized_batch_into(&[&short], &mut scratch),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        // A declared batch smaller or larger than the iterator is an error,
        // never a silent truncation.
        let payloads = payloads_for(&m, 3, 8);
        for declared in [2usize, 5] {
            assert!(
                matches!(
                    m.reconstruct_quantized_batch_iter_into(
                        payloads.iter(),
                        declared,
                        &mut scratch,
                        Kernel::Scalar,
                    ),
                    Err(SplitBeamError::DimensionMismatch(_))
                ),
                "declared {declared} vs 3 yielded must error"
            );
        }
    }

    #[test]
    fn scratch_is_reused_across_rounds() {
        let m = model(19, false);
        let payloads = payloads_for(&m, 4, 8);
        let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
        let mut scratch = TailScratch::new();
        m.reconstruct_quantized_batch_into(&refs, &mut scratch)
            .unwrap();
        let strip_ptr = scratch.strip.as_slice().as_ptr();
        let ping_ptr = scratch.ping.as_slice().as_ptr();
        m.reconstruct_quantized_batch_into(&refs, &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.strip.as_slice().as_ptr(),
            strip_ptr,
            "strip must be reused"
        );
        assert_eq!(
            scratch.ping.as_slice().as_ptr(),
            ping_ptr,
            "layer buffer must be reused"
        );
    }

    fn int8_backends() -> Vec<Int8Kernel> {
        use mimo_math::kernel::int8;
        let mut ks = vec![Int8Kernel::Scalar];
        if int8::avx2_available() {
            ks.push(Int8Kernel::Avx2Maddubs);
        }
        if int8::avx512_vnni_available() {
            ks.push(Int8Kernel::Avx512Vnni);
        }
        ks
    }

    #[test]
    fn tail_weights_knob_parses_defensively() {
        assert_eq!(TailWeights::default(), TailWeights::F32);
        assert_eq!(TailWeights::F32.name(), "f32");
        assert_eq!(TailWeights::Int8.name(), "int8");
        std::env::set_var("SPLITBEAM_TAIL_WEIGHTS", " INT8 ");
        assert_eq!(TailWeights::from_env(), TailWeights::Int8);
        // f32, typos, and blank all fall back to the bit-exact default.
        for v in ["f32", "int9", "quantized", ""] {
            std::env::set_var("SPLITBEAM_TAIL_WEIGHTS", v);
            assert_eq!(TailWeights::from_env(), TailWeights::F32, "value {v:?}");
        }
        std::env::remove_var("SPLITBEAM_TAIL_WEIGHTS");
        assert_eq!(TailWeights::from_env(), TailWeights::F32);
    }

    #[test]
    fn quantized_tail_tracks_the_f32_tail() {
        // Accuracy sanity at one point: int8-weight reconstruction stays
        // close to the f32 reconstruction of the same payload.
        let m = model(41, true);
        let tail = QuantizedTail::bind(&m);
        assert_eq!(tail.bottleneck_dim(), m.bottleneck_dim());
        assert!(tail.weight_bytes() > 0);
        let payloads = payloads_for(&m, 4, 10);
        let mut scratch = TailScratch::new();
        let out = tail
            .reconstruct_quantized_batch_iter_into(
                payloads.iter(),
                payloads.len(),
                &mut scratch,
                Int8Kernel::Scalar,
            )
            .unwrap();
        assert_eq!(out.cols(), tail.output_dim());
        for (i, payload) in payloads.iter().enumerate() {
            let want = m.reconstruct_quantized(payload).unwrap();
            let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
            let err: f32 = got
                .iter()
                .zip(want.iter())
                .map(|(g, w)| (g - w).abs())
                .fold(0.0, f32::max);
            assert!(err < 0.05, "payload {i}: max abs int8-vs-f32 error {err}");
        }
    }

    #[test]
    fn quantized_batch_validation_matches_f32_path() {
        let m = model(43, false);
        let tail = QuantizedTail::bind(&m);
        let mut scratch = TailScratch::new();
        assert!(matches!(
            tail.reconstruct_quantized_batch_iter_into(
                std::iter::empty(),
                0,
                &mut scratch,
                Int8Kernel::Scalar
            ),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
        let short = quantize_bottleneck(&[0.5; 3], 8);
        assert!(matches!(
            tail.reconstruct_quantized(&short, Int8Kernel::Scalar),
            Err(SplitBeamError::DimensionMismatch(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fused == dequantize-then-matmul across quantizer widths 1..=16 and
        /// batch sizes, for every available kernel backend.
        #[test]
        fn prop_fused_parity_across_widths(bits in 1u8..=16, batch in 1usize..6, seed in 0u64..100) {
            let m = model(seed.wrapping_add(29), seed % 2 == 0);
            let payloads = payloads_for(&m, batch, bits);
            let refs: Vec<&QuantizedFeedback> = payloads.iter().collect();
            for kern in kernels() {
                let mut scratch = TailScratch::new();
                let out = m.reconstruct_quantized_batch_iter_into(
                    refs.iter().copied(), batch, &mut scratch, kern,
                ).unwrap();
                for (i, payload) in payloads.iter().enumerate() {
                    let want = unfused(&m, payload, kern);
                    let got = &out.as_slice()[i * out.cols()..(i + 1) * out.cols()];
                    prop_assert_eq!(got, &want[..]);
                }
            }
        }

        /// Int8-weight reconstruction matches the scalar int8 reference
        /// bit-exactly across every available integer backend, quantizer
        /// widths 1..=16, batch sizes and tail depths — and is independent of
        /// batch shape (batch-of-N equals N batches-of-one).
        #[test]
        fn prop_int8_reconstruction_bit_exact_across_backends(
            bits in 1u8..=16, batch in 1usize..6, seed in 0u64..100,
        ) {
            let m = model(seed.wrapping_add(57), seed % 2 == 1);
            let tail = QuantizedTail::bind(&m);
            let payloads = payloads_for(&m, batch, bits);
            let mut scratch = TailScratch::new();
            let want: Vec<u32> = tail
                .reconstruct_quantized_batch_iter_into(
                    payloads.iter(), batch, &mut scratch, Int8Kernel::Scalar,
                )
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for backend in int8_backends() {
                let got: Vec<u32> = tail
                    .reconstruct_quantized_batch_iter_into(
                        payloads.iter(), batch, &mut scratch, backend,
                    )
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(&got, &want, "backend {:?}", backend);
                // Serial (batch-of-one) reference agrees bitwise too.
                let n = want.len() / batch;
                for (i, payload) in payloads.iter().enumerate() {
                    let row: Vec<u32> = tail
                        .reconstruct_quantized(payload, backend)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    prop_assert_eq!(&row[..], &want[i * n..(i + 1) * n], "row {}", i);
                }
            }
        }
    }
}
