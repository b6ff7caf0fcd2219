//! Dense `f32` matrices for the neural-network engine.
//!
//! [`Matrix`] is row-major. Alongside the allocating convenience methods it
//! provides the write-into kernels the training/inference hot paths are built
//! on: [`Matrix::matmul_into`], the fused affine-plus-activation epilogue
//! [`Matrix::matmul_bias_act_into`], and the transpose-free products
//! [`Matrix::matmul_at_b_into`] / [`Matrix::matmul_a_bt_into`] that replace
//! the full-matrix `transpose()` allocations of the backward pass. All of them
//! dispatch through [`mimo_math::kernel`]: under the scalar backend they
//! accumulate in the same element order as the naive kernels, so results are
//! bit-identical; the AVX2+FMA backend uses 8-wide fused-multiply-add
//! microkernels and agrees within FMA rounding.

use crate::layer::Activation;
use mimo_math::kernel::{self, Kernel};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// ```
/// use neural::Matrix;
/// let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = Matrix::from_rows(3, 1, &[1.0, 0.0, -1.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[-2.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a single-row matrix from a vector (used for network inputs).
    pub fn row_vector(data: &[f32]) -> Self {
        Self::from_rows(1, data.len(), data)
    }

    /// Xavier/Glorot-uniform initialization, the standard choice for tanh MLPs.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-limit..limit);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only view of the row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes this matrix to `rows x cols` with all entries zero, reusing the
    /// existing storage when it is large enough.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` for a caller that overwrites every element:
    /// existing storage is kept as-is (stale values and all) and only growth
    /// beyond the current length is zero-filled, skipping the full memset of
    /// [`Self::reshape_zeroed`]. Crate-private because exposing stale data
    /// would be a footgun; every caller must write all `rows * cols` entries
    /// before reading.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into this matrix, reshaping as needed and reusing storage.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Number of `rhs` rows processed per block of [`Matrix::matmul_into`]:
    /// a block of `16 x cols` f32 weights stays L1-resident and is reused
    /// across every row of the batch.
    const MATMUL_K_BLOCK: usize = 16;

    /// Matrix product `self * rhs` written into `out` (reshaped, storage
    /// reused), using the runtime-selected kernel backend
    /// ([`mimo_math::kernel::selected`]).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(rhs, out, kernel::selected());
    }

    /// [`Matrix::matmul_into`] with an explicit kernel backend — the seam the
    /// dispatch-parity tests and per-kernel benchmarks use.
    ///
    /// **Scalar**: register-blocked 4x4 micro-kernel — four output rows share
    /// every loaded `rhs` (weight) row, and four inner-dimension terms
    /// accumulate per output element between one load and one store of the
    /// accumulator. Bit-identical to the plain triple loop: every output
    /// element still accumulates its `k` terms in ascending order (the blocks
    /// only interleave *different* accumulators, and f32 temporaries in
    /// registers round identically to memory round trips), and exact-zero `a`
    /// terms are still skipped.
    ///
    /// **AVX2+FMA**: an 8-wide FMA microkernel ([`kernel::gemm_f32`]), one
    /// fused-multiply-add chain per output element over ascending `k` — so
    /// single-row and batched calls stay bit-identical to each other, which
    /// the fused dequantize→tail path depends on.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into_with(&self, rhs: &Matrix, out: &mut Matrix, kern: Kernel) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_zeroed(self.rows, rhs.cols);
        let n = rhs.cols;
        let m = self.cols;
        if n == 0 || m == 0 {
            return;
        }
        if kern != Kernel::Scalar {
            kernel::gemm_f32(kern, &self.data, &rhs.data, &mut out.data, m, n);
            return;
        }
        for k0 in (0..m).step_by(Self::MATMUL_K_BLOCK) {
            let k1 = (k0 + Self::MATMUL_K_BLOCK).min(m);
            let mut r = 0;
            while r + 4 <= self.rows {
                Self::panel4_kernel(
                    &self.data[r * m..(r + 4) * m],
                    &rhs.data,
                    &mut out.data[r * n..(r + 4) * n],
                    m,
                    n,
                    k0,
                    k1,
                );
                r += 4;
            }
            while r < self.rows {
                Self::row_kernel(
                    &self.data[r * m..(r + 1) * m],
                    &rhs.data,
                    &mut out.data[r * n..(r + 1) * n],
                    n,
                    k0,
                    k1,
                );
                r += 1;
            }
        }
    }

    /// One output row over `k0..k1`: four inner terms per accumulator store.
    fn row_kernel(a: &[f32], b: &[f32], o: &mut [f32], n: usize, k0: usize, k1: usize) {
        let mut k = k0;
        while k + 4 <= k1 {
            let ak = [a[k], a[k + 1], a[k + 2], a[k + 3]];
            if ak.iter().all(|&v| v != 0.0) {
                let (b0, rest) = b[k * n..(k + 4) * n].split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for i in 0..n {
                    let mut t = o[i];
                    t += ak[0] * b0[i];
                    t += ak[1] * b1[i];
                    t += ak[2] * b2[i];
                    t += ak[3] * b3[i];
                    o[i] = t;
                }
            } else {
                Self::axpy4_skip(&ak, b, o, n, k);
            }
            k += 4;
        }
        while k < k1 {
            Self::axpy1_skip(a[k], &b[k * n..(k + 1) * n], o);
            k += 1;
        }
    }

    /// Four output rows sharing each weight row over `k0..k1`.
    fn panel4_kernel(
        a: &[f32],
        b: &[f32],
        o: &mut [f32],
        m: usize,
        n: usize,
        k0: usize,
        k1: usize,
    ) {
        let (a0, rest) = a.split_at(m);
        let (a1, rest) = rest.split_at(m);
        let (a2, a3) = rest.split_at(m);
        let (o0, rest) = o.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut k = k0;
        while k + 8 <= k1 {
            let av = [
                [
                    a0[k],
                    a0[k + 1],
                    a0[k + 2],
                    a0[k + 3],
                    a0[k + 4],
                    a0[k + 5],
                    a0[k + 6],
                    a0[k + 7],
                ],
                [
                    a1[k],
                    a1[k + 1],
                    a1[k + 2],
                    a1[k + 3],
                    a1[k + 4],
                    a1[k + 5],
                    a1[k + 6],
                    a1[k + 7],
                ],
                [
                    a2[k],
                    a2[k + 1],
                    a2[k + 2],
                    a2[k + 3],
                    a2[k + 4],
                    a2[k + 5],
                    a2[k + 6],
                    a2[k + 7],
                ],
                [
                    a3[k],
                    a3[k + 1],
                    a3[k + 2],
                    a3[k + 3],
                    a3[k + 4],
                    a3[k + 5],
                    a3[k + 6],
                    a3[k + 7],
                ],
            ];
            if av.iter().flatten().all(|&v| v != 0.0) {
                let bs = &b[k * n..(k + 8) * n];
                for i in 0..n {
                    let bv = [
                        bs[i],
                        bs[n + i],
                        bs[2 * n + i],
                        bs[3 * n + i],
                        bs[4 * n + i],
                        bs[5 * n + i],
                        bs[6 * n + i],
                        bs[7 * n + i],
                    ];
                    let mut t0 = o0[i];
                    let mut t1 = o1[i];
                    let mut t2 = o2[i];
                    let mut t3 = o3[i];
                    for j in 0..8 {
                        t0 += av[0][j] * bv[j];
                        t1 += av[1][j] * bv[j];
                        t2 += av[2][j] * bv[j];
                        t3 += av[3][j] * bv[j];
                    }
                    o0[i] = t0;
                    o1[i] = t1;
                    o2[i] = t2;
                    o3[i] = t3;
                }
            } else {
                Self::axpy8_skip(&av[0], b, o0, n, k);
                Self::axpy8_skip(&av[1], b, o1, n, k);
                Self::axpy8_skip(&av[2], b, o2, n, k);
                Self::axpy8_skip(&av[3], b, o3, n, k);
            }
            k += 8;
        }
        while k < k1 {
            let br = &b[k * n..(k + 1) * n];
            Self::axpy1_skip(a0[k], br, o0);
            Self::axpy1_skip(a1[k], br, o1);
            Self::axpy1_skip(a2[k], br, o2);
            Self::axpy1_skip(a3[k], br, o3);
            k += 1;
        }
    }

    /// `o += a[j] * b_row(k + j)` for the non-zero terms, in ascending-k order.
    fn axpy4_skip(ak: &[f32; 4], b: &[f32], o: &mut [f32], n: usize, k: usize) {
        for (j, &av) in ak.iter().enumerate() {
            Self::axpy1_skip(av, &b[(k + j) * n..(k + j + 1) * n], o);
        }
    }

    /// Eight-term variant of [`Matrix::axpy4_skip`].
    fn axpy8_skip(ak: &[f32; 8], b: &[f32], o: &mut [f32], n: usize, k: usize) {
        for (j, &av) in ak.iter().enumerate() {
            Self::axpy1_skip(av, &b[(k + j) * n..(k + j + 1) * n], o);
        }
    }

    /// `o += av * br`, skipping an exact-zero scale.
    fn axpy1_skip(av: f32, br: &[f32], o: &mut [f32]) {
        if av == 0.0 {
            return;
        }
        for (ov, &bv) in o.iter_mut().zip(br.iter()) {
            *ov += av * bv;
        }
    }

    /// Fused dense-layer forward kernel: `out = act(self * w + bias)`.
    ///
    /// The bias add and activation run as an epilogue over the accumulated
    /// product, eliminating the two intermediate matrices (and two full memory
    /// passes) of the naive `matmul` → `add_row_broadcast` → `apply` chain.
    /// The arithmetic per element is unchanged, so the result is bit-identical
    /// to that chain.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `bias` is not a `1 x w.cols()`
    /// row vector.
    pub fn matmul_bias_act_into(
        &self,
        w: &Matrix,
        bias: &Matrix,
        activation: Activation,
        out: &mut Matrix,
    ) {
        self.matmul_bias_act_into_with(w, bias, activation, out, kernel::selected());
    }

    /// [`Matrix::matmul_bias_act_into`] with an explicit kernel backend.
    ///
    /// Under the SIMD backend the output is written in one pass
    /// ([`kernel::gemm_f32_then`]): rows go in L2-sized blocks, the first
    /// k-block seeds its accumulators with zero instead of a pre-zeroed
    /// `out`, and the bias + activation epilogue runs on each block while it
    /// is still cache-hot. Per element that is the same FMA chain and the
    /// same epilogue as [`Matrix::matmul_into_with`] followed by a separate
    /// sweep, so the two agree bit-for-bit; the scalar backend runs exactly
    /// that two-step chain.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree or `bias` is not a `1 x w.cols()`
    /// row vector.
    pub fn matmul_bias_act_into_with(
        &self,
        w: &Matrix,
        bias: &Matrix,
        activation: Activation,
        out: &mut Matrix,
        kern: Kernel,
    ) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "bias width mismatch");
        let epilogue = |block: &mut [f32]| {
            for row in block.chunks_exact_mut(w.cols) {
                for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                    *o = activation.eval(*o + b);
                }
            }
        };
        if kern == Kernel::Scalar {
            self.matmul_into_with(w, out, kern);
            epilogue(&mut out.data);
            return;
        }
        assert_eq!(
            self.cols, w.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, w.rows, w.cols
        );
        out.reshape_for_overwrite(self.rows, w.cols);
        kernel::gemm_f32_then(
            kern,
            &self.data,
            &w.data,
            &mut out.data,
            self.cols,
            w.cols,
            epilogue,
        );
    }

    /// Transpose-free product `self^T * rhs` written into `out`, using the
    /// runtime-selected kernel backend.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_at_b_into_with(rhs, out, kernel::selected());
    }

    /// [`Matrix::matmul_at_b_into`] with an explicit kernel backend.
    ///
    /// Replaces `self.transpose().matmul(rhs)` (the weight-gradient step of
    /// backpropagation) without materializing the transpose; under the scalar
    /// backend the accumulation order matches, so results are bit-identical.
    /// The AVX2 backend runs one 8-wide FMA axpy per `(r, k)` term.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_at_b_into_with(&self, rhs: &Matrix, out: &mut Matrix, kern: Kernel) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b dimension mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_zeroed(self.cols, rhs.cols);
        for r in 0..self.cols {
            for k in 0..self.rows {
                let a = self.data[k * self.cols + r];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                kernel::saxpy(kern, a, rhs_row, out_row);
            }
        }
    }

    /// Transpose-free product `self * rhs^T` written into `out`, using the
    /// runtime-selected kernel backend.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_a_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_a_bt_into_with(rhs, out, kernel::selected());
    }

    /// [`Matrix::matmul_a_bt_into`] with an explicit kernel backend.
    ///
    /// Replaces `self.matmul(&rhs.transpose())` (the input-gradient step of
    /// backpropagation). Both operands are traversed along contiguous rows —
    /// a dot product per output entry — with the same `k` accumulation order
    /// as the naive chain under the scalar backend, so results are
    /// bit-identical there. The AVX2 backend reduces with four independent
    /// vector accumulators ([`kernel::sdot`]).
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_a_bt_into_with(&self, rhs: &Matrix, out: &mut Matrix, kern: Kernel) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_zeroed(self.rows, rhs.rows);
        for r in 0..self.rows {
            let a_row = &self.data[r * self.cols..(r + 1) * self.cols];
            let out_row = &mut out.data[r * rhs.rows..(r + 1) * rhs.rows];
            for (o, b_row) in out_row.iter_mut().zip(rhs.data.chunks_exact(self.cols)) {
                // No zero-skip here: inside a dot product it saves one FMA but
                // defeats vectorization, and adding `0.0 * b` is bit-neutral
                // for finite operands.
                *o = kernel::sdot(kern, a_row, b_row);
            }
        }
    }

    /// Sums the rows of `src` into `self` as a `1 x cols` row vector (reshaped).
    pub fn sum_rows_into(&mut self, src: &Matrix) {
        self.reshape_zeroed(1, src.cols);
        for r in 0..src.rows {
            for c in 0..src.cols {
                self.data[c] += src.data[r * src.cols + c];
            }
        }
    }

    /// In-place update `self -= rhs * k`, the allocation-free form of
    /// `self.sub(&rhs.scale(k))` used by the optimizers.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub_scaled_assign(&mut self, rhs: &Matrix, k: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        for (o, &g) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o -= g * k;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a row vector to every row of the matrix (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.cols() != self.cols()` or `bias.rows() != 1`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Sums the rows into a single row vector (used for bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, k: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * k).collect(),
        }
    }

    /// Applies a function to every entry.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Entry accessor.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_and_sum_rows_are_inverse_shapes() {
        let x = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let bias = Matrix::from_rows(1, 2, &[10.0, -10.0]);
        let shifted = x.add_row_broadcast(&bias);
        assert_eq!(shifted.get(2, 0), 13.0);
        assert_eq!(shifted.get(2, 1), -7.0);
        let sums = x.sum_rows();
        assert_eq!(sums.as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn xavier_initialization_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = Matrix::xavier_uniform(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= limit));
        // Not all zero.
        assert!(w.as_slice().iter().any(|&v| v.abs() > 1e-6));
    }

    #[test]
    fn map_scale_hadamard() {
        let a = Matrix::from_rows(1, 3, &[1.0, -2.0, 3.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.hadamard(&a).as_slice(), &[1.0, 4.0, 9.0]);
        assert!((a.mean() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Plain triple loop, ascending `k`, one rounded add per term — the
    /// arithmetic the scalar backend must reproduce bit-for-bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(r, k) * b.get(k, c);
                }
                out.as_mut_slice()[r * b.cols() + c] = acc;
            }
        }
        out
    }

    #[test]
    fn into_kernels_match_naive_on_edge_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        // Non-square and 1xN / Nx1 shapes. The scalar backend is the
        // bit-exactness reference, so the comparison pins it explicitly and
        // holds regardless of what SPLITBEAM_KERNEL dispatched.
        for (m, k, n) in [
            (1, 1, 1),
            (1, 5, 1),
            (5, 1, 5),
            (1, 3, 4),
            (4, 3, 1),
            (2, 7, 3),
        ] {
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut out = Matrix::zeros(1, 1);
            let mut reference = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, Kernel::Scalar);
            assert_eq!(out, naive_matmul(&a, &b), "matmul {m}x{k}*{k}x{n}");

            let at = Matrix::xavier_uniform(k, m, &mut rng);
            at.matmul_at_b_into_with(&b, &mut out, Kernel::Scalar);
            at.transpose()
                .matmul_into_with(&b, &mut reference, Kernel::Scalar);
            assert_eq!(out, reference, "at_b {k}x{m}^T*{k}x{n}");

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut out, Kernel::Scalar);
            a.matmul_into_with(&bt.transpose(), &mut reference, Kernel::Scalar);
            assert_eq!(out, reference, "a_bt {m}x{k}*({n}x{k})^T");
        }
    }

    #[test]
    fn simd_backend_matches_scalar_within_tolerance() {
        use mimo_math::kernel::avx2_fma_available;
        if !avx2_fma_available() {
            // Graceful fallback hosts: the dispatched path IS the scalar path.
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // The shapes the 2x2 / 3x3 / 4x4 configurations drive through the
        // dense layers (batch x in x out), plus edge cases.
        for (m, k, n) in [
            (1, 448, 56),
            (16, 448, 56),
            (12, 545, 4356),
            (1, 896, 112),
            (5, 1, 5),
            (3, 7, 33),
        ] {
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut scalar = Matrix::zeros(1, 1);
            let mut simd = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
            a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
            let tol = 1e-5 * (k as f32).sqrt();
            for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert!((s - v).abs() <= tol, "matmul drift {m}x{k}x{n}: {s} vs {v}");
            }

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut scalar, Kernel::Scalar);
            a.matmul_a_bt_into_with(&bt, &mut simd, Kernel::Avx2Fma);
            for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert!((s - v).abs() <= tol, "a_bt drift {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn one_pass_fused_layer_matches_matmul_then_epilogue_bitwise() {
        // The SIMD backend writes the fused layer in one pass (row blocks,
        // zero-seeded first k-block, epilogue per hot block). It must equal
        // matmul followed by a separate bias + activation sweep, bit for
        // bit, also into a dirty, differently shaped `out`. The 1452-wide
        // output puts 44 rows in a row block, so 133 rows span three blocks
        // plus a leftover panel.
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        for (rows, k, n) in [
            (1, 17, 1452),
            (3, 17, 1452),
            (133, 17, 1452),
            (610, 56, 224),
        ] {
            let a = Matrix::xavier_uniform(rows, k, &mut rng);
            let w = Matrix::xavier_uniform(k, n, &mut rng);
            let bias = Matrix::xavier_uniform(1, n, &mut rng);
            for activation in [Activation::Identity, Activation::Tanh] {
                for kern in [Kernel::Scalar, Kernel::Avx2Fma] {
                    let mut want = Matrix::zeros(1, 1);
                    a.matmul_into_with(&w, &mut want, kern);
                    for row in want.data.chunks_exact_mut(n) {
                        for (o, &b) in row.iter_mut().zip(bias.as_slice()) {
                            *o = activation.eval(*o + b);
                        }
                    }
                    let mut got = Matrix::xavier_uniform(rows + 2, n + 3, &mut rng);
                    a.matmul_bias_act_into_with(&w, &bias, activation, &mut got, kern);
                    assert_eq!((got.rows(), got.cols()), (rows, n));
                    let bits = |m: &Matrix| -> Vec<u32> {
                        m.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{rows}x{k}x{n} {activation:?} {kern:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sum_rows_into_matches_sum_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let a = Matrix::xavier_uniform(4, 3, &mut rng);
        let mut out = Matrix::zeros(1, 1);
        out.sum_rows_into(&a);
        assert_eq!(out, a.sum_rows());
    }

    #[test]
    fn sub_scaled_assign_matches_sub_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let base = Matrix::xavier_uniform(3, 3, &mut rng);
        let grad = Matrix::xavier_uniform(3, 3, &mut rng);
        let expected = base.sub(&grad.scale(0.01));
        let mut updated = base.clone();
        updated.sub_scaled_assign(&grad, 0.01);
        assert_eq!(updated, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_into_kernels_match_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6,
                                         seed in 0u64..300) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(m, k, &mut rng);
            let b = Matrix::xavier_uniform(k, n, &mut rng);
            let mut out = Matrix::zeros(1, 1);
            a.matmul_into_with(&b, &mut out, Kernel::Scalar);
            prop_assert_eq!(&out, &naive_matmul(&a, &b));

            let at = Matrix::xavier_uniform(k, m, &mut rng);
            at.matmul_at_b_into_with(&b, &mut out, Kernel::Scalar);
            prop_assert_eq!(&out, &naive_matmul(&at.transpose(), &b));

            let bt = Matrix::xavier_uniform(n, k, &mut rng);
            a.matmul_a_bt_into_with(&bt, &mut out, Kernel::Scalar);
            prop_assert_eq!(&out, &naive_matmul(&a, &bt.transpose()));
        }

        #[test]
        fn prop_simd_gemm_parity(m in 1usize..5, k in 1usize..40, n in 1usize..40,
                                 seed in 0u64..200) {
            use mimo_math::kernel::avx2_fma_available;
            if avx2_fma_available() {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let a = Matrix::xavier_uniform(m, k, &mut rng);
                let b = Matrix::xavier_uniform(k, n, &mut rng);
                let mut scalar = Matrix::zeros(1, 1);
                let mut simd = Matrix::zeros(1, 1);
                a.matmul_into_with(&b, &mut scalar, Kernel::Scalar);
                a.matmul_into_with(&b, &mut simd, Kernel::Avx2Fma);
                let tol = 1e-5 * (k as f32).sqrt();
                for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                    prop_assert!((s - v).abs() <= tol);
                }
            }
        }

        #[test]
        fn prop_matmul_distributes_over_add(n in 1usize..5, seed in 0u64..200) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(n, n, &mut rng);
            let b = Matrix::xavier_uniform(n, n, &mut rng);
            let c = Matrix::xavier_uniform(n, n, &mut rng);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_transpose_of_product(n in 1usize..5, seed in 0u64..200) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::xavier_uniform(n, n, &mut rng);
            let b = Matrix::xavier_uniform(n, n, &mut rng);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
