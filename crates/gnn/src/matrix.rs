//! Minimal dense `f32` matrix used throughout the GNN.
//!
//! The enclosing subgraphs the MuxLink GNN consumes are small (tens to a
//! few hundred nodes), so simple row-major dense math is both fast enough
//! and easy to verify. No BLAS, no unsafe.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{map_get, DeError, Deserialize, Serialize, Value};

/// A row-major dense matrix of `f32`.
///
/// Serialises as `{"rows", "cols", "data"}` where `data` is one string of
/// the entries' [`f32::to_bits`] patterns, eight lower-case hex digits
/// each, in row-major order. That is lossless by construction — NaN
/// payloads, ±0, subnormals and ±inf included — about a third of the
/// text of decimal floats, and decodes without a `Value` node per entry.
/// The legacy form, `data` as an array of numbers (`null` for NaN), still
/// deserialises.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Shared inner loop of the three streaming GEMM kernels:
/// `out[j] += a * b[j]`, skipping the whole row when the multiplier is
/// zero (common after ReLU). One definition so the skip-zero and
/// per-element ordering semantics of [`Matrix::matmul_into`],
/// [`Matrix::t_matmul_into`] and [`Matrix::t_matmul_rows_into`] cannot
/// drift apart.
#[inline(always)]
fn axpy_skip_zero(out: &mut [f32], b: &[f32], a: f32) {
    if a == 0.0 {
        return;
    }
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

impl Serialize for Matrix {
    fn to_value(&self) -> Value {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut hex = String::with_capacity(8 * self.data.len());
        for v in &self.data {
            let bits = v.to_bits();
            for shift in (0..32).step_by(4).rev() {
                hex.push(char::from(HEX[(bits >> shift) as usize & 0xf]));
            }
        }
        Value::Map(vec![
            ("rows".to_owned(), self.rows.to_value()),
            ("cols".to_owned(), self.cols.to_value()),
            ("data".to_owned(), Value::Str(hex)),
        ])
    }
}

impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let rows = usize::from_value(map_get(v, "rows")?)?;
        let cols = usize::from_value(map_get(v, "cols")?)?;
        let data = match map_get(v, "data")? {
            Value::Str(hex) => f32s_from_hex(hex)?,
            legacy => Vec::<f32>::from_value(legacy)?,
        };
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError(format!(
                "matrix data holds {} values, expected {rows} x {cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

/// Decodes [`Matrix`]'s hex `data` string: eight hex digits per value.
fn f32s_from_hex(hex: &str) -> Result<Vec<f32>, DeError> {
    if !hex.len().is_multiple_of(8) {
        return Err(DeError(format!(
            "matrix hex data has {} digits, not a multiple of 8",
            hex.len()
        )));
    }
    hex.as_bytes()
        .chunks_exact(8)
        .enumerate()
        .map(|(i, word)| {
            word.iter()
                .try_fold(0u32, |bits, &b| {
                    char::from(b).to_digit(16).map(|digit| bits << 4 | digit)
                })
                .map(f32::from_bits)
                .ok_or_else(|| DeError(format!("matrix hex data: bad digit in value {i}")))
        })
        .collect()
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (a workspace slot before first use).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialisation (deterministic in `rng`).
    #[must_use]
    pub fn glorot(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0f32 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics out of range (debug-friendly; hot paths use rows directly).
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols`, reusing the existing
    /// allocation whenever its capacity suffices. All entries are reset
    /// to zero — callers treat the result exactly like a fresh
    /// [`Matrix::zeros`].
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if len == self.data.len() {
            // Fast path: same element count — one memset, no realloc.
            self.data.fill(0.0);
        } else {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes in place *without* clearing: existing entries keep stale
    /// values. Only for buffers whose every entry the caller overwrites
    /// before reading (row copies, `matmul_t_into`-style full writes) —
    /// skipping the zeroing keeps fully-overwritten hot-loop buffers
    /// free of redundant memset traffic.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` a copy of `src`, reusing the existing allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_for_overwrite(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Matrix product `self × rhs`.
    ///
    /// The three product kernels below are the hottest loops in the
    /// model; they iterate whole row slices (`chunks_exact` / `zip`) so
    /// the inner loops carry no per-element bounds checks or index
    /// arithmetic, and skip zero multipliers (common after ReLU).
    /// Each has an `_into` twin that writes into a caller-owned buffer
    /// (resized, allocation reused) with the identical summation order,
    /// so the two variants are bit-for-bit interchangeable.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        out.resize(self.rows, rhs.cols);
        let lc = self.cols.max(1);
        let rc = rhs.cols.max(1);
        // Register tiling over *output rows*: four independent output
        // rows per pass share one streamed read of `rhs`, cutting the
        // streamed-operand traffic 4× and giving the machine four
        // independent accumulation chains per `rhs` row. Every output
        // element still owns a single accumulator summing `a·b` in
        // ascending-k order, so each element is bit-identical to the
        // one-row-at-a-time loop (the ILP-restructuring clause of the
        // numerics policy).
        let mut lq = self.data.chunks_exact(4 * lc);
        let mut oq = out.data.chunks_exact_mut(4 * rc);
        for (ls, os) in (&mut lq).zip(&mut oq) {
            let (l0, rest) = ls.split_at(lc);
            let (l1, rest) = rest.split_at(lc);
            let (l2, l3) = rest.split_at(lc);
            let (o0, rest) = os.split_at_mut(rc);
            let (o1, rest) = rest.split_at_mut(rc);
            let (o2, o3) = rest.split_at_mut(rc);
            for ((((rrow, &a0), &a1), &a2), &a3) in
                rhs.data.chunks_exact(rc).zip(l0).zip(l1).zip(l2).zip(l3)
            {
                axpy_skip_zero(o0, rrow, a0);
                axpy_skip_zero(o1, rrow, a1);
                axpy_skip_zero(o2, rrow, a2);
                axpy_skip_zero(o3, rrow, a3);
            }
        }
        for (lrow, orow) in lq
            .remainder()
            .chunks_exact(lc)
            .zip(oq.into_remainder().chunks_exact_mut(rc))
        {
            for (&a, rrow) in lrow.iter().zip(rhs.data.chunks_exact(rc)) {
                axpy_skip_zero(orow, rrow, a);
            }
        }
    }

    /// `selfᵀ × rhs` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics when row counts disagree.
    #[must_use]
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics when row counts disagree.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        self.t_matmul_body(rhs, 0..self.rows, out);
    }

    /// Shared register-tiled body of [`Matrix::t_matmul_into`] and
    /// [`Matrix::t_matmul_rows_into`]: `out = self[rows]ᵀ × rhs[rows]`.
    ///
    /// Four output rows (columns of `self`) are kept hot per pass while
    /// the `self`/`rhs` row pairs stream through once per tile — the
    /// one-column-at-a-time loop instead re-streamed the whole output
    /// for every input row. Each output element keeps one accumulator
    /// summing its products in ascending input-row order, so every
    /// element is bit-identical to the untiled loop.
    fn t_matmul_body(&self, rhs: &Matrix, rows: std::ops::Range<usize>, out: &mut Matrix) {
        out.resize(self.cols, rhs.cols);
        let rc = rhs.cols.max(1);
        let mut oq = out.data.chunks_exact_mut(4 * rc);
        let mut c = 0;
        for os in &mut oq {
            let (o0, rest) = os.split_at_mut(rc);
            let (o1, rest) = rest.split_at_mut(rc);
            let (o2, o3) = rest.split_at_mut(rc);
            for i in rows.clone() {
                let (lrow, rrow) = (self.row(i), rhs.row(i));
                axpy_skip_zero(o0, rrow, lrow[c]);
                axpy_skip_zero(o1, rrow, lrow[c + 1]);
                axpy_skip_zero(o2, rrow, lrow[c + 2]);
                axpy_skip_zero(o3, rrow, lrow[c + 3]);
            }
            c += 4;
        }
        for (j, orow) in oq.into_remainder().chunks_exact_mut(rc).enumerate() {
            for i in rows.clone() {
                axpy_skip_zero(orow, rhs.row(i), self.row(i)[c + j]);
            }
        }
    }

    /// [`Matrix::t_matmul_into`] restricted to a contiguous row range:
    /// `out = self[rows]ᵀ × rhs[rows]`, visiting the rows in ascending
    /// order with [`Matrix::t_matmul_into`]'s exact inner loop — so over
    /// `0..rows()` it reproduces the full product bit-for-bit, and over a
    /// sample's row segment of a block-diagonal batch it reproduces that
    /// sample's standalone `t_matmul` bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when row counts disagree or the range is out of bounds.
    pub fn t_matmul_rows_into(&self, rhs: &Matrix, rows: std::ops::Range<usize>, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        assert!(rows.end <= self.rows, "row range out of bounds");
        self.t_matmul_body(rhs, rows, out);
    }

    /// `self × rhsᵀ` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics when column counts disagree.
    #[must_use]
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics when column counts disagree.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        // Every output entry is written (`*o = s`), so no pre-zeroing —
        // except the zero-width product, whose empty dots the row
        // chunking below never visits.
        out.resize_for_overwrite(self.rows, rhs.rows);
        if self.cols == 0 {
            out.data.fill(0.0);
            return;
        }
        let rcols = rhs.cols.max(1);
        let lc = self.cols.max(1);
        let oc = rhs.rows.max(1);
        // Pair output rows: two `self` rows share each streamed pass
        // over `rhs`, halving the dominant operand traffic. Combined
        // with the 8-wide dot blocking below that is a 2×8 register
        // tile — 16 independent accumulators, each still summing its
        // own products in ascending column order, so every output
        // element stays bit-identical to the single-dot loop.
        let mut lp = self.data.chunks_exact(2 * lc);
        let mut op = out.data.chunks_exact_mut(2 * oc);
        for (ls, os) in (&mut lp).zip(&mut op) {
            let (l0, l1) = ls.split_at(lc);
            let (o0, o1) = os.split_at_mut(oc);
            let mut oq0 = o0.chunks_exact_mut(8);
            let mut oq1 = o1.chunks_exact_mut(8);
            let mut rq = rhs.data.chunks_exact(8 * rcols);
            for ((osa, osb), rs) in (&mut oq0).zip(&mut oq1).zip(&mut rq) {
                let (r0, rest) = rs.split_at(rcols);
                let (r1, rest) = rest.split_at(rcols);
                let (r2, rest) = rest.split_at(rcols);
                let (r3, rest) = rest.split_at(rcols);
                let (r4, rest) = rest.split_at(rcols);
                let (r5, rest) = rest.split_at(rcols);
                let (r6, r7) = rest.split_at(rcols);
                let mut sa = [0.0f32; 8];
                let mut sb = [0.0f32; 8];
                for (((((((((&a, &b), &c0), &c1), &c2), &c3), &c4), &c5), &c6), &c7) in l0
                    .iter()
                    .zip(l1)
                    .zip(r0)
                    .zip(r1)
                    .zip(r2)
                    .zip(r3)
                    .zip(r4)
                    .zip(r5)
                    .zip(r6)
                    .zip(r7)
                {
                    sa[0] += a * c0;
                    sa[1] += a * c1;
                    sa[2] += a * c2;
                    sa[3] += a * c3;
                    sa[4] += a * c4;
                    sa[5] += a * c5;
                    sa[6] += a * c6;
                    sa[7] += a * c7;
                    sb[0] += b * c0;
                    sb[1] += b * c1;
                    sb[2] += b * c2;
                    sb[3] += b * c3;
                    sb[4] += b * c4;
                    sb[5] += b * c5;
                    sb[6] += b * c6;
                    sb[7] += b * c7;
                }
                osa.copy_from_slice(&sa);
                osb.copy_from_slice(&sb);
            }
            for ((oa, ob), rrow) in oq0
                .into_remainder()
                .iter_mut()
                .zip(oq1.into_remainder().iter_mut())
                .zip(rq.remainder().chunks_exact(rcols))
            {
                let (mut s0, mut s1) = (0.0, 0.0);
                for ((&a, &b), &r) in l0.iter().zip(l1).zip(rrow) {
                    s0 += a * r;
                    s1 += b * r;
                }
                *oa = s0;
                *ob = s1;
            }
        }
        for (lrow, orow) in lp
            .remainder()
            .chunks_exact(lc)
            .zip(op.into_remainder().chunks_exact_mut(oc))
        {
            // Eight dots per pass. Each accumulator sums its own
            // products in ascending column order — bit-identical to the
            // one-dot-at-a-time loop — but the eight independent chains
            // hide FP-add latency, which a single serial dot cannot
            // (a lone `s += a * b` chain is ~4 cycles per element no
            // matter how wide the machine is).
            let mut oq = orow.chunks_exact_mut(8);
            let mut rq = rhs.data.chunks_exact(8 * rcols);
            for (os, rs) in (&mut oq).zip(&mut rq) {
                let (r0, rest) = rs.split_at(rcols);
                let (r1, rest) = rest.split_at(rcols);
                let (r2, rest) = rest.split_at(rcols);
                let (r3, rest) = rest.split_at(rcols);
                let (r4, rest) = rest.split_at(rcols);
                let (r5, rest) = rest.split_at(rcols);
                let (r6, r7) = rest.split_at(rcols);
                let mut s = [0.0f32; 8];
                for ((((((((&a, &b0), &b1), &b2), &b3), &b4), &b5), &b6), &b7) in lrow
                    .iter()
                    .zip(r0)
                    .zip(r1)
                    .zip(r2)
                    .zip(r3)
                    .zip(r4)
                    .zip(r5)
                    .zip(r6)
                    .zip(r7)
                {
                    s[0] += a * b0;
                    s[1] += a * b1;
                    s[2] += a * b2;
                    s[3] += a * b3;
                    s[4] += a * b4;
                    s[5] += a * b5;
                    s[6] += a * b6;
                    s[7] += a * b7;
                }
                os.copy_from_slice(&s);
            }
            for (o, rrow) in oq
                .into_remainder()
                .iter_mut()
                .zip(rq.remainder().chunks_exact(rcols))
            {
                let mut s = 0.0;
                for (&a, &b) in lrow.iter().zip(rrow) {
                    s += a * b;
                }
                *o = s;
            }
        }
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a reusable output buffer.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_for_overwrite(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.hadamard_into(rhs, &mut out);
        out
    }

    /// [`Matrix::hadamard`] into a reusable output buffer.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        out.resize_for_overwrite(self.rows, self.cols);
        for (o, (&a, &b)) in out.data.iter_mut().zip(self.data.iter().zip(&rhs.data)) {
            *o = a * b;
        }
    }

    /// Resets all entries to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&a| a * a).sum::<f32>().sqrt()
    }
}

/// Strided windowed GEMM, vectorised across outputs: the forward of a
/// 1-D convolution whose input windows are contiguous runs of `input`.
///
/// With `cout = wt.cols()` and `len = wt.rows()`, output step `t` reads
/// the window `input[t·stride .. t·stride + len]` and writes
/// `out[t·cout .. (t+1)·cout]`: each output `o` starts at `init[o]` (or
/// `0.0` when `init` is `None`) and adds `window[j] · wt[j][o]` for
/// ascending `j`. That is exactly the per-output dot-product loop over
/// the untransposed weight row, so every element is bit-identical to
/// it; only the loop order differs. `wt` is the transposed weight
/// (`len × cout`), and the independent accumulators run across the
/// contiguous outputs of one weight row (and two steps at a time,
/// sharing each weight load), never along the reduction. No product is
/// skipped: `0 · inf` must stay NaN and `−0 + 0` must become `+0`.
///
/// # Panics
///
/// Panics when `out.len()` is not a multiple of `cout`, `init` has the
/// wrong length, or the last window runs past the end of `input`.
pub fn strided_gemm_into(
    input: &[f32],
    stride: usize,
    wt: &Matrix,
    init: Option<&[f32]>,
    out: &mut [f32],
) {
    let (len, cout) = (wt.rows, wt.cols);
    if cout == 0 {
        return;
    }
    assert_eq!(out.len() % cout, 0, "output is not whole steps");
    let steps = out.len() / cout;
    if let Some(init) = init {
        assert_eq!(init.len(), cout, "init length mismatch");
    }
    if steps > 0 {
        assert!(
            (steps - 1) * stride + len <= input.len(),
            "window past input end"
        );
    }
    let window = |t: usize| &input[t * stride..t * stride + len];
    let mut pairs = out.chunks_exact_mut(2 * cout);
    for (tp, os) in (&mut pairs).enumerate() {
        let (o0, o1) = os.split_at_mut(cout);
        gemm_steps([window(2 * tp), window(2 * tp + 1)], wt, init, [o0, o1]);
    }
    let rest = pairs.into_remainder();
    if !rest.is_empty() {
        gemm_steps([window(steps - 1)], wt, init, [rest]);
    }
}

/// Output width of one register tile of [`strided_gemm_into`].
const GEMM_LANES: usize = 16;

/// `T` output steps of [`strided_gemm_into`]: full `GEMM_LANES`-wide
/// output tiles, then the leftover outputs one at a time.
#[inline(always)]
fn gemm_steps<const T: usize>(
    windows: [&[f32]; T],
    wt: &Matrix,
    init: Option<&[f32]>,
    mut outs: [&mut [f32]; T],
) {
    let cout = wt.cols;
    let tiled = cout - cout % GEMM_LANES;
    for o0 in (0..tiled).step_by(GEMM_LANES) {
        gemm_tile::<T, GEMM_LANES>(&windows, wt, init, o0, &mut outs);
    }
    for o0 in tiled..cout {
        gemm_tile::<T, 1>(&windows, wt, init, o0, &mut outs);
    }
}

/// Outputs `o0..o0+L` of `T` steps: `T·L` accumulators, one per output
/// element, each summing its products in ascending window order.
#[inline(always)]
fn gemm_tile<const T: usize, const L: usize>(
    windows: &[&[f32]; T],
    wt: &Matrix,
    init: Option<&[f32]>,
    o0: usize,
    outs: &mut [&mut [f32]; T],
) {
    let start: [f32; L] = match init {
        Some(init) => init[o0..o0 + L].try_into().expect("tile width"),
        None => [0.0; L],
    };
    let mut acc = [start; T];
    for (j, wrow) in wt.data.chunks_exact(wt.cols).enumerate() {
        let w: &[f32; L] = wrow[o0..o0 + L].try_into().expect("tile width");
        for (a, win) in acc.iter_mut().zip(windows) {
            let p = win[j];
            for (a, &w) in a.iter_mut().zip(w) {
                *a += p * w;
            }
        }
    }
    for (a, out) in acc.iter().zip(outs.iter_mut()) {
        out[o0..o0 + L].copy_from_slice(a);
    }
}

/// Convenience RNG constructor used across the crate.
#[must_use]
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Bit patterns decimal JSON floats cannot carry: NaN payloads (quiet
    /// and signalling, both signs), ±0, the extreme subnormals and ±inf.
    const SPECIAL_BITS: &[u32] = &[
        0x7fc0_0000,
        0x7fc0_0001,
        0xffa0_0000,
        0x7f80_0001,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn serde_round_trips_every_bit_pattern(
            (rows, cols, words) in (0usize..5, 0usize..5).prop_flat_map(|(rows, cols)| {
                let entry = (proptest::num::u64::ANY, 0..2 * SPECIAL_BITS.len());
                proptest::collection::vec(entry, rows * cols..rows * cols + 1)
                    .prop_map(move |words| (rows, cols, words))
            }),
        ) {
            // Half the entries are uniformly random bits, half special
            // patterns.
            let data: Vec<f32> = words
                .iter()
                .map(|&(random, pick)| {
                    let bits = SPECIAL_BITS.get(pick).copied().unwrap_or(random as u32);
                    f32::from_bits(bits)
                })
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            let text = serde_json::to_string(&m).unwrap();
            let back: Matrix = serde_json::from_str(&text).unwrap();
            prop_assert_eq!((back.rows(), back.cols()), (rows, cols));
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&m), "{}", text);
        }
    }

    #[test]
    fn serde_writes_hex_bit_patterns() {
        let m = Matrix::from_vec(1, 3, vec![1.0, -0.0, f32::INFINITY]);
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            r#"{"rows":1,"cols":3,"data":"3f80000080000000 7f800000"}"#.replace(' ', "")
        );
    }

    #[test]
    fn legacy_numeric_arrays_still_load() {
        let m: Matrix =
            serde_json::from_str(r#"{"rows":2,"cols":2,"data":[1.5,-0.25,3,null]}"#).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(&m.data()[..3], &[1.5, -0.25, 3.0]);
        assert!(m.data()[3].is_nan(), "legacy `null` reads back as NaN");
    }

    #[test]
    fn malformed_data_is_rejected() {
        for (text, why) in [
            (r#"{"rows":1,"cols":1,"data":"3f80000"}"#, "multiple of 8"),
            (r#"{"rows":1,"cols":1,"data":"3f8000000"}"#, "multiple of 8"),
            (r#"{"rows":1,"cols":1,"data":"3f80000g"}"#, "bad digit"),
            (r#"{"rows":1,"cols":1,"data":"+f800000"}"#, "bad digit"),
            (r#"{"rows":1,"cols":2,"data":"3f800000"}"#, "expected 1 x 2"),
            (r#"{"rows":2,"cols":1,"data":[1.0]}"#, "expected 2 x 1"),
            (r#"{"rows":0,"cols":0,"data":"00000000"}"#, "expected 0 x 0"),
            (
                r#"{"rows":4294967296,"cols":4294967296,"data":""}"#,
                "expected 4294967296 x 4294967296",
            ),
            (r#"{"rows":1,"cols":1,"data":true}"#, "expected sequence"),
        ] {
            let err = serde_json::from_str::<Matrix>(text)
                .unwrap_err()
                .to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = seeded_rng(1);
        let a = Matrix::glorot(4, 3, &mut rng);
        let b = Matrix::glorot(4, 5, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = seeded_rng(2);
        let a = Matrix::glorot(4, 3, &mut rng);
        let b = Matrix::glorot(5, 3, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        let mut h = a.hadamard(&b);
        assert_eq!(h.data(), &[4., 10., 18.]);
        h.scale(0.5);
        assert_eq!(h.data(), &[2., 5., 9.]);
    }

    #[test]
    fn glorot_within_limit_and_deterministic() {
        let mut r1 = seeded_rng(7);
        let mut r2 = seeded_rng(7);
        let a = Matrix::glorot(10, 20, &mut r1);
        let b = Matrix::glorot(10, 20, &mut r2);
        assert_eq!(a, b);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_accessors() {
        let mut a = Matrix::zeros(2, 2);
        a.row_mut(1)[0] = 9.0;
        assert_eq!(a.get(1, 0), 9.0);
        assert_eq!(a.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn norm_known() {
        let a = Matrix::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn resize_reuses_and_zeroes() {
        let mut a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.resize(1, 3);
        assert_eq!((a.rows(), a.cols()), (1, 3));
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
        a.resize(3, 2);
        assert_eq!(a.data(), &[0.0; 6]);
    }

    #[test]
    fn copy_from_matches_clone() {
        let mut rng = seeded_rng(5);
        let src = Matrix::glorot(3, 4, &mut rng);
        let mut dst = Matrix::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    /// The untiled GEMM loops the register-tiled kernels replaced,
    /// reproduced verbatim: one output row at a time, ascending-k
    /// accumulation, skip on zero multipliers. The tiled kernels must
    /// match these bitwise — "ILP restructuring is not a numerics
    /// change".
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a.get(r, k);
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.data[r * b.cols() + j] += v * b.get(k, j);
                }
            }
        }
        out
    }

    fn naive_t_matmul_rows(a: &Matrix, b: &Matrix, rows: std::ops::Range<usize>) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in rows {
            for c in 0..a.cols() {
                let v = a.get(i, c);
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.data[c * b.cols() + j] += v * b.get(i, j);
                }
            }
        }
        out
    }

    /// Sprinkles exact zeros (the post-ReLU pattern the skip-zero fast
    /// path exists for) into a Glorot matrix, deterministically.
    fn with_zeros(mut m: Matrix, rng: &mut StdRng) -> Matrix {
        for v in &mut m.data {
            if rng.gen_range(0..4) == 0 {
                *v = 0.0;
            }
        }
        m
    }

    #[test]
    fn tiled_gemms_match_untiled_reference_bitwise() {
        let mut rng = seeded_rng(11);
        // Shapes exercise every tile remainder: rows % 4 ∈ {0,1,2,3}
        // for matmul, self.cols % 4 ∈ {0,1,2,3} for the transposed
        // kernels, plus degenerate 1×1 and empty dimensions.
        for &(m, k, n) in &[
            (8, 6, 5),
            (7, 3, 9),
            (6, 4, 4),
            (5, 7, 2),
            (1, 1, 1),
            (4, 0, 3),
            (0, 3, 2),
            (3, 5, 0),
        ] {
            let a = with_zeros(Matrix::glorot(m.max(1), k.max(1), &mut rng), &mut rng);
            let a = Matrix::from_vec(m, k, a.data()[..m * k].to_vec());
            let b = with_zeros(Matrix::glorot(k.max(1), n.max(1), &mut rng), &mut rng);
            let b = Matrix::from_vec(k, n, b.data()[..k * n].to_vec());
            // Dirty, wrongly-shaped output buffers.
            let mut out = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            a.matmul_into(&b, &mut out);
            assert_eq!(out.data(), naive_matmul(&a, &b).data(), "{m}x{k}x{n}");

            // Transposed kernels share rows: self and rhs are (r × ·).
            let l = with_zeros(Matrix::glorot(m.max(1), k.max(1), &mut rng), &mut rng);
            let l = Matrix::from_vec(m, k, l.data()[..m * k].to_vec());
            let r = with_zeros(Matrix::glorot(m.max(1), n.max(1), &mut rng), &mut rng);
            let r = Matrix::from_vec(m, n, r.data()[..m * n].to_vec());
            let mut out = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            l.t_matmul_into(&r, &mut out);
            assert_eq!(out.data(), naive_t_matmul_rows(&l, &r, 0..m).data());
            let lo = m / 3;
            let hi = m - m / 4;
            let mut out = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            l.t_matmul_rows_into(&r, lo..hi, &mut out);
            assert_eq!(out.data(), naive_t_matmul_rows(&l, &r, lo..hi).data());
        }
    }

    /// Pins the 2×8-tiled `matmul_t_into` bitwise to a one-dot-at-a-time
    /// reference across every tile remainder: self.rows % 2 ∈ {0, 1}
    /// (the row pairing) and rhs.rows % 8 ∈ {0..7} (the dot blocking),
    /// plus degenerate shapes.
    #[test]
    fn tiled_matmul_t_matches_single_dot_reference_bitwise() {
        fn naive_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.rows());
            for r in 0..a.rows() {
                for j in 0..b.rows() {
                    let mut s = 0.0f32;
                    for k in 0..a.cols() {
                        s += a.get(r, k) * b.get(j, k);
                    }
                    out.data[r * b.rows() + j] = s;
                }
            }
            out
        }
        let mut rng = seeded_rng(23);
        for &(m, k, n) in &[
            (8, 6, 16),
            (7, 3, 9),
            (5, 7, 13),
            (2, 4, 8),
            (1, 1, 1),
            (3, 0, 5),
            (0, 3, 2),
            (4, 5, 0),
        ] {
            let a = with_zeros(Matrix::glorot(m.max(1), k.max(1), &mut rng), &mut rng);
            let a = Matrix::from_vec(m, k, a.data()[..m * k].to_vec());
            let b = with_zeros(Matrix::glorot(n.max(1), k.max(1), &mut rng), &mut rng);
            let b = Matrix::from_vec(n, k, b.data()[..n * k].to_vec());
            let mut out = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            a.matmul_t_into(&b, &mut out);
            assert_eq!(out.data(), naive_matmul_t(&a, &b).data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_ones() {
        let mut rng = seeded_rng(6);
        let a = Matrix::glorot(4, 3, &mut rng);
        let b = Matrix::glorot(3, 5, &mut rng);
        let c = Matrix::glorot(4, 5, &mut rng);
        let d = Matrix::glorot(6, 3, &mut rng);
        // Dirty, wrongly-shaped buffers must not leak into results.
        let mut out = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.t_matmul_into(&c, &mut out);
        assert_eq!(out, a.t_matmul(&c));
        a.matmul_t_into(&d, &mut out);
        assert_eq!(out, a.matmul_t(&d));
        a.hadamard_into(&a, &mut out);
        assert_eq!(out, a.hadamard(&a));
    }

    /// The conv2 forward loop `strided_gemm_into` replaced, kept as its
    /// oracle: per output, start at the bias and add `w·p` over the
    /// `kk` pooled rows of the window in ascending order. The ReLU that
    /// followed is left out so a −0.0 reaches the comparison.
    fn conv2_oracle(pool_out: &Matrix, w: &Matrix, bias: &[f32], kk: usize) -> Matrix {
        let (c1, c2) = (pool_out.cols(), w.rows());
        let k3 = pool_out.rows() + 1 - kk;
        let mut out = Matrix::zeros(k3, c2);
        for t in 0..k3 {
            for (o, &b) in bias[..c2].iter().enumerate() {
                let wrow = w.row(o);
                let mut acc = b;
                for dt in 0..kk {
                    let prow = pool_out.row(t + dt);
                    let wseg = &wrow[dt * c1..(dt + 1) * c1];
                    for (w, p) in wseg.iter().zip(prow) {
                        acc += w * p;
                    }
                }
                out.set(t, o, acc);
            }
        }
        out
    }

    /// The conv1 forward `strided_gemm_into` replaced, kept as its
    /// oracle: `matmul_t` against the untransposed weight, then the bias
    /// (ReLU left out, as above).
    fn conv1_oracle(pooled: &Matrix, w: &Matrix, bias: &[f32]) -> Matrix {
        let mut out = pooled.matmul_t(w);
        for row in out.data.chunks_exact_mut(w.rows().max(1)) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// A `rows × cols` matrix of mostly Glorot-range values with zeros,
    /// −0.0 and (when `nan`) NaN mixed in, and its last `pad` rows zeroed
    /// the way SortPooling pads a small graph.
    fn conv_input(rows: usize, cols: usize, pad: usize, nan: bool, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = match rng.gen_range(0..16) {
                0 => 0.0,
                1 => -0.0,
                2 if nan => f32::NAN,
                _ => rng.gen_range(-1.0f32..1.0),
            };
        }
        let keep = rows.saturating_sub(pad) * cols;
        m.data[keep..].fill(0.0);
        m
    }

    /// Same bits, or both NaN (NaN payloads are not part of the contract:
    /// the compiler may commute a product's operands).
    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        (a.rows, a.cols) == (b.rows, b.cols)
            && a.data
                .iter()
                .zip(&b.data)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Output widths and step counts that are not multiples of the
        /// 16-lane tile or the 2-step pairing, −0.0 biases (a product of
        /// +0 must turn them into +0), zero-padded rows and NaN inputs.
        #[test]
        fn strided_gemm_matches_conv_oracles_bitwise(
            ((c1, kk, k3), (c2, ccat, seed)) in (
                (1usize..20, 1usize..6, 1usize..20),
                (1usize..40, 1usize..100, proptest::num::u64::ANY),
            ),
        ) {
            let mut rng = seeded_rng(seed);
            let nan = seed % 4 == 0;
            let k2 = k3 + kk - 1;
            let pad = rng.gen_range(0..k2 + 1);
            let bias: Vec<f32> = (0..c2.max(c1))
                .map(|i| if i % 3 == 0 { -0.0 } else { rng.gen_range(-1.0f32..1.0) })
                .collect();

            let pool_out = conv_input(k2, c1, pad, nan, &mut rng);
            let w2 = conv_input(c2, kk * c1, 0, nan, &mut rng);
            let mut out = vec![7.0f32; k3 * c2];
            strided_gemm_into(pool_out.data(), c1, &w2.transpose(), Some(&bias[..c2]), &mut out);
            let got = Matrix::from_vec(k3, c2, out);
            prop_assert!(same_bits(&got, &conv2_oracle(&pool_out, &w2, &bias, kk)), "conv2 {c1} {kk} {k3} {c2}");

            let k = 2 * k2;
            let pooled = conv_input(k, ccat, pad, nan, &mut rng);
            let w1 = conv_input(c1, ccat, 0, nan, &mut rng);
            let mut out = vec![7.0f32; k * c1];
            strided_gemm_into(pooled.data(), ccat, &w1.transpose(), None, &mut out);
            for row in out.chunks_exact_mut(c1) {
                for (v, &b) in row.iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            let got = Matrix::from_vec(k, c1, out);
            prop_assert!(same_bits(&got, &conv1_oracle(&pooled, &w1, &bias[..c1])), "conv1 {k} {ccat} {c1}");
        }
    }
}
