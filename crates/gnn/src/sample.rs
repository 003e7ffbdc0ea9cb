//! Model-facing input type and the normalised graph-propagation operator.
//!
//! Adjacency is flat CSR ([`Csr`]): two dense arrays (row offsets +
//! neighbour indices) plus precomputed `1/(1 + deg)` scales. The
//! propagation kernels walk those arrays linearly — no per-node `Vec`
//! indirection — and have `_into` variants that write into reusable
//! buffers for the zero-allocation scoring path.
//!
//! # Determinism contract
//!
//! [`propagate`] sums each node's own feature row first, then its
//! neighbours' rows in ascending neighbour order (the order [`Csr`]
//! stores); [`propagate_back`] scatters in ascending node order. The
//! summation order is a pure function of the graph, so outputs are
//! bit-identical across runs, thread counts and buffer reuse. The
//! integration-test support crate keeps adjacency-list reference
//! implementations that define this order; the property suite asserts
//! exact equality between the CSR kernels and the references.

use muxlink_graph::{
    Csr, CsrView, Layer0PlanView, OneHotFeatures, OneHotView, SampleArena, SampleHandle,
};

use crate::isa::kernel;
use crate::matrix::{axpy_rows_tiled, Matrix};

/// One graph-classification example: flat CSR adjacency plus node
/// features (and, for training, a binary label).
///
/// MuxLink's node information matrix X is two-hot by construction (one
/// gate-type bit, one DRNL-label bit per row), so features are carried
/// in that compact form — 8 bytes per node instead of `4 · cols` — and
/// the first graph-convolution layer consumes the sparse rows of `S·X`
/// built from it (see [`plan_matmul_into()`]).
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// CSR adjacency over local node indices (sorted neighbour runs).
    pub adj: Csr,
    /// `n × d` two-hot node features (gate-type ⊕ DRNL-label one-hots).
    pub features: OneHotFeatures,
    /// Class label (`true` = positive/link) when known.
    pub label: Option<bool>,
}

impl GraphSample {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }

    /// Borrowed view of this sample — the form the model consumes (an
    /// arena-pooled sample yields the identical type, which is what
    /// keeps the two storage paths bit-identical).
    #[must_use]
    pub fn view(&self) -> SampleView<'_> {
        SampleView {
            adj: self.adj.view(),
            features: self.features.view(),
            label: self.label,
        }
    }
}

/// One graph-classification example **by reference**: borrowed CSR
/// adjacency and features, either from an owned [`GraphSample`] (via
/// [`GraphSample::view`]) or from one sample's rows inside a pooled
/// [`SampleArena`]. Every model entry point consumes this type, so
/// owned and arena-pooled samples run the exact same kernels on the
/// exact same values — bit-identical by construction.
#[derive(Debug, Clone, Copy)]
pub struct SampleView<'a> {
    /// CSR adjacency over local node indices (sorted neighbour runs).
    pub adj: CsrView<'a>,
    /// `n × d` two-hot node features.
    pub features: OneHotView<'a>,
    /// Class label (`true` = positive/link) when known.
    pub label: Option<bool>,
}

impl SampleView<'_> {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }
}

impl<'a> From<&'a GraphSample> for SampleView<'a> {
    fn from(s: &'a GraphSample) -> Self {
        s.view()
    }
}

/// Read-only indexed collection of samples the trainer, evaluator and
/// batch scorer iterate: an arena-backed [`ArenaSamples`] or a
/// slice/`Vec` of hand-made [`GraphSample`]s. Implementations must be
/// cheap to `view` — it is called inside the per-sample hot loop.
pub trait SampleStore: Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Borrowed view of sample `i`.
    fn view(&self, i: usize) -> SampleView<'_>;

    /// True when the store holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SampleStore for [GraphSample] {
    fn len(&self) -> usize {
        <[GraphSample]>::len(self)
    }

    fn view(&self, i: usize) -> SampleView<'_> {
        self[i].view()
    }
}

impl SampleStore for Vec<GraphSample> {
    fn len(&self) -> usize {
        <[GraphSample]>::len(self)
    }

    fn view(&self, i: usize) -> SampleView<'_> {
        self[i].view()
    }
}

/// Samples stored in a pooled [`SampleArena`], viewed under a fixed
/// dataset label budget: the arena-backed [`SampleStore`].
///
/// `handles` selects and orders the samples (training splits hold
/// shuffled handle lists); [`ArenaSamples::all`] covers a whole arena in
/// push order (the streaming scorer's shape, where the arena *is* the
/// current chunk).
#[derive(Debug, Clone, Copy)]
pub struct ArenaSamples<'a> {
    arena: &'a SampleArena,
    handles: Option<&'a [SampleHandle]>,
    max_label: u32,
}

impl<'a> ArenaSamples<'a> {
    /// Every sample of `arena`, in push order.
    #[must_use]
    pub fn all(arena: &'a SampleArena, max_label: u32) -> Self {
        Self {
            arena,
            handles: None,
            max_label,
        }
    }

    /// The selected samples of `arena`, in `handles` order.
    #[must_use]
    pub fn select(arena: &'a SampleArena, handles: &'a [SampleHandle], max_label: u32) -> Self {
        Self {
            arena,
            handles: Some(handles),
            max_label,
        }
    }
}

impl SampleStore for ArenaSamples<'_> {
    fn len(&self) -> usize {
        self.handles.map_or(self.arena.len(), <[SampleHandle]>::len)
    }

    fn view(&self, i: usize) -> SampleView<'_> {
        let h = self
            .handles
            .map_or_else(|| self.arena.nth_handle(i), |hs| hs[i]);
        SampleView {
            adj: self.arena.adj(h),
            features: self.arena.one_hot(h, self.max_label),
            label: self.arena.label(h),
        }
    }
}

// ---------------------------------------------------------------------
// SIMD-friendly row primitives (ROADMAP "SIMD-width kernels" follow-up).
//
// Every hot inner loop below is an element-wise row operation whose
// per-element chains are independent (`acc[i] += a · src[i]` — no
// accumulation *across* elements). Processing the rows in fixed
// `chunks_exact::<8>` blocks with a scalar tail keeps the per-element
// operation order untouched — the results are **bit-identical** to the
// plain zipped loops — while giving the autovectorizer a constant-width,
// bounds-check-free body.
//
// Measured outcome (`benches/kernels.rs`, baseline x86-64 target): the
// 8-lane blocking was a wash-to-win for the one-hot layer-0 kernels,
// whose inner axpy runs under an outer per-column loop (54.3µs plain →
// ~42µs blocked at F16_n300), but a consistent ~1.7× LOSS inside
// `propagate_into` / `propagate_back_into` (`csr_propagate/100` min:
// 1.96µs plain → 3.41µs blocked): LLVM already vectorizes those short
// dynamic-length zips and the added block/tail structure only costs. So
// the blocked axpy is used by the layer-0 plan backward, and the
// propagate pair keeps its plain zip loops.
//
// `f32::mul_add` was evaluated for all of these and deliberately NOT
// used: fusing multiply and add rounds once instead of twice, which
// changes the bits of every update and would break the repo's bit-exact
// summation contract (kernels == reference implementations, sparse ==
// dense, any thread count). Only a tolerance-pinned kernel could accept
// it, and those share these primitives with the exact paths.
// ---------------------------------------------------------------------

const LANES: usize = 8;

/// `acc[i] += a · src[i]` (8-lane blocks, bit-identical to the scalar zip).
#[inline]
fn axpy_rows(acc: &mut [f32], src: &[f32], a: f32) {
    debug_assert_eq!(acc.len(), src.len());
    let mut ac = acc.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (a8, s8) in ac.by_ref().zip(sc.by_ref()) {
        for (o, &b) in a8.iter_mut().zip(s8) {
            *o += a * b;
        }
    }
    for (o, &b) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += a * b;
    }
}

kernel! {
    /// **Bit-exact** first layer forward: `out = (S·X)·W` from the sparse
    /// rows of `S·X` in a [`Layer0PlanView`] — without materialising the
    /// `n × F` matrix `S·X`.
    ///
    /// A plan row holds the nonzero entries of row `i` of `S·X`, each the
    /// exact `count · scaleᵢ` (integer-valued `f32` counts are exact), with
    /// the columns ascending — the order [`Matrix::matmul_into`]'s skip-zero
    /// loop visits them. Accumulating `value · W[column]` over the row thus
    /// reproduces the dense `propagate` + `matmul` bit-for-bit, while
    /// skipping all `O(n·F)` work. Runs in AVX2 where the CPU has it (the
    /// crate's `isa` module), with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when a plan column exceeds `w`'s rows (plan built under a
    /// different label budget than `w` was shaped for).
    pub fn plan_matmul_into(plan: Layer0PlanView<'_>, w: &Matrix, out: &mut Matrix) {
        let n = plan.node_count();
        out.resize(n, w.cols());
        for i in 0..n {
            let (cols, vals) = plan.row(i);
            let terms = cols.iter().zip(vals).map(|(&c, &a)| (c as usize, a));
            axpy_rows_tiled::<false>(terms, w.data(), w.cols(), out.row_mut(i));
        }
    }
}

/// **Bit-exact** first layer backward over a contiguous row range:
/// `gw = (S·X)[rows]ᵀ·G[rows]` (the `dW₀` of the first GC layer) from a
/// plan. Rows are visited ascending and each row's columns ascending,
/// [`Matrix::t_matmul_into`]'s order over the dense `S·X`, so the result
/// is bitwise identical to it for the same reasons as
/// [`plan_matmul_into()`]. Over one sample's row segment of a
/// block-diagonal batch this is that sample's standalone `dW₀` — the
/// segmented reduction the batched trainer folds in sample order.
/// `feature_width` is the dense feature column count (the plan itself
/// only knows the columns it touches).
///
/// # Panics
///
/// Panics when shapes disagree or the range is out of bounds.
pub fn plan_t_matmul_rows_into(
    plan: Layer0PlanView<'_>,
    g: &Matrix,
    rows: std::ops::Range<usize>,
    feature_width: usize,
    gw: &mut Matrix,
) {
    let n = plan.node_count();
    assert_eq!(g.rows(), n, "gradient row count mismatch");
    assert!(rows.end <= n, "row range out of bounds");
    gw.resize(feature_width, g.cols());
    for i in rows {
        let grow = g.row(i);
        let (cols, vals) = plan.row(i);
        for (&c, &a) in cols.iter().zip(vals) {
            axpy_rows(gw.row_mut(c as usize), grow, a);
        }
    }
}

/// Applies the DGCNN propagation `S·H` with `S = D̃⁻¹(A + I)`:
/// each output row is the degree-normalised sum of the node's own row and
/// its neighbours' rows.
#[must_use]
pub fn propagate<'a>(adj: impl Into<CsrView<'a>>, h: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    propagate_into(adj, h, &mut out);
    out
}

/// [`propagate`] into a reusable output buffer (resized in place).
///
/// # Panics
///
/// Panics when `h` has a different row count than the graph.
pub fn propagate_into<'a>(adj: impl Into<CsrView<'a>>, h: &Matrix, out: &mut Matrix) {
    let adj = adj.into();
    let n = adj.node_count();
    let c = h.cols();
    assert_eq!(h.rows(), n);
    // Every output row starts from a full copy of the node's own row, so
    // no pre-zeroing is needed.
    out.resize_for_overwrite(n, c);
    for i in 0..n {
        let orow = out.row_mut(i);
        // Own row first, then neighbours in ascending order. Plain zip
        // loops on purpose: 8-lane blocking measured ~1.7× slower here
        // (see the SIMD-friendly row primitives note above).
        orow.copy_from_slice(h.row(i));
        for &j in adj.neighbors(i) {
            for (o, &b) in orow.iter_mut().zip(h.row(j as usize)) {
                *o += b;
            }
        }
        let scale = adj.scale(i);
        for o in orow {
            *o *= scale;
        }
    }
}

/// **Bit-exact** fused propagate + GEMM: one pass computing both
/// `prop = S·H` and `out = (S·H)·W` — the body of every hidden GC layer,
/// one kernel call per layer per (block-diagonal) batch.
///
/// Per row `i` it first materialises row `i` of `S·H` exactly as
/// [`propagate_into`] does (own row, neighbours ascending, then the
/// scale), then immediately multiplies that row into `out` in
/// [`Matrix::matmul_into`]'s exact inner order (columns `k` ascending,
/// `a == 0.0` skipped), accumulating in register tiles. Both outputs
/// are therefore bitwise identical to the unfused `propagate_into` +
/// `matmul_into` pair — `prop` is still written because the backward
/// pass needs `(S·H)ᵀ` — while the propagated row is consumed straight
/// from cache instead of after a full second sweep. Runs in AVX2 where
/// the CPU has it (the crate's `isa` module), with the same bits.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn propagate_matmul_into<'a>(
    adj: impl Into<CsrView<'a>>,
    h: &Matrix,
    w: &Matrix,
    prop: &mut Matrix,
    out: &mut Matrix,
) {
    propagate_matmul_kernel(adj.into(), h, w, prop, out);
}

kernel! {
    /// The body of [`propagate_matmul_into`], in AVX2 where the CPU has it
    /// (see [`crate::isa`]).
    fn propagate_matmul_kernel(
        adj: CsrView<'_>,
        h: &Matrix,
        w: &Matrix,
        prop: &mut Matrix,
        out: &mut Matrix,
    ) {
        let n = adj.node_count();
        let c = h.cols();
        assert_eq!(h.rows(), n);
        assert_eq!(w.rows(), c, "weight row count mismatch");
        prop.resize_for_overwrite(n, c);
        out.resize(n, w.cols());
        for i in 0..n {
            let prow = prop.row_mut(i);
            prow.copy_from_slice(h.row(i));
            for &j in adj.neighbors(i) {
                for (o, &b) in prow.iter_mut().zip(h.row(j as usize)) {
                    *o += b;
                }
            }
            let scale = adj.scale(i);
            for o in prow.iter_mut() {
                *o *= scale;
            }
            let terms = prow.iter().copied().enumerate();
            axpy_rows_tiled::<true>(terms, w.data(), w.cols(), out.row_mut(i));
        }
    }
}

/// Applies `Sᵀ·G` — the adjoint of [`propagate`], needed for
/// backpropagation: `dH = Sᵀ·dY`.
#[must_use]
pub fn propagate_back<'a>(adj: impl Into<CsrView<'a>>, g: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    propagate_back_into(adj, g, &mut out);
    out
}

/// [`propagate_back`] into a reusable output buffer (resized in place).
/// Runs in AVX2 where the CPU has it (the crate's `isa` module), with the
/// same bits.
///
/// # Panics
///
/// Panics when `g` has a different row count than the graph.
pub fn propagate_back_into<'a>(adj: impl Into<CsrView<'a>>, g: &Matrix, out: &mut Matrix) {
    propagate_back_kernel(adj.into(), g, out);
}

kernel! {
    /// The body of [`propagate_back_into`], in AVX2 where the CPU has it
    /// (see [`crate::isa`]).
    fn propagate_back_kernel(adj: CsrView<'_>, g: &Matrix, out: &mut Matrix) {
        let n = adj.node_count();
        let c = g.cols();
        assert_eq!(g.rows(), n);
        out.resize(n, c);
        for i in 0..n {
            let scale = adj.scale(i);
            // Row i of G, scaled, lands on node i itself and its neighbours.
            // Plain zip loops on purpose, like `propagate_into`.
            let grow = g.row(i);
            for (o, &v) in out.row_mut(i).iter_mut().zip(grow) {
                *o += v * scale;
            }
            for &j in adj.neighbors(i) {
                for (o, &v) in out.row_mut(j as usize).iter_mut().zip(grow) {
                    *o += v * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::Rng;

    use super::*;
    use crate::isa::tests::{avx2_ran, oracle_matrix};
    use crate::matrix::seeded_rng;
    use crate::matrix::tests::same_bits;
    use muxlink_graph::Layer0Plans;

    fn path_adj() -> Csr {
        Csr::from_lists(&[vec![1], vec![0, 2], vec![1]])
    }

    #[test]
    fn propagate_averages_neighbourhood() {
        let h = Matrix::from_vec(3, 1, vec![1.0, 2.0, 4.0]);
        let p = propagate(&path_adj(), &h);
        // Node 0: (1+2)/2 = 1.5 ; node 1: (1+2+4)/3 ; node 2: (2+4)/2.
        assert!((p.get(0, 0) - 1.5).abs() < 1e-6);
        assert!((p.get(1, 0) - 7.0 / 3.0).abs() < 1e-6);
        assert!((p.get(2, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn propagate_back_is_adjoint() {
        // <S·H, G> must equal <H, Sᵀ·G> for random H, G.
        let adj = Csr::from_lists(&[vec![1, 2], vec![0], vec![0, 3], vec![2]]);
        let mut rng = seeded_rng(3);
        let h = Matrix::glorot(4, 3, &mut rng);
        let g = Matrix::glorot(4, 3, &mut rng);
        let sh = propagate(&adj, &h);
        let stg = propagate_back(&adj, &g);
        let lhs: f32 = sh.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = h.data().iter().zip(stg.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn isolated_node_keeps_own_features() {
        let adj = Csr::from_lists(&[vec![], vec![]]);
        let h = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let p = propagate(&adj, &h);
        assert_eq!(p, h);
    }

    fn tiny_onehot() -> OneHotFeatures {
        // cols = 11 (8 gate bits + labels 0..=2).
        OneHotFeatures::new(11, vec![0, 3, 7, 3], vec![1, 0, 2, 2])
    }

    /// A second, two-node feature set of the same width.
    fn tiny_onehot_2() -> OneHotFeatures {
        OneHotFeatures::new(11, vec![5, 1], vec![2, 1])
    }

    fn tiny_adj() -> Csr {
        Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1]])
    }

    fn dense(x: &OneHotFeatures) -> Matrix {
        let fm = x.to_dense();
        Matrix::from_vec(fm.rows, fm.cols, fm.data)
    }

    fn built_plan(adj: &Csr, x: &OneHotFeatures) -> Layer0Plans {
        let mut plans = Layer0Plans::new();
        plans.push_sample(adj.view(), x.view());
        plans
    }

    /// The plan kernels over a freshly built plan must reproduce the
    /// dense reference pipeline (`propagate` + `matmul` / `t_matmul`)
    /// bit-for-bit, including from dirty reused buffers.
    #[test]
    fn onehot_exact_kernels_match_dense_pipeline_bitwise() {
        let (x, adj) = (tiny_onehot(), tiny_adj());
        let mut rng = seeded_rng(12);
        let w = Matrix::glorot(11, 6, &mut rng);
        let dz = Matrix::glorot(4, 6, &mut rng);
        let sx = propagate(&adj, &dense(&x));
        let fwd_ref = sx.matmul(&w);
        let bwd_ref = sx.t_matmul(&dz);

        let plans = built_plan(&adj, &x);
        let mut fwd = Matrix::from_vec(1, 1, vec![3.0]); // dirty buffer
        let mut bwd = Matrix::from_vec(1, 2, vec![4.0, 4.0]);
        for _ in 0..2 {
            plan_matmul_into(plans.view(), &w, &mut fwd);
            assert_eq!(fwd, fwd_ref, "forward diverged from dense bits");
            plan_t_matmul_rows_into(plans.view(), &dz, 0..4, 11, &mut bwd);
            assert_eq!(bwd, bwd_ref, "backward diverged from dense bits");
        }
    }

    /// The fused propagate+GEMM must reproduce both outputs of the
    /// unfused pair bit-for-bit, including from dirty reused buffers.
    #[test]
    fn fused_propagate_matmul_matches_unfused_bitwise() {
        let adj = Csr::from_lists(&[vec![1, 2, 4], vec![0, 3], vec![0], vec![1, 4], vec![0, 3]]);
        let mut rng = seeded_rng(17);
        let h = Matrix::glorot(5, 7, &mut rng);
        let w = Matrix::glorot(7, 4, &mut rng);
        let prop_ref = propagate(&adj, &h);
        let out_ref = prop_ref.matmul(&w);
        let mut prop = Matrix::from_vec(1, 1, vec![9.0]); // dirty buffers
        let mut out = Matrix::from_vec(2, 1, vec![8.0, 8.0]);
        for _ in 0..2 {
            propagate_matmul_into(&adj, &h, &w, &mut prop, &mut out);
            assert_eq!(prop, prop_ref, "propagated matrix diverged");
            assert_eq!(out, out_ref, "fused product diverged");
        }
    }

    /// A sample's plan built behind another sample's rows (absolute
    /// entry offsets past zero, as in a minibatch) must drive the
    /// kernels to the bits of its standalone plan, over the whole
    /// sample and over row ranges.
    #[test]
    fn plan_kernels_match_histogram_kernels_bitwise() {
        let (x, adj) = (tiny_onehot(), tiny_adj());
        let built = built_plan(&adj, &x);
        let mut stacked = built_plan(&Csr::from_lists(&[vec![1], vec![0]]), &tiny_onehot_2());
        stacked.push_sample(adj.view(), x.view());
        let all = stacked.view();
        let (cols, vals) = all.entries();
        let behind = Layer0PlanView::from_raw_parts(&all.offsets()[2..], cols, vals);
        let mut rng = seeded_rng(23);
        let w = Matrix::glorot(11, 6, &mut rng);
        let dz = Matrix::glorot(4, 6, &mut rng);

        let mut fwd_ref = Matrix::default();
        plan_matmul_into(built.view(), &w, &mut fwd_ref);
        let mut fwd = Matrix::from_vec(1, 1, vec![3.0]); // dirty buffer
        for _ in 0..2 {
            plan_matmul_into(behind, &w, &mut fwd);
            assert_eq!(fwd, fwd_ref, "stacked forward diverged from standalone");
        }

        for range in [0..4usize, 1..3] {
            let mut bwd_ref = Matrix::default();
            plan_t_matmul_rows_into(built.view(), &dz, range.clone(), 11, &mut bwd_ref);
            let mut bwd = Matrix::from_vec(1, 2, vec![4.0, 4.0]);
            for _ in 0..2 {
                plan_t_matmul_rows_into(behind, &dz, range.clone(), 11, &mut bwd);
                assert_eq!(bwd, bwd_ref, "stacked backward diverged ({range:?})");
            }
        }
    }

    /// The rows-range backward over one sample's segment of a
    /// two-sample block-diagonal plan must equal the backward over that
    /// sample's standalone plan.
    #[test]
    fn onehot_rows_range_backward_matches_standalone() {
        let (x, adj) = (tiny_onehot(), tiny_adj());
        let mut block = built_plan(&Csr::from_lists(&[vec![1], vec![0]]), &tiny_onehot_2());
        block.push_sample(adj.view(), x.view());
        let mut rng = seeded_rng(19);
        let g = Matrix::glorot(6, 6, &mut rng);
        let mut tail = Matrix::zeros(4, 6);
        for i in 0..4 {
            tail.row_mut(i).copy_from_slice(g.row(2 + i));
        }
        let mut full = Matrix::default();
        plan_t_matmul_rows_into(built_plan(&adj, &x).view(), &tail, 0..4, 11, &mut full);
        let mut ranged = Matrix::from_vec(1, 1, vec![7.0]);
        plan_t_matmul_rows_into(block.view(), &g, 2..6, 11, &mut ranged);
        assert_eq!(ranged, full);
    }

    #[test]
    fn node_features_shape_accessors() {
        let s = GraphSample {
            adj: tiny_adj(),
            features: tiny_onehot(),
            label: None,
        };
        assert_eq!(s.node_count(), 4);
        let v = s.view();
        assert_eq!((v.features.rows(), v.features.cols()), (4, 11));
        let d = dense(&s.features);
        assert_eq!((d.rows(), d.cols()), (4, 11));
    }

    #[test]
    fn into_variants_reuse_buffers_bit_identically() {
        let adj = Csr::from_lists(&[vec![1], vec![0, 2], vec![1]]);
        let mut rng = seeded_rng(4);
        let h = Matrix::glorot(3, 5, &mut rng);
        let fresh = propagate(&adj, &h);
        // A dirty, wrongly-shaped buffer must converge to the same bits.
        let mut reused = Matrix::from_vec(1, 2, vec![9.0, 9.0]);
        for _ in 0..3 {
            propagate_into(&adj, &h, &mut reused);
            assert_eq!(reused, fresh);
        }
        let fresh_back = propagate_back(&adj, &h);
        for _ in 0..3 {
            propagate_back_into(&adj, &h, &mut reused);
            assert_eq!(reused, fresh_back);
        }
    }

    /// The `propagate_matmul_into` loop the register tiles replaced, kept
    /// as its oracle: the propagated row, then a skip-zero axpy of each
    /// multiplier into a zeroed memory row.
    fn propagate_matmul_oracle(adj: &Csr, h: &Matrix, w: &Matrix) -> (Matrix, Matrix) {
        let prop = propagate(adj, h);
        let mut out = Matrix::zeros(prop.rows(), w.cols());
        for i in 0..prop.rows() {
            let orow = out.row_mut(i);
            for (k, &a) in prop.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in orow.iter_mut().zip(w.row(k)) {
                    *o += a * b;
                }
            }
        }
        (prop, out)
    }

    /// The `plan_matmul_into` loop the register tiles replaced, kept as
    /// its oracle: every entry's axpy (no skip) into a zeroed memory row.
    fn plan_matmul_oracle(plan: Layer0PlanView<'_>, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(plan.node_count(), w.cols());
        for i in 0..plan.node_count() {
            let (cols, vals) = plan.row(i);
            for (&c, &a) in cols.iter().zip(vals) {
                axpy_rows(out.row_mut(i), w.row(c as usize), a);
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Both GC forward GEMMs against their untiled oracles: output
        /// widths that are and are not multiples of the 16-lane tile
        /// (`c_l = 1` included), zero multipliers, −0.0, NaN and ±∞ in
        /// inputs, plan values and weights, from dirty buffers.
        #[test]
        fn gc_forward_tiles_match_untiled_oracles_bitwise(
            ((n, c, tiles), (ragged, seed)) in (
                (0usize..12, 1usize..40, 1usize..3),
                (1usize..40, proptest::num::u64::ANY),
            ),
        ) {
            use crate::matrix::tests::{conv_input, same_bits};
            let mut rng = seeded_rng(seed);
            let special = seed % 4 == 0;
            let cols = match seed % 3 {
                0 => 16 * tiles,
                1 => 1,
                _ => ragged,
            };
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..n as u32).filter(|_| rng.gen_range(0..3) == 0).collect())
                .collect();
            let adj = Csr::from_lists(&lists);
            let h = conv_input(n, c, 0, special, &mut rng);
            let w = conv_input(c, cols, 0, special, &mut rng);
            let (prop_want, out_want) = propagate_matmul_oracle(&adj, &h, &w);
            let mut prop = Matrix::from_vec(1, 1, vec![9.0]);
            let mut out = Matrix::from_vec(2, 1, vec![8.0, 8.0]);
            propagate_matmul_into(&adj, &h, &w, &mut prop, &mut out);
            proptest::prop_assert!(same_bits(&prop, &prop_want));
            proptest::prop_assert!(same_bits(&out, &out_want), "{n} {c} {cols}");

            // A plan over `c` feature columns: ascending columns per row,
            // values drawn like the inputs (zeros included: the plan
            // kernel never skips).
            let vals_src = conv_input(n, c, 0, special, &mut rng);
            let (mut offsets, mut pcols, mut vals) = (vec![0u32], Vec::new(), Vec::new());
            for i in 0..n {
                for k in 0..c {
                    if rng.gen_range(0..4) == 0 {
                        pcols.push(k as u32);
                        vals.push(vals_src.get(i, k));
                    }
                }
                offsets.push(pcols.len() as u32);
            }
            let plan = Layer0PlanView::from_raw_parts(&offsets, &pcols, &vals);
            plan_matmul_into(plan, &w, &mut out);
            proptest::prop_assert!(same_bits(&out, &plan_matmul_oracle(plan, &w)), "{n} {c} {cols}");
        }
    }

    /// A random graph of `n` nodes: each node's neighbours a random
    /// subset of the others, ascending.
    fn random_adj(n: usize, rng: &mut rand::rngs::StdRng) -> Csr {
        let lists: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..n as u32)
                    .filter(|&j| j as usize != i && rng.gen_range(0..3) == 0)
                    .collect()
            })
            .collect();
        Csr::from_lists(&lists)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// ISA oracle: `plan_matmul_into`'s AVX2 instance against its
        /// baseline one on hand-made plans whose values, like the weight
        /// entries, include ±0, subnormals, NaN payloads and ±∞; output
        /// widths across the 32- and 16-lane tiles and the one-at-a-time
        /// tail.
        #[test]
        fn plan_matmul_avx2_instance_matches_baseline_bitwise(
            ((n, f, width), seed) in (
                (0usize..12, 1usize..20, 0usize..90),
                proptest::num::u64::ANY,
            ),
        ) {
            let mut rng = seeded_rng(seed);
            let mut offsets = vec![0u32];
            let mut cols = Vec::new();
            for _ in 0..n {
                cols.extend((0..f as u32).filter(|_| rng.gen_range(0..3) == 0));
                offsets.push(cols.len() as u32);
            }
            let vals = oracle_matrix(1, cols.len(), &mut rng);
            let plan = Layer0PlanView::from_raw_parts(&offsets, &cols, vals.data());
            let w = oracle_matrix(f, width, &mut rng);
            let mut want = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            plan_matmul_into::baseline(plan, &w, &mut want);
            let mut got = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            if !avx2_ran(plan_matmul_into::avx2(plan, &w, &mut got)) {
                return;
            }
            prop_assert!(same_bits(&got, &want), "{n} rows, {f} features, width {width}");
        }

        /// ISA oracle: the fused propagate + GEMM's AVX2 instance against
        /// its baseline one, both outputs: random graphs, inputs and
        /// weights with zeros of either sign (the skip-zero branch),
        /// subnormals, NaN payloads and ±∞, channel counts and output
        /// widths across every tile and tail.
        #[test]
        fn propagate_matmul_avx2_instance_matches_baseline_bitwise(
            ((n, c, width), seed) in (
                (0usize..12, 0usize..40, 0usize..90),
                proptest::num::u64::ANY,
            ),
        ) {
            let mut rng = seeded_rng(seed);
            let adj = random_adj(n, &mut rng);
            let h = oracle_matrix(n, c, &mut rng);
            let w = oracle_matrix(c, width, &mut rng);
            let dirty = || Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            let (mut prop_want, mut want) = (dirty(), dirty());
            propagate_matmul_kernel::baseline(adj.view(), &h, &w, &mut prop_want, &mut want);
            let (mut prop_got, mut got) = (dirty(), dirty());
            let ran = propagate_matmul_kernel::avx2(adj.view(), &h, &w, &mut prop_got, &mut got);
            if !avx2_ran(ran) {
                return;
            }
            prop_assert!(same_bits(&prop_got, &prop_want), "S·H, {n} nodes, {c} channels");
            prop_assert!(same_bits(&got, &want), "(S·H)·W, {n} nodes, {c} channels, {width} wide");
        }

        /// ISA oracle: `propagate_back_into`'s AVX2 instance against its
        /// baseline one, into dirty wrongly-shaped buffers: random graphs,
        /// gradients with zeros of either sign, subnormals, NaN payloads
        /// and ±∞, widths across every vector tail and the GC layers' 32.
        #[test]
        fn propagate_back_avx2_instance_matches_baseline_bitwise(
            ((n, c), seed) in ((0usize..12, 0usize..40), proptest::num::u64::ANY),
        ) {
            let mut rng = seeded_rng(seed);
            let adj = random_adj(n, &mut rng);
            let g = oracle_matrix(n, c, &mut rng);
            let mut want = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            propagate_back_kernel::baseline(adj.view(), &g, &mut want);
            let mut got = Matrix::from_vec(1, 2, vec![7.0, 7.0]);
            if !avx2_ran(propagate_back_kernel::avx2(adj.view(), &g, &mut got)) {
                return;
            }
            prop_assert!(same_bits(&got, &want), "Sᵀ·G, {n} nodes, {c} channels");
        }
    }
}
