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
//! adjacency-list reference implementations ([`propagate_ref`],
//! [`propagate_back_ref`]) define this order; the property suite asserts
//! exact equality between the CSR kernels and the references.

use muxlink_graph::{
    Csr, CsrView, Layer0PlanView, OneHotFeatures, OneHotView, SampleArena, SampleHandle,
};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::matrix::{axpy_rows_tiled, Matrix};

/// Node features of one sample: dense, or the compact two-hot form.
///
/// MuxLink's node information matrix X is two-hot by construction (one
/// gate-type bit, one DRNL-label bit per row), so the hot attack path
/// carries [`NodeFeatures::OneHot`] — 8 bytes per node instead of
/// `4 · cols` — and the first graph-convolution layer runs the fused
/// kernels ([`onehot_project_into`] / [`onehot_scatter_add`]) instead of
/// a dense matmul. [`NodeFeatures::Dense`] remains fully supported for
/// arbitrary feature matrices (tests, baselines, toy datasets) and is the
/// executable spec the sparse path is property-tested against.
#[derive(Debug, Clone)]
pub enum NodeFeatures {
    /// Arbitrary dense `n × d` features.
    Dense(Matrix),
    /// Compact two-hot features (gate-type ⊕ DRNL-label one-hots).
    OneHot(OneHotFeatures),
}

impl NodeFeatures {
    /// Number of rows (nodes).
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Self::Dense(m) => m.rows(),
            Self::OneHot(x) => x.rows(),
        }
    }

    /// Feature width (dense columns).
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            Self::Dense(m) => m.cols(),
            Self::OneHot(x) => x.cols,
        }
    }

    /// The equivalent dense matrix (copies the one-hot form; borrows
    /// nothing). Dense consumers that only need a reference should match
    /// on the enum instead.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        match self {
            Self::Dense(m) => m.clone(),
            Self::OneHot(x) => {
                let fm = x.to_dense();
                Matrix::from_vec(fm.rows, fm.cols, fm.data)
            }
        }
    }
}

impl From<Matrix> for NodeFeatures {
    fn from(m: Matrix) -> Self {
        Self::Dense(m)
    }
}

impl From<OneHotFeatures> for NodeFeatures {
    fn from(x: OneHotFeatures) -> Self {
        Self::OneHot(x)
    }
}

// Externally-tagged enum representation (`{"Dense": …}` / `{"OneHot": …}`,
// upstream serde's default), written by hand because the vendored derive
// only covers unit-variant enums.
impl Serialize for NodeFeatures {
    fn to_value(&self) -> Value {
        match self {
            Self::Dense(m) => Value::Map(vec![("Dense".to_owned(), m.to_value())]),
            Self::OneHot(x) => Value::Map(vec![("OneHot".to_owned(), x.to_value())]),
        }
    }
}

impl Deserialize for NodeFeatures {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(entries) if entries.len() == 1 => match entries[0].0.as_str() {
                "Dense" => Matrix::from_value(&entries[0].1).map(Self::Dense),
                "OneHot" => OneHotFeatures::from_value(&entries[0].1).map(Self::OneHot),
                other => Err(DeError(format!(
                    "unknown NodeFeatures variant {}",
                    serde::excerpt(other)
                ))),
            },
            other => Err(DeError(format!(
                "expected single-variant map for NodeFeatures, found {}",
                other.describe()
            ))),
        }
    }
}

/// One graph-classification example: flat CSR adjacency plus node
/// features (and, for training, a binary label).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphSample {
    /// CSR adjacency over local node indices (sorted neighbour runs).
    pub adj: Csr,
    /// `n × d` node features (dense or compact two-hot).
    pub features: NodeFeatures,
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
            features: match &self.features {
                NodeFeatures::Dense(m) => FeaturesView::Dense(m),
                NodeFeatures::OneHot(x) => FeaturesView::OneHot(x.view()),
            },
            label: self.label,
        }
    }
}

/// Borrowed node features of one sample (see [`NodeFeatures`] for the
/// owned forms and their semantics).
#[derive(Debug, Clone, Copy)]
pub enum FeaturesView<'a> {
    /// Arbitrary dense `n × d` features.
    Dense(&'a Matrix),
    /// Compact two-hot features (gate-type ⊕ DRNL-label one-hots).
    OneHot(OneHotView<'a>),
}

impl FeaturesView<'_> {
    /// Number of rows (nodes).
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Self::Dense(m) => m.rows(),
            Self::OneHot(x) => x.rows(),
        }
    }

    /// Feature width (dense columns).
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            Self::Dense(m) => m.cols(),
            Self::OneHot(x) => x.cols(),
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
    /// `n × d` node features (dense or compact two-hot).
    pub features: FeaturesView<'a>,
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
/// batch scorer iterate: a slice/`Vec` of owned [`GraphSample`]s or an
/// arena-backed [`ArenaSamples`]. Implementations must be cheap to
/// `view` — it is called inside the per-sample hot loop.
pub trait SampleStore: Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Borrowed view of sample `i`.
    fn view(&self, i: usize) -> SampleView<'_>;

    /// True when the store holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached layer-0 plan of sample `i` (the sparse rows of `S·X`
    /// under the store's label budget), when the backing storage
    /// carries one. `None` — the default — means consumers fall back
    /// to the per-epoch histogram-rebuild kernels.
    fn plan(&self, i: usize) -> Option<Layer0PlanView<'_>> {
        let _ = i;
        None
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
            features: FeaturesView::OneHot(self.arena.one_hot(h, self.max_label)),
            label: self.arena.label(h),
        }
    }

    fn plan(&self, i: usize) -> Option<Layer0PlanView<'_>> {
        let h = self
            .handles
            .map_or_else(|| self.arena.nth_handle(i), |hs| hs[i]);
        self.arena.layer0_plan(h, self.max_label)
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
// 8-lane blocking is a wash-to-win for the fused one-hot kernels, whose
// inner axpy runs under an outer per-touched-column loop
// (`sparse_layer0/fused_exact` min-of-10 at F16_n300: 54.3µs plain →
// ~42µs blocked across repeated runs), but a consistent ~1.7× LOSS
// inside `propagate_into` / `propagate_back_into` (`csr_propagate/100`
// min: 1.96µs plain → 3.41µs blocked): LLVM already vectorizes those
// short dynamic-length zips and the added block/tail structure only
// costs. So the blocked primitives are used exactly where they win —
// the one-hot kernels — and the propagate pair keeps its plain zip
// loops.
//
// `f32::mul_add` was evaluated for all of these and deliberately NOT
// used: fusing multiply and add rounds once instead of twice, which
// changes the bits of every update and would break the repo's bit-exact
// summation contract (kernels == reference implementations, sparse ==
// dense, any thread count). Only a tolerance-pinned kernel could accept
// it, and those share these primitives with the exact paths.
// ---------------------------------------------------------------------

const LANES: usize = 8;

/// `acc[i] += src[i]` (8-lane blocks, bit-identical to the scalar zip).
#[inline]
fn add_rows(acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    let mut a = acc.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (a8, s8) in a.by_ref().zip(s.by_ref()) {
        for (o, &b) in a8.iter_mut().zip(s8) {
            *o += b;
        }
    }
    for (o, &b) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *o += b;
    }
}

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

/// Fused sparse product `X·W` for two-hot features: row `i` of the output
/// is the sum of the two `W` rows selected by node `i`'s gate and label
/// columns — `O(n·c)` work and no `n × d` dense X in memory.
///
/// Within each output row the gate-row entry is added before the
/// label-row entry, a fixed order, so the result is a pure function of
/// `(x, w)` — bit-identical across runs, threads and buffer reuse.
///
/// Composing this with `propagate` yields `S·(X·W)` — the *reassociated*
/// first layer, the maximum-throughput formulation (`O(n·c)` gather, no
/// per-column histogram). It equals the dense `(S·X)·W` in exact
/// arithmetic but only to ≤ 1e-5 relative in `f32`, so the model's
/// default path uses the bit-exact [`onehot_propagate_matmul_into`]
/// instead: training amplifies reassociation drift chaotically across
/// optimiser steps (observed as macroscopically different weights).
/// See the numerics policy in the README.
///
/// # Panics
///
/// Panics when `w` has fewer rows than the feature width.
pub fn onehot_project_into<'a>(x: impl Into<OneHotView<'a>>, w: &Matrix, out: &mut Matrix) {
    let x = x.into();
    assert_eq!(w.rows(), x.cols(), "feature width mismatch");
    let c = w.cols();
    out.resize_for_overwrite(x.rows(), c);
    for i in 0..x.rows() {
        let (g, l) = x.columns(i);
        let grow = w.row(g);
        let lrow = w.row(l);
        for ((o, &a), &b) in out.row_mut(i).iter_mut().zip(grow).zip(lrow) {
            *o = a + b;
        }
    }
}

/// Adjoint of [`onehot_project_into`]: accumulates `Xᵀ·G` into `gw` as a
/// two-row scatter-add per node (`gw[gate_i] += G_i`,
/// `gw[8 + label_i] += G_i`). `gw` must be pre-shaped `x.cols × g.cols()`
/// (typically via `Matrix::resize`, which zeroes); rows are visited in
/// ascending node order, so the summation order — and hence the bits —
/// are a pure function of `(x, g)`.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn onehot_scatter_add<'a>(x: impl Into<OneHotView<'a>>, g: &Matrix, gw: &mut Matrix) {
    let x = x.into();
    assert_eq!(g.rows(), x.rows(), "row count mismatch");
    assert_eq!(
        (gw.rows(), gw.cols()),
        (x.cols(), g.cols()),
        "gradient shape mismatch"
    );
    for i in 0..x.rows() {
        let (gi, li) = x.columns(i);
        let src = g.row(i);
        add_rows(gw.row_mut(gi), src);
        add_rows(gw.row_mut(li), src);
    }
}

/// Reusable column-histogram scratch for the **bit-exact** fused
/// first-layer kernels ([`onehot_propagate_matmul_into`],
/// [`onehot_propagate_t_matmul_into`]).
#[derive(Debug, Clone, Default)]
pub struct OneHotSpmmScratch {
    /// Per-column hit count of the current node's closed neighbourhood
    /// (all-zero between kernel calls; only touched entries are reset).
    counts: Vec<u32>,
    /// Columns with nonzero count, sorted ascending before use.
    touched: Vec<u32>,
}

impl OneHotSpmmScratch {
    /// Builds the column histogram of row `i` of `S·X` (unscaled): hit
    /// counts of the two-hot columns over `{i} ∪ N(i)`, with the touched
    /// column list sorted ascending. `counts` must be (and is left)
    /// all-zero outside `touched`.
    fn build_row(&mut self, adj: CsrView<'_>, x: OneHotView<'_>, i: usize) {
        if self.counts.len() < x.cols() {
            self.counts.resize(x.cols(), 0);
        }
        self.touched.clear();
        let mut hit = |col: usize| {
            if self.counts[col] == 0 {
                self.touched.push(col as u32);
            }
            self.counts[col] += 1;
        };
        let (g, l) = x.columns(i);
        hit(g);
        hit(l);
        for &j in adj.neighbors(i) {
            let (g, l) = x.columns(j as usize);
            hit(g);
            hit(l);
        }
        self.touched.sort_unstable();
    }

    /// Resets the touched counters back to zero (O(touched), no memset).
    fn clear_row(&mut self) {
        for &c in &self.touched {
            self.counts[c as usize] = 0;
        }
    }
}

/// **Bit-exact** fused first layer forward: `out = (S·X)·W` computed
/// without materialising the `n × F` matrix `S·X`.
///
/// Row `i` of `S·X` has at most `2·(1 + deg(i))` nonzeros, each of the
/// form `count · scaleᵢ` with an integer `count` — and integer-valued
/// `f32` sums are exact, so the histogram reproduces the propagated
/// values bit-for-bit. The product then accumulates over the touched
/// columns in ascending order, exactly the order
/// [`Matrix::matmul_into`]'s skip-zero loop visits them: the result is
/// **bitwise identical** to `propagate` + `matmul` on the dense
/// expansion, while skipping all `O(n·F)` work. This is the production
/// first layer — unlike the reassociated [`onehot_project_into`] path it
/// cannot drift from the dense reference, which keeps training (where
/// `f32` drift amplifies chaotically across Adam steps) exactly
/// reproducible.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn onehot_propagate_matmul_into<'a, 'b>(
    adj: impl Into<CsrView<'a>>,
    x: impl Into<OneHotView<'b>>,
    w: &Matrix,
    out: &mut Matrix,
    scratch: &mut OneHotSpmmScratch,
) {
    let (adj, x) = (adj.into(), x.into());
    let n = adj.node_count();
    assert_eq!(x.rows(), n, "row count mismatch");
    assert_eq!(w.rows(), x.cols(), "feature width mismatch");
    out.resize(n, w.cols());
    for i in 0..n {
        scratch.build_row(adj, x, i);
        let scale = adj.scale(i);
        let orow = out.row_mut(i);
        for &c in &scratch.touched {
            let a = (scratch.counts[c as usize] as f32) * scale;
            axpy_rows(orow, w.row(c as usize), a);
        }
        scratch.clear_row();
    }
}

/// **Bit-exact** fused first layer backward: `gw = (S·X)ᵀ·G` (the `dW₀`
/// of the first GC layer) without materialising `S·X`.
///
/// Mirrors [`Matrix::t_matmul_into`]'s order exactly — rows in ascending
/// node order, touched columns ascending within each row — so the result
/// is bitwise identical to `t_matmul` on the cached dense `S·X` the
/// dense path keeps. See [`onehot_propagate_matmul_into`] for why the
/// histogram values are exact.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn onehot_propagate_t_matmul_into<'a, 'b>(
    adj: impl Into<CsrView<'a>>,
    x: impl Into<OneHotView<'b>>,
    g: &Matrix,
    gw: &mut Matrix,
    scratch: &mut OneHotSpmmScratch,
) {
    let (adj, x) = (adj.into(), x.into());
    let n = adj.node_count();
    onehot_propagate_t_matmul_rows_into(adj, x, g, 0..n, gw, scratch);
}

/// [`onehot_propagate_t_matmul_into`] restricted to a contiguous row
/// range: `gw = (S·X)[rows]ᵀ·G[rows]`, rows visited ascending. Over one
/// sample's row segment of a block-diagonal batch (whose neighbour runs
/// never leave the segment) this reproduces that sample's standalone
/// `dW₀` bit-for-bit — the segmented reduction the batched trainer needs
/// to keep per-sample gradient subtotals in merge order.
///
/// # Panics
///
/// Panics when shapes disagree or the range is out of bounds.
pub fn onehot_propagate_t_matmul_rows_into<'a, 'b>(
    adj: impl Into<CsrView<'a>>,
    x: impl Into<OneHotView<'b>>,
    g: &Matrix,
    rows: std::ops::Range<usize>,
    gw: &mut Matrix,
    scratch: &mut OneHotSpmmScratch,
) {
    let (adj, x) = (adj.into(), x.into());
    let n = adj.node_count();
    assert_eq!(x.rows(), n, "row count mismatch");
    assert_eq!(g.rows(), n, "gradient row count mismatch");
    assert!(rows.end <= n, "row range out of bounds");
    gw.resize(x.cols(), g.cols());
    for i in rows {
        scratch.build_row(adj, x, i);
        let scale = adj.scale(i);
        let grow = g.row(i);
        for &c in &scratch.touched {
            let a = (scratch.counts[c as usize] as f32) * scale;
            axpy_rows(gw.row_mut(c as usize), grow, a);
        }
        scratch.clear_row();
    }
}

/// **Bit-exact** cached-plan first layer forward: `out = (S·X)·W` from a
/// precomputed [`Layer0PlanView`] — zero histogram rebuilds.
///
/// A plan row holds the exact `(column, count·scale)` entries
/// [`onehot_propagate_matmul_into`]'s histogram derives per epoch, with
/// the columns in the same ascending order the histogram's sorted
/// touched list visits — so accumulating `value · W[column]` over the
/// row reproduces the rebuild kernel (and hence the dense
/// `propagate` + `matmul` reference) bit-for-bit, by construction.
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

/// **Bit-exact** cached-plan first layer backward over a contiguous row
/// range: `gw = (S·X)[rows]ᵀ·G[rows]` from a precomputed plan — the
/// cached twin of [`onehot_propagate_t_matmul_rows_into`], bit-identical
/// to it for the same reasons as [`plan_matmul_into`]. `feature_width`
/// is the dense feature column count (the plan itself only knows the
/// columns it touches).
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

/// Builds one sample's layer-0 plan slabs with the histogram logic the
/// arena's plan builder runs — shared by the kernel- and batch-level
/// equivalence tests (the production builder itself is pinned against
/// the dense reference in `muxlink-graph`'s arena tests).
#[cfg(test)]
pub(crate) fn build_plan_slabs(adj: &Csr, x: &OneHotFeatures) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let adjv: CsrView<'_> = adj.into();
    let xv = x.view();
    let (mut offsets, mut cols, mut vals) = (vec![0u32], Vec::new(), Vec::new());
    let mut counts = vec![0u32; xv.cols()];
    for i in 0..adjv.node_count() {
        let (g, l) = xv.columns(i);
        counts[g] += 1;
        counts[l] += 1;
        for &j in adjv.neighbors(i) {
            let (g, l) = xv.columns(j as usize);
            counts[g] += 1;
            counts[l] += 1;
        }
        for (c, cnt) in counts.iter_mut().enumerate() {
            if *cnt > 0 {
                cols.push(c as u32);
                vals.push((*cnt as f32) * adjv.scale(i));
                *cnt = 0;
            }
        }
        offsets.push(cols.len() as u32);
    }
    (offsets, cols, vals)
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
/// from cache instead of after a full second sweep.
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
    let adj = adj.into();
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

/// Applies `Sᵀ·G` — the adjoint of [`propagate`], needed for
/// backpropagation: `dH = Sᵀ·dY`.
#[must_use]
pub fn propagate_back<'a>(adj: impl Into<CsrView<'a>>, g: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    propagate_back_into(adj, g, &mut out);
    out
}

/// [`propagate_back`] into a reusable output buffer (resized in place).
///
/// # Panics
///
/// Panics when `g` has a different row count than the graph.
pub fn propagate_back_into<'a>(adj: impl Into<CsrView<'a>>, g: &Matrix, out: &mut Matrix) {
    let adj = adj.into();
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

/// Adjacency-list reference implementation of [`propagate`] — retained as
/// the executable specification the CSR kernel is property-tested against
/// (exact bitwise equality).
#[must_use]
pub fn propagate_ref(adj: &[Vec<u32>], h: &Matrix) -> Matrix {
    let n = adj.len();
    let c = h.cols();
    assert_eq!(h.rows(), n);
    let mut out = Matrix::zeros(n, c);
    for (i, nbrs) in adj.iter().enumerate() {
        let scale = 1.0 / (1.0 + nbrs.len() as f32);
        let mut acc: Vec<f32> = h.row(i).to_vec();
        for &j in nbrs {
            for (a, &b) in acc.iter_mut().zip(h.row(j as usize)) {
                *a += b;
            }
        }
        for (o, a) in out.row_mut(i).iter_mut().zip(&acc) {
            *o = a * scale;
        }
    }
    out
}

/// Adjacency-list reference implementation of [`propagate_back`] (see
/// [`propagate_ref`]).
#[must_use]
pub fn propagate_back_ref(adj: &[Vec<u32>], g: &Matrix) -> Matrix {
    let n = adj.len();
    let c = g.cols();
    assert_eq!(g.rows(), n);
    let mut out = Matrix::zeros(n, c);
    for (i, nbrs) in adj.iter().enumerate() {
        let scale = 1.0 / (1.0 + nbrs.len() as f32);
        let grow: Vec<f32> = g.row(i).iter().map(|&x| x * scale).collect();
        for (o, &v) in out.row_mut(i).iter_mut().zip(&grow) {
            *o += v;
        }
        for &j in nbrs {
            for (o, &v) in out.row_mut(j as usize).iter_mut().zip(&grow) {
                *o += v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use super::*;
    use crate::matrix::seeded_rng;

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

    #[test]
    fn csr_kernels_match_reference_bitwise() {
        let lists = vec![vec![1, 2, 4], vec![0, 3], vec![0], vec![1, 4], vec![0, 3]];
        let adj = Csr::from_lists(&lists);
        let mut rng = seeded_rng(11);
        let h = Matrix::glorot(5, 7, &mut rng);
        assert_eq!(propagate(&adj, &h), propagate_ref(&lists, &h));
        assert_eq!(propagate_back(&adj, &h), propagate_back_ref(&lists, &h));
    }

    fn tiny_onehot() -> OneHotFeatures {
        // cols = 11 (8 gate bits + labels 0..=2).
        OneHotFeatures::new(11, vec![0, 3, 7, 3], vec![1, 0, 2, 2])
    }

    #[test]
    fn onehot_project_matches_dense_matmul() {
        let x = tiny_onehot();
        let mut rng = seeded_rng(8);
        let w = Matrix::glorot(11, 6, &mut rng);
        let dense = NodeFeatures::OneHot(x.clone()).to_dense();
        let expect = dense.matmul(&w);
        let mut out = Matrix::from_vec(1, 1, vec![5.0]); // dirty buffer
        onehot_project_into(&x, &w, &mut out);
        assert_eq!(out.rows(), 4);
        // Two-term sums in a fixed order: equal to the dense product up
        // to f32 reassociation; for 0/1 entries it is in fact exact.
        for (a, b) in out.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn onehot_scatter_matches_dense_t_matmul() {
        let x = tiny_onehot();
        let mut rng = seeded_rng(9);
        let g = Matrix::glorot(4, 6, &mut rng);
        let dense = NodeFeatures::OneHot(x.clone()).to_dense();
        let expect = dense.t_matmul(&g);
        let mut gw = Matrix::zeros(0, 0);
        gw.resize(11, 6);
        onehot_scatter_add(&x, &g, &mut gw);
        for (a, b) in gw.data().iter().zip(expect.data()) {
            assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn onehot_project_and_scatter_are_adjoint() {
        // <X·W, G> must equal <W, Xᵀ·G>.
        let x = tiny_onehot();
        let mut rng = seeded_rng(10);
        let w = Matrix::glorot(11, 3, &mut rng);
        let g = Matrix::glorot(4, 3, &mut rng);
        let mut xw = Matrix::zeros(0, 0);
        onehot_project_into(&x, &w, &mut xw);
        let mut xtg = Matrix::zeros(0, 0);
        xtg.resize(11, 3);
        onehot_scatter_add(&x, &g, &mut xtg);
        let lhs: f32 = xw.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = w.data().iter().zip(xtg.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5, "{lhs} vs {rhs}");
    }

    /// The production fused kernels must reproduce the dense reference
    /// pipeline (`propagate` + `matmul` / `t_matmul`) bit-for-bit.
    #[test]
    fn onehot_exact_kernels_match_dense_pipeline_bitwise() {
        let x = tiny_onehot();
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1]]);
        let mut rng = seeded_rng(12);
        let w = Matrix::glorot(11, 6, &mut rng);
        let dz = Matrix::glorot(4, 6, &mut rng);
        let dense = NodeFeatures::OneHot(x.clone()).to_dense();
        let sx = propagate(&adj, &dense);
        let fwd_ref = sx.matmul(&w);
        let bwd_ref = sx.t_matmul(&dz);

        let mut scratch = OneHotSpmmScratch::default();
        let mut fwd = Matrix::from_vec(1, 1, vec![3.0]); // dirty buffer
        let mut bwd = Matrix::from_vec(1, 2, vec![4.0, 4.0]);
        for _ in 0..2 {
            onehot_propagate_matmul_into(&adj, &x, &w, &mut fwd, &mut scratch);
            assert_eq!(fwd, fwd_ref, "forward diverged from dense bits");
            onehot_propagate_t_matmul_into(&adj, &x, &dz, &mut bwd, &mut scratch);
            assert_eq!(bwd, bwd_ref, "backward diverged from dense bits");
        }
    }

    /// The reassociated gather formulation `S·(X·W)` stays within 1e-5
    /// relative of the exact `(S·X)·W`.
    #[test]
    fn reassociated_composite_is_tolerance_close_to_exact() {
        let x = tiny_onehot();
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1]]);
        let mut rng = seeded_rng(13);
        let w = Matrix::glorot(11, 6, &mut rng);
        let mut scratch = OneHotSpmmScratch::default();
        let mut exact = Matrix::default();
        onehot_propagate_matmul_into(&adj, &x, &w, &mut exact, &mut scratch);
        let mut xw = Matrix::default();
        onehot_project_into(&x, &w, &mut xw);
        let reassoc = propagate(&adj, &xw);
        for (a, b) in reassoc.data().iter().zip(exact.data()) {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0),
                "{a} vs {b}"
            );
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

    /// The cached-plan kernels must reproduce the histogram-rebuild
    /// kernels bit-for-bit, including from dirty reused buffers.
    #[test]
    fn plan_kernels_match_histogram_kernels_bitwise() {
        let x = tiny_onehot();
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1]]);
        let (off, cols, vals) = build_plan_slabs(&adj, &x);
        let plan = Layer0PlanView::from_raw_parts(&off, &cols, &vals);
        let mut rng = seeded_rng(23);
        let w = Matrix::glorot(11, 6, &mut rng);
        let dz = Matrix::glorot(4, 6, &mut rng);
        let mut scratch = OneHotSpmmScratch::default();

        let mut fwd_ref = Matrix::default();
        onehot_propagate_matmul_into(&adj, &x, &w, &mut fwd_ref, &mut scratch);
        let mut fwd = Matrix::from_vec(1, 1, vec![3.0]); // dirty buffer
        for _ in 0..2 {
            plan_matmul_into(plan, &w, &mut fwd);
            assert_eq!(fwd, fwd_ref, "cached forward diverged from rebuild");
        }

        for range in [0..4usize, 1..3] {
            let mut bwd_ref = Matrix::default();
            onehot_propagate_t_matmul_rows_into(
                &adj,
                &x,
                &dz,
                range.clone(),
                &mut bwd_ref,
                &mut scratch,
            );
            let mut bwd = Matrix::from_vec(1, 2, vec![4.0, 4.0]);
            for _ in 0..2 {
                plan_t_matmul_rows_into(plan, &dz, range.clone(), 11, &mut bwd);
                assert_eq!(bwd, bwd_ref, "cached backward diverged ({range:?})");
            }
        }
    }

    /// The rows-range one-hot backward over a block's segment must equal
    /// the standalone kernel on that block alone.
    #[test]
    fn onehot_rows_range_backward_matches_standalone() {
        let x = tiny_onehot();
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1]]);
        let mut rng = seeded_rng(19);
        let g = Matrix::glorot(4, 6, &mut rng);
        let mut scratch = OneHotSpmmScratch::default();
        let mut full = Matrix::default();
        onehot_propagate_t_matmul_into(&adj, &x, &g, &mut full, &mut scratch);
        let mut ranged = Matrix::from_vec(1, 1, vec![7.0]);
        onehot_propagate_t_matmul_rows_into(&adj, &x, &g, 0..4, &mut ranged, &mut scratch);
        assert_eq!(ranged, full);
    }

    #[test]
    fn node_features_shape_accessors() {
        let x = tiny_onehot();
        let nf = NodeFeatures::OneHot(x);
        assert_eq!(nf.rows(), 4);
        assert_eq!(nf.cols(), 11);
        let d = nf.to_dense();
        assert_eq!((d.rows(), d.cols()), (4, 11));
        let nf2 = NodeFeatures::from(d);
        assert_eq!(nf2.rows(), 4);
    }

    #[test]
    fn graph_sample_serde_round_trips_both_feature_forms() {
        let onehot = GraphSample {
            adj: Csr::from_lists(&[vec![1], vec![0, 2], vec![1]]),
            features: OneHotFeatures::new(11, vec![0, 3, 7], vec![1, 0, 2]).into(),
            label: Some(true),
        };
        let mut rng = seeded_rng(21);
        let dense = GraphSample {
            adj: Csr::from_lists(&[vec![1], vec![0]]),
            features: Matrix::glorot(2, 5, &mut rng).into(),
            label: None,
        };
        for s in [onehot, dense] {
            let json = serde_json::to_string(&s).unwrap();
            let back: GraphSample = serde_json::from_str(&json).unwrap();
            assert_eq!(back.adj, s.adj);
            assert_eq!(back.label, s.label);
            match (&back.features, &s.features) {
                (NodeFeatures::Dense(a), NodeFeatures::Dense(b)) => assert_eq!(a, b),
                (NodeFeatures::OneHot(a), NodeFeatures::OneHot(b)) => assert_eq!(a, b),
                _ => panic!("feature variant changed across serde round trip"),
            }
        }
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
}
