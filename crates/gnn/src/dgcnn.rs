//! The Deep Graph Convolutional Neural Network (DGCNN) of Zhang et al.
//! (AAAI 2018), in the exact configuration the MuxLink paper uses:
//!
//! * four graph-convolution layers with {32, 32, 32, 1} output channels and
//!   `tanh` activations — `H_{l+1} = tanh(D̃⁻¹(A+I) H_l W_l)` (paper Eq. 4),
//! * concatenation `H_{1:L}` followed by **SortPooling** to `k` rows,
//! * two 1-D convolution layers with {16, 32} channels (`ReLU`), the first
//!   with kernel/stride equal to the concatenated width, the second with
//!   kernel 5 after a max-pool of size 2,
//! * a 128-unit fully-connected layer, dropout 0.5, and a softmax over the
//!   two link/no-link classes.
//!
//! Forward and backward passes are hand-written; gradients are verified
//! against finite differences in the test suite.

use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::activation::tanh_slice;
use crate::matrix::{seeded_rng, strided_gemm_into, Matrix};
use crate::param::{AdamConfig, Gradients, Param};
use crate::sample::{
    onehot_propagate_matmul_into, onehot_propagate_t_matmul_into, propagate_back_into,
    propagate_into, FeaturesView, OneHotSpmmScratch, SampleStore, SampleView,
};
use crate::workspace::{BackwardScratch, Workspace};

/// Hyper-parameters of the DGCNN (defaults = the paper's topology).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DgcnnConfig {
    /// Input feature width (8 gate bits + DRNL one-hot width).
    pub input_dim: usize,
    /// Output channels of each graph-convolution layer.
    pub gc_channels: Vec<usize>,
    /// Channels of the first 1-D convolution.
    pub conv1_channels: usize,
    /// Channels of the second 1-D convolution.
    pub conv2_channels: usize,
    /// Kernel width of the second 1-D convolution.
    pub conv2_kernel: usize,
    /// Width of the fully-connected layer.
    pub dense_dim: usize,
    /// Dropout rate applied after the fully-connected layer.
    pub dropout: f32,
    /// SortPooling size: subgraphs are truncated/padded to `k` rows.
    pub k: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl DgcnnConfig {
    /// The paper's architecture for a given input width and SortPool `k`
    /// (`k` is clamped up to the structural minimum).
    #[must_use]
    pub fn paper(input_dim: usize, k: usize) -> Self {
        let mut cfg = Self {
            input_dim,
            gc_channels: vec![32, 32, 32, 1],
            conv1_channels: 16,
            conv2_channels: 32,
            conv2_kernel: 5,
            dense_dim: 128,
            dropout: 0.5,
            k,
            seed: 0,
        };
        cfg.k = cfg.k.max(cfg.min_k());
        cfg
    }

    /// Smallest legal `k`: after the stride-2 max-pool the sequence must
    /// still cover one kernel of the second convolution.
    #[must_use]
    pub fn min_k(&self) -> usize {
        2 * self.conv2_kernel
    }

    /// Total concatenated channel width `Σ gc_channels`.
    #[must_use]
    pub fn concat_width(&self) -> usize {
        self.gc_channels.iter().sum()
    }

    pub(crate) fn k2(&self) -> usize {
        self.k / 2
    }

    pub(crate) fn k3(&self) -> usize {
        self.k2() + 1 - self.conv2_kernel
    }
}

/// The model: all trainable parameters plus the architecture description.
///
/// Serialisable (weights, Adam state and architecture) so trained
/// attack models can be checkpointed and reloaded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dgcnn {
    pub(crate) cfg: DgcnnConfig,
    pub(crate) gc: Vec<Param>,
    pub(crate) conv1_w: Param,
    pub(crate) conv1_b: Param,
    pub(crate) conv2_w: Param,
    pub(crate) conv2_b: Param,
    pub(crate) dense1_w: Param,
    pub(crate) dense1_b: Param,
    pub(crate) dense2_w: Param,
    pub(crate) dense2_b: Param,
}

/// The two convolution weights transposed to `window × outputs`, the
/// operand layout of [`strided_gemm_into`]. Built once per batch of
/// forward passes (a scoring call, a validation pass, a training step)
/// and shared by every sample in it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvKernels {
    conv1_wt: Matrix,
    conv2_wt: Matrix,
}

/// All intermediate activations of one forward pass, retained for
/// backpropagation.
///
/// A `Cache` is also a reusable buffer: every field is resized in place
/// and fully overwritten by each forward pass, so one cache can serve an
/// unbounded stream of samples without re-allocating (see
/// [`crate::workspace::Workspace`]). Reuse never changes results — the
/// bits are identical to a freshly-allocated pass.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    gc_inputs: Vec<Matrix>,
    gc_outputs: Vec<Matrix>,
    /// Column-histogram scratch of the bit-exact sparse first layer.
    /// Only the rebuild path uses it: the batched trainer consumes a
    /// store's cached `S·X` plans when it has them, while single-sample
    /// forwards (validation, prediction) always build histograms here.
    spmm: OneHotSpmmScratch,
    hcat: Matrix,
    perm: Vec<usize>,
    pooled: Matrix,
    conv1_out: Matrix,
    pool_idx: Vec<u8>,
    pool_out: Matrix,
    conv2_out: Matrix,
    flat: Matrix,
    d1_out: Matrix,
    drop_mask: Matrix,
    d1_dropped: Matrix,
    logits: Matrix,
    /// Softmax class probabilities `[no-link, link]`.
    pub probs: [f32; 2],
}

impl Cache {
    /// An empty cache; buffers grow on first forward pass.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Probability that the target pair is a true link.
    #[must_use]
    pub fn link_probability(&self) -> f32 {
        self.probs[1]
    }

    /// Cross-entropy loss against a boolean label.
    #[must_use]
    pub fn loss(&self, label: bool) -> f32 {
        let p = self.probs[usize::from(label)].max(1e-12);
        -p.ln()
    }
}

impl Dgcnn {
    /// Initialises the model with Glorot-uniform weights (deterministic in
    /// `cfg.seed`).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.k < cfg.min_k()` or any dimension is zero.
    #[must_use]
    pub fn new(cfg: DgcnnConfig) -> Self {
        assert!(cfg.k >= cfg.min_k(), "k must be at least {}", cfg.min_k());
        assert!(cfg.input_dim > 0 && !cfg.gc_channels.is_empty());
        let mut rng = seeded_rng(cfg.seed);
        let mut gc = Vec::new();
        let mut prev = cfg.input_dim;
        for &c in &cfg.gc_channels {
            gc.push(Param::new(Matrix::glorot(prev, c, &mut rng)));
            prev = c;
        }
        let ccat = cfg.concat_width();
        let conv1_w = Param::new(Matrix::glorot(cfg.conv1_channels, ccat, &mut rng));
        let conv1_b = Param::new(Matrix::zeros(1, cfg.conv1_channels));
        let conv2_w = Param::new(Matrix::glorot(
            cfg.conv2_channels,
            cfg.conv2_kernel * cfg.conv1_channels,
            &mut rng,
        ));
        let conv2_b = Param::new(Matrix::zeros(1, cfg.conv2_channels));
        let dense_in = cfg.k3() * cfg.conv2_channels;
        let dense1_w = Param::new(Matrix::glorot(dense_in, cfg.dense_dim, &mut rng));
        let dense1_b = Param::new(Matrix::zeros(1, cfg.dense_dim));
        let dense2_w = Param::new(Matrix::glorot(cfg.dense_dim, 2, &mut rng));
        let dense2_b = Param::new(Matrix::zeros(1, 2));
        Self {
            cfg,
            gc,
            conv1_w,
            conv1_b,
            conv2_w,
            conv2_b,
            dense1_w,
            dense1_b,
            dense2_w,
            dense2_b,
        }
    }

    /// The architecture description.
    #[must_use]
    pub fn config(&self) -> &DgcnnConfig {
        &self.cfg
    }

    /// Forward pass. `dropout_rng` enables (inverted) dropout — pass
    /// `Some` during training, `None` for deterministic inference.
    ///
    /// Allocates a fresh [`Cache`]; hot loops should prefer
    /// [`Dgcnn::forward_into`] with a reused [`Workspace`] — the two are
    /// bit-for-bit identical.
    ///
    /// # Panics
    ///
    /// Panics when the sample's feature width differs from
    /// `cfg.input_dim`.
    #[must_use]
    pub fn forward<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        dropout_rng: Option<&mut StdRng>,
    ) -> Cache {
        let mut cache = Cache::new();
        self.forward_cache(s.into(), dropout_rng, &self.conv_kernels(), &mut cache);
        cache
    }

    /// [`Dgcnn::forward`] into a reused [`Workspace`]: no per-sample
    /// allocation once the workspace buffers have grown to the working
    /// size. Activations land in `ws.cache`. Each call copies the conv
    /// weights into their transposed layout in `ws`; the batch entry
    /// points ([`Dgcnn::predict_batch`], [`crate::evaluate`], the
    /// trainers) do that once per batch instead.
    ///
    /// # Panics
    ///
    /// Panics when the sample's feature width differs from
    /// `cfg.input_dim`.
    pub fn forward_into<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        dropout_rng: Option<&mut StdRng>,
        ws: &mut Workspace,
    ) {
        self.conv_kernels_into(&mut ws.conv_kernels);
        self.forward_cache(s.into(), dropout_rng, &ws.conv_kernels, &mut ws.cache);
    }

    /// The transposed conv weights every forward pass reads.
    pub(crate) fn conv_kernels(&self) -> ConvKernels {
        let mut ck = ConvKernels::default();
        self.conv_kernels_into(&mut ck);
        ck
    }

    /// [`Dgcnn::conv_kernels`] into reused buffers.
    pub(crate) fn conv_kernels_into(&self, ck: &mut ConvKernels) {
        self.conv1_w.w.transpose_into(&mut ck.conv1_wt);
        self.conv2_w.w.transpose_into(&mut ck.conv2_wt);
    }

    /// Conv1 + ReLU over every row of `pooled` (kernel = stride = the
    /// concatenated width, so each row is one output step).
    pub(crate) fn conv1_forward(&self, ck: &ConvKernels, pooled: &Matrix, out: &mut Matrix) {
        let c1 = self.cfg.conv1_channels;
        out.resize_for_overwrite(pooled.rows(), c1);
        strided_gemm_into(
            pooled.data(),
            pooled.cols(),
            &ck.conv1_wt,
            None,
            out.data_mut(),
        );
        for row in out.data_mut().chunks_exact_mut(c1.max(1)) {
            for (v, &b) in row.iter_mut().zip(self.conv1_b.w.data()) {
                *v = (*v + b).max(0.0);
            }
        }
    }

    /// Conv2 + ReLU of one sample: `pool_out` holds its `k2 × c1`
    /// max-pooled rows, `out` receives its `k3 × c2` outputs.
    pub(crate) fn conv2_forward(&self, ck: &ConvKernels, pool_out: &[f32], out: &mut [f32]) {
        let c1 = self.cfg.conv1_channels;
        strided_gemm_into(pool_out, c1, &ck.conv2_wt, Some(self.conv2_b.w.data()), out);
        for v in out {
            *v = v.max(0.0);
        }
    }

    /// Shared forward implementation writing into a caller-owned cache
    /// (all samples — owned or arena-pooled — arrive as views).
    pub(crate) fn forward_cache(
        &self,
        s: SampleView<'_>,
        dropout_rng: Option<&mut StdRng>,
        ck: &ConvKernels,
        cache: &mut Cache,
    ) {
        assert_eq!(
            s.features.cols(),
            self.cfg.input_dim,
            "feature width mismatch"
        );
        let n = s.node_count();
        let nlayers = self.gc.len();
        cache.gc_inputs.resize_with(nlayers, Matrix::default);
        cache.gc_outputs.resize_with(nlayers, Matrix::default);
        for (l, p) in self.gc.iter().enumerate() {
            let (done, rest) = cache.gc_outputs.split_at_mut(l);
            if l == 0 {
                match s.features {
                    FeaturesView::Dense(x) => {
                        propagate_into(s.adj, x, &mut cache.gc_inputs[0]);
                        cache.gc_inputs[0].matmul_into(&p.w, &mut rest[0]);
                    }
                    FeaturesView::OneHot(x) => {
                        // Bit-exact fused first layer: `(S·X)·W₀` via
                        // per-node column histograms — identical bits to
                        // the dense branch, but no `n × F` propagate,
                        // scan or cache. `gc_inputs[0]` stays empty; the
                        // backward pass rebuilds the histograms instead,
                        // eliminating the widest cached activation.
                        onehot_propagate_matmul_into(s.adj, x, &p.w, &mut rest[0], &mut cache.spmm);
                        cache.gc_inputs[0].resize(0, 0);
                    }
                }
            } else {
                propagate_into(s.adj, &done[l - 1], &mut cache.gc_inputs[l]);
                cache.gc_inputs[l].matmul_into(&p.w, &mut rest[0]);
            }
            tanh_slice(rest[0].data_mut());
        }

        // Concatenate H¹…Hᴸ column-wise.
        let ccat = self.cfg.concat_width();
        cache.hcat.resize_for_overwrite(n, ccat);
        for i in 0..n {
            let row = cache.hcat.row_mut(i);
            let mut off = 0;
            for hl in &cache.gc_outputs {
                row[off..off + hl.cols()].copy_from_slice(hl.row(i));
                off += hl.cols();
            }
        }

        // SortPooling: order rows by the last channel (Hᴸ), descending.
        // `total_cmp` keeps the order total even for NaN activations, so
        // a numerically-degenerate sample cannot destabilise the sort.
        let k = self.cfg.k;
        let hcat = &cache.hcat;
        cache.perm.clear();
        cache.perm.extend(0..n);
        cache.perm.sort_by(|&a, &b| {
            let va = hcat.get(a, ccat - 1);
            let vb = hcat.get(b, ccat - 1);
            vb.total_cmp(&va).then(a.cmp(&b))
        });
        cache.perm.truncate(k);
        cache.pooled.resize(k, ccat);
        for (t, &src) in cache.perm.iter().enumerate() {
            cache.pooled.row_mut(t).copy_from_slice(cache.hcat.row(src));
        }

        // Conv1: kernel = stride = ccat over the flattened sequence, which
        // is exactly a per-row linear map.
        let c1 = self.cfg.conv1_channels;
        self.conv1_forward(ck, &cache.pooled, &mut cache.conv1_out);

        // MaxPool1d(2, 2).
        let k2 = self.cfg.k2();
        cache.pool_out.resize_for_overwrite(k2, c1);
        cache.pool_idx.clear();
        cache.pool_idx.resize(k2 * c1, 0);
        for t in 0..k2 {
            for o in 0..c1 {
                let a = cache.conv1_out.get(2 * t, o);
                let b = cache.conv1_out.get(2 * t + 1, o);
                if a >= b {
                    cache.pool_out.set(t, o, a);
                } else {
                    cache.pool_out.set(t, o, b);
                    cache.pool_idx[t * c1 + o] = 1;
                }
            }
        }

        // Conv2: kernel `conv2_kernel`, stride 1, ReLU.
        let c2 = self.cfg.conv2_channels;
        let k3 = self.cfg.k3();
        cache.conv2_out.resize_for_overwrite(k3, c2);
        self.conv2_forward(ck, cache.pool_out.data(), cache.conv2_out.data_mut());

        // Flatten → dense(128) → ReLU → dropout → dense(2) → softmax.
        cache.flat.resize_for_overwrite(1, k3 * c2);
        cache
            .flat
            .data_mut()
            .copy_from_slice(cache.conv2_out.data());
        cache.flat.matmul_into(&self.dense1_w.w, &mut cache.d1_out);
        for (o, b) in cache
            .d1_out
            .data_mut()
            .iter_mut()
            .zip(self.dense1_b.w.data())
        {
            *o = (*o + b).max(0.0);
        }
        cache.drop_mask.resize_for_overwrite(1, self.cfg.dense_dim);
        if let Some(rng) = dropout_rng {
            let keep = 1.0 - self.cfg.dropout;
            for m in cache.drop_mask.data_mut() {
                *m = if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
            }
        } else {
            cache.drop_mask.data_mut().fill(1.0);
        }
        cache
            .d1_out
            .hadamard_into(&cache.drop_mask, &mut cache.d1_dropped);
        cache
            .d1_dropped
            .matmul_into(&self.dense2_w.w, &mut cache.logits);
        for (o, b) in cache
            .logits
            .data_mut()
            .iter_mut()
            .zip(self.dense2_b.w.data())
        {
            *o += b;
        }
        let (l0, l1) = (cache.logits.get(0, 0), cache.logits.get(0, 1));
        let m = l0.max(l1);
        let e0 = (l0 - m).exp();
        let e1 = (l1 - m).exp();
        let z = e0 + e1;
        cache.probs = [e0 / z, e1 / z];
    }

    /// Computes gradients of the cross-entropy loss for one sample.
    ///
    /// Pure `&self`: callers on different threads can differentiate
    /// different samples concurrently against the same weights, then
    /// reduce the returned [`Gradients`] in a fixed order
    /// ([`Gradients::merge`]) and apply one [`Dgcnn::adam_step`].
    ///
    /// Allocates fresh gradients and scratch; hot loops should prefer
    /// [`Dgcnn::backward_into`] — the two are bit-for-bit identical.
    #[must_use]
    pub fn backward<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        cache: &Cache,
        label: bool,
    ) -> Gradients {
        let mut grads = self.new_gradients();
        let mut scratch = BackwardScratch::default();
        self.backward_impl(s.into(), cache, label, &mut scratch, &mut grads);
        grads
    }

    /// [`Dgcnn::backward`] using the workspace a preceding
    /// [`Dgcnn::forward_into`] filled: reads the activations from
    /// `ws.cache`, reuses `ws`'s backward scratch and writes the result
    /// into `grads` (every tensor fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not have this model's parameter layout.
    pub fn backward_into<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        label: bool,
        ws: &mut Workspace,
        grads: &mut Gradients,
    ) {
        let Workspace { cache, scratch, .. } = ws;
        self.backward_impl(s.into(), cache, label, scratch, grads);
    }

    /// Shared backward implementation writing into caller-owned buffers.
    #[allow(clippy::too_many_lines)]
    fn backward_impl(
        &self,
        s: SampleView<'_>,
        cache: &Cache,
        label: bool,
        scratch: &mut BackwardScratch,
        grads: &mut Gradients,
    ) {
        let cfg = &self.cfg;
        let (k, c1, c2, kk, k2, k3, ccat) = (
            cfg.k,
            cfg.conv1_channels,
            cfg.conv2_channels,
            cfg.conv2_kernel,
            cfg.k2(),
            cfg.k3(),
            cfg.concat_width(),
        );
        let nlayers = self.gc.len();
        // Canonical parameter order (must match `params()`): the GC
        // weights first, then the head tensors.
        let gt = grads.tensors_mut();
        assert_eq!(gt.len(), nlayers + 8, "gradient layout mismatch");
        let (conv1_w_g, conv1_b_g, conv2_w_g, conv2_b_g) =
            (nlayers, nlayers + 1, nlayers + 2, nlayers + 3);
        let (dense1_w_g, dense1_b_g, dense2_w_g, dense2_b_g) =
            (nlayers + 4, nlayers + 5, nlayers + 6, nlayers + 7);

        // Softmax + CE.
        scratch.dlogits.resize_for_overwrite(1, 2);
        scratch.dlogits.data_mut().copy_from_slice(&cache.probs);
        scratch.dlogits.data_mut()[usize::from(label)] -= 1.0;

        // Dense 2.
        cache
            .d1_dropped
            .t_matmul_into(&scratch.dlogits, &mut gt[dense2_w_g]);
        gt[dense2_b_g].copy_from(&scratch.dlogits);
        scratch
            .dlogits
            .matmul_t_into(&self.dense2_w.w, &mut scratch.dd1);

        // Dropout + ReLU of dense 1.
        for (g, (&m, &o)) in scratch
            .dd1
            .data_mut()
            .iter_mut()
            .zip(cache.drop_mask.data().iter().zip(cache.d1_out.data()))
        {
            *g *= m;
            if o <= 0.0 {
                *g = 0.0;
            }
        }
        cache.flat.t_matmul_into(&scratch.dd1, &mut gt[dense1_w_g]);
        gt[dense1_b_g].copy_from(&scratch.dd1);
        scratch
            .dd1
            .matmul_t_into(&self.dense1_w.w, &mut scratch.dflat);

        // Un-flatten + ReLU of conv2.
        scratch.dconv2.resize_for_overwrite(k3, c2);
        for (g, (&d, &o)) in scratch
            .dconv2
            .data_mut()
            .iter_mut()
            .zip(scratch.dflat.data().iter().zip(cache.conv2_out.data()))
        {
            *g = if o <= 0.0 { 0.0 } else { d };
        }

        // Conv2 parameter and input gradients.
        gt[conv2_w_g].resize(c2, kk * c1);
        gt[conv2_b_g].resize(1, c2);
        scratch.dpool.resize(k2, c1);
        for t in 0..k3 {
            for o in 0..c2 {
                let g = scratch.dconv2.get(t, o);
                if g == 0.0 {
                    continue;
                }
                gt[conv2_b_g].data_mut()[o] += g;
                for dt in 0..kk {
                    let prow = cache.pool_out.row(t + dt);
                    let wrow = self.conv2_w.w.row(o);
                    let gw = &mut gt[conv2_w_g].row_mut(o)[dt * c1..(dt + 1) * c1];
                    for i in 0..c1 {
                        gw[i] += g * prow[i];
                    }
                    let dprow = scratch.dpool.row_mut(t + dt);
                    let wseg = &wrow[dt * c1..(dt + 1) * c1];
                    for i in 0..c1 {
                        dprow[i] += g * wseg[i];
                    }
                }
            }
        }

        // Max-pool routing + ReLU of conv1.
        scratch.dconv1.resize(k, c1);
        for t in 0..k2 {
            for o in 0..c1 {
                let src = 2 * t + usize::from(cache.pool_idx[t * c1 + o]);
                let g = scratch.dpool.get(t, o);
                if g != 0.0 && cache.conv1_out.get(src, o) > 0.0 {
                    let v = scratch.dconv1.get(src, o) + g;
                    scratch.dconv1.set(src, o, v);
                }
            }
        }

        // Conv1 (per-row linear) gradients.
        scratch
            .dconv1
            .t_matmul_into(&cache.pooled, &mut gt[conv1_w_g]);
        gt[conv1_b_g].resize(1, c1);
        for t in 0..k {
            for o in 0..c1 {
                gt[conv1_b_g].data_mut()[o] += scratch.dconv1.get(t, o);
            }
        }
        scratch
            .dconv1
            .matmul_into(&self.conv1_w.w, &mut scratch.dpooled);

        // Un-SortPool (padded rows vanish).
        let n = s.node_count();
        scratch.dhcat.resize(n, ccat);
        for (t, &src) in cache.perm.iter().enumerate() {
            scratch
                .dhcat
                .row_mut(src)
                .copy_from_slice(scratch.dpooled.row(t));
        }

        // Split the concat gradient per GC layer.
        scratch.dh_layers.resize_with(nlayers, Matrix::default);
        let mut off = 0;
        for (hl, d) in cache.gc_outputs.iter().zip(&mut scratch.dh_layers) {
            let c = hl.cols();
            d.resize_for_overwrite(n, c);
            for i in 0..n {
                d.row_mut(i)
                    .copy_from_slice(&scratch.dhcat.row(i)[off..off + c]);
            }
            off += c;
        }

        // Graph-convolution chain, last to first. Each `dh_layers[l]`
        // holds the concat gradient; for l < L−1 the backprop from layer
        // l+1 is accumulated into it before its own turn.
        for l in (0..nlayers).rev() {
            // tanh'
            let dz = &mut scratch.dh_layers[l];
            for (g, &o) in dz.data_mut().iter_mut().zip(cache.gc_outputs[l].data()) {
                *g *= 1.0 - o * o;
            }
            match (l, s.features) {
                (0, FeaturesView::OneHot(x)) => {
                    // Mirror of the bit-exact fused forward:
                    // `dW₀ = (S·X)ᵀ·dZ₀` from rebuilt per-node column
                    // histograms — identical bits to `t_matmul` over the
                    // cached dense `S·X`, with no `n × F` pass. (No `dX`
                    // is needed at the input layer.)
                    onehot_propagate_t_matmul_into(
                        s.adj,
                        x,
                        &scratch.dh_layers[0],
                        &mut gt[0],
                        &mut scratch.spmm,
                    );
                }
                _ => {
                    cache.gc_inputs[l].t_matmul_into(&scratch.dh_layers[l], &mut gt[l]);
                }
            }
            if l > 0 {
                scratch.dh_layers[l].matmul_t_into(&self.gc[l].w, &mut scratch.dzw);
                propagate_back_into(s.adj, &scratch.dzw, &mut scratch.dh_prev);
                scratch.dh_layers[l - 1].add_assign(&scratch.dh_prev);
            }
        }
    }

    /// A gradient object with this model's parameter layout, ready for
    /// [`Dgcnn::backward_into`]. Tensors start empty (`0 × 0`) — the
    /// backward pass shapes and fully overwrites every one, so nothing
    /// is zero-filled twice.
    #[must_use]
    pub fn new_gradients(&self) -> Gradients {
        Gradients::from_tensors(vec![Matrix::default(); self.params().len()])
    }

    /// Convenience: deterministic inference probability that the sample's
    /// target pair is a link.
    #[must_use]
    pub fn predict<'a>(&self, s: impl Into<SampleView<'a>>) -> f32 {
        self.forward(s.into(), None).link_probability()
    }

    /// [`Dgcnn::predict`] through a reused [`Workspace`] — the
    /// zero-allocation scoring path. Bit-identical to [`Dgcnn::predict`].
    #[must_use]
    pub fn predict_into<'a>(&self, s: impl Into<SampleView<'a>>, ws: &mut Workspace) -> f32 {
        self.forward_into(s.into(), None, ws);
        ws.cache.link_probability()
    }

    /// Scores a batch of samples on the ambient rayon pool, one reused
    /// [`Workspace`] per worker. Output order matches input order and is
    /// bit-identical to mapping [`Dgcnn::predict`] sequentially, for any
    /// thread count. Accepts any [`SampleStore`] — a slice/`Vec` of
    /// owned samples or an arena-backed
    /// [`ArenaSamples`](crate::sample::ArenaSamples).
    #[must_use]
    pub fn predict_batch<S: SampleStore + ?Sized>(&self, samples: &S) -> Vec<f32> {
        let ck = self.conv_kernels();
        let idx: Vec<usize> = (0..samples.len()).collect();
        idx.par_iter()
            .map_init(Workspace::new, |ws, &i| {
                self.forward_cache(samples.view(i), None, &ck, &mut ws.cache);
                ws.cache.link_probability()
            })
            .collect()
    }

    /// One Adam step over all parameters from a (merged) gradient object
    /// (`t` is 1-based, `scale` divides the gradients, typically
    /// `1/batch_size`).
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not match this model's parameter layout.
    pub fn adam_step(&mut self, grads: &Gradients, opt: &AdamConfig, t: usize, scale: f32) {
        let params = self.params_mut();
        let tensors = grads.tensors();
        assert_eq!(params.len(), tensors.len(), "gradient layout mismatch");
        for (p, g) in params.into_iter().zip(tensors) {
            p.adam_step(g, opt, t, scale);
        }
    }

    /// Snapshot of all weights (for best-on-validation model selection).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.w.clone()).collect()
    }

    /// Restores a snapshot taken from the *same* architecture.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot layout does not match.
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        let params = self.params_mut();
        assert_eq!(params.len(), snapshot.len(), "snapshot layout mismatch");
        for (p, w) in params.into_iter().zip(snapshot) {
            assert_eq!((p.w.rows(), p.w.cols()), (w.rows(), w.cols()));
            p.w = w.clone();
        }
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.w.rows() * p.w.cols()).sum()
    }

    fn params(&self) -> Vec<&Param> {
        let mut v: Vec<&Param> = self.gc.iter().collect();
        v.extend([
            &self.conv1_w,
            &self.conv1_b,
            &self.conv2_w,
            &self.conv2_b,
            &self.dense1_w,
            &self.dense1_b,
            &self.dense2_w,
            &self.dense2_b,
        ]);
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = self.gc.iter_mut().collect();
        v.extend([
            &mut self.conv1_w,
            &mut self.conv1_b,
            &mut self.conv2_w,
            &mut self.conv2_b,
            &mut self.dense1_w,
            &mut self.dense1_b,
            &mut self.dense2_w,
            &mut self.dense2_b,
        ]);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{GraphSample, NodeFeatures};
    use muxlink_graph::Csr;

    fn tiny_cfg() -> DgcnnConfig {
        DgcnnConfig {
            input_dim: 5,
            gc_channels: vec![3, 1],
            conv1_channels: 2,
            conv2_channels: 2,
            conv2_kernel: 2,
            dense_dim: 4,
            dropout: 0.0,
            k: 4,
            seed: 3,
        }
    }

    fn tiny_sample(seed: u64) -> GraphSample {
        let mut rng = seeded_rng(seed);
        let n = 5;
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1, 4], vec![3]]);
        GraphSample {
            adj,
            features: Matrix::glorot(n, 5, &mut rng).into(),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// Config sized for two-hot features: 8 gate bits + labels 0..=2.
    fn onehot_cfg() -> DgcnnConfig {
        DgcnnConfig {
            input_dim: 11,
            ..tiny_cfg()
        }
    }

    fn tiny_onehot_sample(seed: u64) -> GraphSample {
        let adj = Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1, 4], vec![3]]);
        let gate = (0..5)
            .map(|i| (i as u32).wrapping_add(seed as u32) % 8)
            .collect();
        let label = (0..5).map(|i| (i as u32 ^ seed as u32) % 3).collect();
        GraphSample {
            adj,
            features: muxlink_graph::OneHotFeatures::new(11, gate, label).into(),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// The same sample with the one-hot features expanded to dense — the
    /// reference the fused path is compared against.
    fn densified(s: &GraphSample) -> GraphSample {
        GraphSample {
            adj: s.adj.clone(),
            features: s.features.to_dense().into(),
            label: s.label,
        }
    }

    #[test]
    fn forward_produces_probability_distribution() {
        let model = Dgcnn::new(tiny_cfg());
        let c = model.forward(&tiny_sample(1), None);
        assert!((c.probs[0] + c.probs[1] - 1.0).abs() < 1e-5);
        assert!(c.probs[1] >= 0.0 && c.probs[1] <= 1.0);
    }

    #[test]
    fn forward_deterministic_without_dropout() {
        let model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(2);
        assert_eq!(model.predict(&s), model.predict(&s));
    }

    #[test]
    fn padding_handles_small_graphs() {
        // k = 4 but graph has 2 nodes: rows must pad with zeros, not panic.
        let model = Dgcnn::new(tiny_cfg());
        let mut rng = seeded_rng(9);
        let s = GraphSample {
            adj: Csr::from_lists(&[vec![1], vec![0]]),
            features: Matrix::glorot(2, 5, &mut rng).into(),
            label: None,
        };
        let p = model.predict(&s);
        assert!(p.is_finite());
    }

    /// Full-model gradient check against central finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        check_gradients_against_finite_differences(Dgcnn::new(tiny_cfg()), tiny_sample(4));
    }

    /// The same finite-difference check through the fused sparse first
    /// layer — its gradients must be correct in their own right, not just
    /// close to the dense path's.
    #[test]
    fn sparse_gradients_match_finite_differences() {
        check_gradients_against_finite_differences(Dgcnn::new(onehot_cfg()), tiny_onehot_sample(4));
    }

    fn check_gradients_against_finite_differences(mut model: Dgcnn, s: GraphSample) {
        let label = true;

        let cache = model.forward(&s, None);
        let grads = model.backward(&s, &cache, label);

        // Collect analytic grads.
        let analytic: Vec<Matrix> = grads.tensors().to_vec();
        let eps = 3e-3f32;
        for (pi, ag) in analytic.iter().enumerate() {
            // Check a handful of entries per parameter tensor.
            let len = ag.data().len();
            let step = (len / 5).max(1);
            for idx in (0..len).step_by(step) {
                let orig = {
                    let p = &model.params()[pi].w;
                    p.data()[idx]
                };
                set_param(&mut model, pi, idx, orig + eps);
                let lp = model.forward(&s, None).loss(label);
                set_param(&mut model, pi, idx, orig - eps);
                let lm = model.forward(&s, None).loss(label);
                set_param(&mut model, pi, idx, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = ag.data()[idx];
                assert!(
                    (a - numeric).abs() < 2e-2 + 0.05 * numeric.abs().max(a.abs()),
                    "param {pi} idx {idx}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn set_param(model: &mut Dgcnn, pi: usize, idx: usize, v: f32) {
        model.params_mut()[pi].w.data_mut()[idx] = v;
    }

    /// The production sparse first layer is the histogram formulation of
    /// `(S·X)·W₀`, which reproduces the dense branch **bit-for-bit**
    /// (integer-valued `f32` sums are exact, and the accumulation orders
    /// mirror `matmul_into`/`t_matmul_into`): forward probabilities and
    /// every gradient tensor, including `dW₀`.
    #[test]
    fn sparse_path_is_bit_identical_to_dense_reference() {
        let model = Dgcnn::new(onehot_cfg());
        for seed in 0..8u64 {
            let sp = tiny_onehot_sample(seed);
            let dn = densified(&sp);
            let cs = model.forward(&sp, None);
            let cd = model.forward(&dn, None);
            for (a, b) in cs.probs.iter().zip(cd.probs) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: prob {a} vs {b}");
            }
            let gs = model.backward(&sp, &cs, true);
            let gd = model.backward(&dn, &cd, true);
            assert_eq!(gs, gd, "seed {seed}: gradients diverged");
        }
    }

    /// Workspace reuse on the sparse path: bit-identical to the
    /// allocating sparse pass, across dirty buffers and repeated use.
    #[test]
    fn sparse_workspace_variants_are_bit_identical() {
        let model = Dgcnn::new(onehot_cfg());
        let mut ws = crate::workspace::Workspace::new();
        for seed in [1u64, 3, 7, 2, 1] {
            let s = tiny_onehot_sample(seed);
            assert_eq!(model.predict_into(&s, &mut ws), model.predict(&s));
        }
        let s = tiny_onehot_sample(2);
        let cache = model.forward(&s, None);
        let fresh = model.backward(&s, &cache, true);
        model.forward_into(&s, None, &mut ws);
        let mut reused = model.new_gradients();
        for _ in 0..2 {
            model.backward_into(&s, true, &mut ws, &mut reused);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn training_reduces_loss_on_one_sample() {
        let mut model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(6);
        let opt = AdamConfig {
            lr: 0.01,
            ..AdamConfig::default()
        };
        let before = model.forward(&s, None).loss(true);
        for t in 1..=60 {
            let c = model.forward(&s, None);
            let g = model.backward(&s, &c, true);
            model.adam_step(&g, &opt, t, 1.0);
        }
        let after = model.forward(&s, None).loss(true);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn backward_is_pure_and_repeatable() {
        let model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(5);
        let snap = model.snapshot();
        let c = model.forward(&s, None);
        let g1 = model.backward(&s, &c, true);
        let g2 = model.backward(&s, &c, true);
        assert_eq!(g1, g2, "backward must be deterministic");
        assert_eq!(model.snapshot(), snap, "backward must not touch weights");
        assert!(g1.norm() > 0.0, "non-degenerate sample must have gradient");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(7);
        let snap = model.snapshot();
        let p0 = model.predict(&s);
        // Perturb.
        let opt = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        let c = model.forward(&s, None);
        let g = model.backward(&s, &c, false);
        model.adam_step(&g, &opt, 1, 1.0);
        assert_ne!(model.predict(&s), p0);
        model.restore(&snap);
        assert_eq!(model.predict(&s), p0);
    }

    #[test]
    fn serialisation_round_trips_predictions() {
        let model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(11);
        let json = serde_json::to_string(&model).unwrap();
        let restored: Dgcnn = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict(&s), restored.predict(&s));
        assert_eq!(model.parameter_count(), restored.parameter_count());
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = DgcnnConfig::paper(40, 30);
        assert_eq!(cfg.concat_width(), 97);
        assert_eq!(cfg.min_k(), 10);
        let model = Dgcnn::new(cfg);
        assert!(model.parameter_count() > 10_000);
    }

    #[test]
    #[should_panic(expected = "k must be at least")]
    fn too_small_k_rejected() {
        let mut cfg = tiny_cfg();
        cfg.k = 1;
        let _ = Dgcnn::new(cfg);
    }

    #[test]
    fn workspace_variants_are_bit_identical() {
        let model = Dgcnn::new(tiny_cfg());
        let mut ws = crate::workspace::Workspace::new();
        // Stream several samples of different sizes through one reused
        // workspace; every prediction must match the allocating path.
        for seed in [1u64, 2, 9, 5, 1] {
            let s = tiny_sample(seed);
            assert_eq!(model.predict_into(&s, &mut ws), model.predict(&s));
        }
        // And the gradients must match too, including dropout streams.
        let s = tiny_sample(4);
        let mut rng1 = seeded_rng(42);
        let mut rng2 = seeded_rng(42);
        let cache = model.forward(&s, Some(&mut rng1));
        let fresh = model.backward(&s, &cache, true);
        model.forward_into(&s, Some(&mut rng2), &mut ws);
        assert_eq!(ws.cache.probs, cache.probs);
        let mut reused = model.new_gradients();
        model.backward_into(&s, true, &mut ws, &mut reused);
        assert_eq!(reused, fresh);
        // Second pass over the same dirty buffers: still identical.
        let mut rng3 = seeded_rng(42);
        model.forward_into(&s, Some(&mut rng3), &mut ws);
        model.backward_into(&s, true, &mut ws, &mut reused);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn predict_batch_matches_sequential_predict() {
        let model = Dgcnn::new(tiny_cfg());
        let samples: Vec<GraphSample> = (0..8).map(tiny_sample).collect();
        let batch = model.predict_batch(&samples);
        let seq: Vec<f32> = samples.iter().map(|s| model.predict(s)).collect();
        assert_eq!(batch, seq);
    }

    #[test]
    fn sort_pooling_survives_nan_activations() {
        // total_cmp keeps the comparator a total order even when the
        // sort channel contains NaN — the sort must not panic and the
        // permutation must stay deterministic.
        let model = Dgcnn::new(tiny_cfg());
        let mut s = tiny_sample(3);
        let NodeFeatures::Dense(m) = &mut s.features else {
            panic!("tiny_sample is dense");
        };
        m.data_mut()[0] = f32::NAN;
        let a = model.forward(&s, None);
        let b = model.forward(&s, None);
        assert_eq!(a.probs[0].to_bits(), b.probs[0].to_bits());
        assert_eq!(a.probs[1].to_bits(), b.probs[1].to_bits());
    }

    #[test]
    fn dropout_masks_at_training_time_only() {
        let mut cfg = tiny_cfg();
        cfg.dropout = 0.5;
        // Seed chosen so the 4-unit dense layer has live ReLU units for
        // this sample; a dead layer would make dropout a no-op and void
        // the property under test.
        cfg.seed = 0;
        let model = Dgcnn::new(cfg);
        let s = tiny_sample(8);
        let mut rng = seeded_rng(0);
        let draws: Vec<[f32; 2]> = (0..16)
            .map(|_| model.forward(&s, Some(&mut rng)).probs)
            .collect();
        // Stochastic passes must not all coincide …
        assert!(
            draws.iter().any(|d| *d != draws[0]),
            "dropout produced 16 identical outputs"
        );
        // … while inference is deterministic.
        assert_eq!(model.forward(&s, None).probs, model.forward(&s, None).probs);
    }
}
