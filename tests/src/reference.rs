//! The per-sample DGCNN: one forward and one backward pass per sample,
//! kept as the executable specification of the batched production
//! model in `muxlink_gnn::batch`.
//!
//! Production runs one block-diagonal forward/backward per minibatch;
//! it must reproduce this model **bit for bit** — scores, validation
//! losses, per-sample training losses and every gradient tensor. The
//! property suite compares the two bitwise.
//!
//! The model is built only on `muxlink-gnn`'s public API: the
//! architecture from [`Dgcnn::config`], the weights from
//! [`Dgcnn::snapshot`] in its canonical order, the public kernels, and
//! gradients written through [`Gradients::from_tensors`] /
//! [`Gradients::tensors_mut`] in the same order. Its first layer is
//! dense: each sample's two-hot features are expanded to the `n × F`
//! matrix `X` and propagated like every other layer, the executable
//! reference of production's sparse `S·X` plan rows.

use muxlink_gnn::activation::tanh_slice;
use muxlink_gnn::matrix::strided_gemm_into;
use muxlink_gnn::sample::{propagate_back_into, propagate_into};
use muxlink_gnn::{Dgcnn, DgcnnConfig, Gradients, Matrix, OneHotView, SampleStore, SampleView};
use rand::rngs::StdRng;
use rand::Rng;

/// One model's weights in the per-sample layout: the parameters of a
/// [`Dgcnn`] snapshot plus the two convolution weights transposed to
/// `window × outputs`, the operand layout of [`strided_gemm_into`].
#[derive(Debug, Clone)]
pub struct Reference {
    cfg: DgcnnConfig,
    gc: Vec<Matrix>,
    conv1_w: Matrix,
    conv1_b: Matrix,
    conv2_w: Matrix,
    conv2_b: Matrix,
    dense1_w: Matrix,
    dense1_b: Matrix,
    dense2_w: Matrix,
    dense2_b: Matrix,
    conv1_wt: Matrix,
    conv2_wt: Matrix,
}

/// All intermediate activations of one forward pass, retained for
/// backpropagation.
///
/// A `Cache` is also a reusable buffer: every field is resized in place
/// and fully overwritten by each forward pass, so one cache can serve an
/// unbounded stream of samples. Reuse never changes results — the bits
/// are identical to a freshly-allocated pass.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// The sample's two-hot features expanded to a dense `n × F` matrix.
    x: Matrix,
    gc_inputs: Vec<Matrix>,
    gc_outputs: Vec<Matrix>,
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

/// Reusable forward/backward buffers for one worker thread: the forward
/// activations and the backward temporaries. A workspace is pure
/// scratch: results never depend on what was in the buffers before.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Forward activations (also backward's input).
    pub cache: Cache,
    scratch: BackwardScratch,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Backward-pass temporaries.
#[derive(Debug, Clone, Default)]
struct BackwardScratch {
    dlogits: Matrix,
    dd1: Matrix,
    dflat: Matrix,
    dconv2: Matrix,
    dpool: Matrix,
    dconv1: Matrix,
    dpooled: Matrix,
    dhcat: Matrix,
    dzw: Matrix,
    dh_prev: Matrix,
    dh_layers: Vec<Matrix>,
}

impl Reference {
    /// The per-sample model of `model`'s current weights.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot does not have the canonical layout (the
    /// GC weights, then the eight head tensors).
    #[must_use]
    pub fn new(model: &Dgcnn) -> Self {
        let cfg = model.config().clone();
        let mut gc = model.snapshot();
        let head: [Matrix; 8] = gc
            .split_off(cfg.gc_channels.len())
            .try_into()
            .expect("snapshot holds the eight head tensors");
        let [conv1_w, conv1_b, conv2_w, conv2_b, dense1_w, dense1_b, dense2_w, dense2_b] = head;
        let (conv1_wt, conv2_wt) = (conv1_w.transpose(), conv2_w.transpose());
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
            conv1_wt,
            conv2_wt,
        }
    }

    /// Length of the max-pooled sequence.
    fn k2(&self) -> usize {
        self.cfg.k / 2
    }

    /// Length of the second convolution's output.
    fn k3(&self) -> usize {
        self.k2() + 1 - self.cfg.conv2_kernel
    }

    /// A gradient object with the model's parameter layout; the backward
    /// pass shapes and fully overwrites every tensor.
    #[must_use]
    pub fn new_gradients(&self) -> Gradients {
        Gradients::from_tensors(vec![Matrix::default(); self.gc.len() + 8])
    }

    /// Forward pass. `dropout_rng` enables (inverted) dropout — pass
    /// `Some` during training, `None` for deterministic inference.
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
        let mut cache = Cache::default();
        self.forward_cache(s.into(), dropout_rng, &mut cache);
        cache
    }

    /// [`Reference::forward`] into a reused [`Workspace`]; activations
    /// land in `ws.cache`. Bit-identical to the allocating pass.
    pub fn forward_into<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        dropout_rng: Option<&mut StdRng>,
        ws: &mut Workspace,
    ) {
        self.forward_cache(s.into(), dropout_rng, &mut ws.cache);
    }

    /// Deterministic inference probability that the sample's target
    /// pair is a link.
    #[must_use]
    pub fn predict<'a>(&self, s: impl Into<SampleView<'a>>) -> f32 {
        self.forward(s, None).link_probability()
    }

    /// [`Reference::predict`] through a reused [`Workspace`].
    #[must_use]
    pub fn predict_into<'a>(&self, s: impl Into<SampleView<'a>>, ws: &mut Workspace) -> f32 {
        self.forward_into(s, None, ws);
        ws.cache.link_probability()
    }

    /// Conv1 + ReLU over every row of `pooled` (kernel = stride = the
    /// concatenated width, so each row is one output step).
    fn conv1_forward(&self, pooled: &Matrix, out: &mut Matrix) {
        let c1 = self.cfg.conv1_channels;
        out.resize_for_overwrite(pooled.rows(), c1);
        strided_gemm_into(
            pooled.data(),
            pooled.cols(),
            &self.conv1_wt,
            None,
            out.data_mut(),
        );
        for row in out.data_mut().chunks_exact_mut(c1.max(1)) {
            for (v, &b) in row.iter_mut().zip(self.conv1_b.data()) {
                *v = (*v + b).max(0.0);
            }
        }
    }

    /// Conv2 + ReLU of one sample: `pool_out` holds its `k2 × c1`
    /// max-pooled rows, `out` receives its `k3 × c2` outputs.
    fn conv2_forward(&self, pool_out: &[f32], out: &mut [f32]) {
        let c1 = self.cfg.conv1_channels;
        strided_gemm_into(pool_out, c1, &self.conv2_wt, Some(self.conv2_b.data()), out);
        for v in out {
            *v = v.max(0.0);
        }
    }

    /// Shared forward implementation writing into a caller-owned cache.
    fn forward_cache(
        &self,
        s: SampleView<'_>,
        dropout_rng: Option<&mut StdRng>,
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
        densify_into(s.features, &mut cache.x);
        for (l, w) in self.gc.iter().enumerate() {
            let (done, rest) = cache.gc_outputs.split_at_mut(l);
            let h = if l == 0 { &cache.x } else { &done[l - 1] };
            propagate_into(s.adj, h, &mut cache.gc_inputs[l]);
            cache.gc_inputs[l].matmul_into(w, &mut rest[0]);
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
        // `total_cmp` keeps the order total even for NaN activations.
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
        self.conv1_forward(&cache.pooled, &mut cache.conv1_out);

        // MaxPool1d(2, 2).
        let k2 = self.k2();
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
        let k3 = self.k3();
        cache.conv2_out.resize_for_overwrite(k3, c2);
        self.conv2_forward(cache.pool_out.data(), cache.conv2_out.data_mut());

        // Flatten → dense(128) → ReLU → dropout → dense(2) → softmax.
        cache.flat.resize_for_overwrite(1, k3 * c2);
        cache
            .flat
            .data_mut()
            .copy_from_slice(cache.conv2_out.data());
        cache.flat.matmul_into(&self.dense1_w, &mut cache.d1_out);
        for (o, b) in cache.d1_out.data_mut().iter_mut().zip(self.dense1_b.data()) {
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
            .matmul_into(&self.dense2_w, &mut cache.logits);
        for (o, b) in cache.logits.data_mut().iter_mut().zip(self.dense2_b.data()) {
            *o += b;
        }
        let (l0, l1) = (cache.logits.get(0, 0), cache.logits.get(0, 1));
        let m = l0.max(l1);
        let e0 = (l0 - m).exp();
        let e1 = (l1 - m).exp();
        let z = e0 + e1;
        cache.probs = [e0 / z, e1 / z];
    }

    /// Gradients of the cross-entropy loss for one sample, from the
    /// activations of a preceding forward pass.
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

    /// [`Reference::backward`] using the workspace a preceding
    /// [`Reference::forward_into`] filled, writing into `grads` (every
    /// tensor fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not have the model's parameter layout.
    pub fn backward_into<'a>(
        &self,
        s: impl Into<SampleView<'a>>,
        label: bool,
        ws: &mut Workspace,
        grads: &mut Gradients,
    ) {
        let Workspace { cache, scratch } = ws;
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
            self.k2(),
            self.k3(),
            cfg.concat_width(),
        );
        let nlayers = self.gc.len();
        // Canonical parameter order (the snapshot order): the GC weights
        // first, then the head tensors.
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
        matmul_t_into(&scratch.dlogits, &self.dense2_w, &mut scratch.dd1);

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
        matmul_t_into(&scratch.dd1, &self.dense1_w, &mut scratch.dflat);

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
                    let wrow = self.conv2_w.row(o);
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
            .matmul_into(&self.conv1_w, &mut scratch.dpooled);

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
            cache.gc_inputs[l].t_matmul_into(&scratch.dh_layers[l], &mut gt[l]);
            if l > 0 {
                matmul_t_into(&scratch.dh_layers[l], &self.gc[l], &mut scratch.dzw);
                propagate_back_into(s.adj, &scratch.dzw, &mut scratch.dh_prev);
                scratch.dh_layers[l - 1].add_assign(&scratch.dh_prev);
            }
        }
    }
}

/// The input gradient `out = a·bᵀ` of a layer with weight `b`: each
/// output one dot product summed from `0.0` over ascending `k`, the
/// bits production's `strided_gemm_into` on `bᵀ` must reproduce.
fn matmul_t_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
    out.resize_for_overwrite(a.rows(), b.rows());
    for r in 0..a.rows() {
        for j in 0..b.rows() {
            let mut s = 0.0f32;
            for (&x, &y) in a.row(r).iter().zip(b.row(j)) {
                s += x * y;
            }
            out.row_mut(r)[j] = s;
        }
    }
}

/// Expands two-hot features into the dense `n × F` matrix `X` (one 1.0
/// in the gate column and one in the label column of each row).
fn densify_into(x: OneHotView<'_>, out: &mut Matrix) {
    out.resize(x.rows(), x.cols());
    for i in 0..x.rows() {
        let (g, l) = x.columns(i);
        out.set(i, g, 1.0);
        out.set(i, l, 1.0);
    }
}

/// The per-sample scorer: [`Reference::predict`] over every sample of
/// `samples`, sequentially, in order — the specification of
/// [`Dgcnn::predict_batch`].
#[must_use]
pub fn reference_predict<S: SampleStore + ?Sized>(model: &Dgcnn, samples: &S) -> Vec<f32> {
    let r = Reference::new(model);
    let mut ws = Workspace::new();
    (0..samples.len())
        .map(|i| r.predict_into(samples.view(i), &mut ws))
        .collect()
}

/// The per-sample validation pass: mean cross-entropy and accuracy at
/// threshold 0.5 over the labelled samples, accumulated in sample order
/// (`(NaN, NaN)` when none is labelled) — the specification of
/// [`muxlink_gnn::evaluate`].
#[must_use]
pub fn reference_evaluate<S: SampleStore + ?Sized>(model: &Dgcnn, samples: &S) -> (f64, f64) {
    let r = Reference::new(model);
    let mut ws = Workspace::new();
    let mut loss = 0.0;
    let mut correct = 0usize;
    let mut count = 0usize;
    for i in 0..samples.len() {
        let s = samples.view(i);
        let Some(label) = s.label else {
            continue;
        };
        r.forward_into(s, None, &mut ws);
        loss += f64::from(ws.cache.loss(label));
        correct += usize::from((ws.cache.link_probability() >= 0.5) == label);
        count += 1;
    }
    if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (loss / count as f64, correct as f64 / count as f64)
    }
}

/// Adjacency-list reference implementation of
/// [`propagate`](muxlink_gnn::sample::propagate): the executable
/// specification of the CSR kernel's summation order, property-tested
/// against it for exact bitwise equality.
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

/// Adjacency-list reference implementation of
/// [`propagate_back`](muxlink_gnn::sample::propagate_back) (see
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
