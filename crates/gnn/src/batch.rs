//! Block-diagonal batched forward and backward: one fused kernel per
//! layer per minibatch. This is the model's only forward and backward
//! implementation — training, validation and scoring all run it.
//!
//! A per-sample loop pays `batch_size` tiny kernel dispatches per layer,
//! writes every sample's gradients into its own [`Gradients`] slot, and
//! then merges the slots — on the paper workload (≤ 64-node subgraphs,
//! ~45k-parameter dense layers) the slot traffic and dispatch overhead
//! dominate the epoch. This module packs a minibatch into one
//! [`BlockDiagBatch`] (see `muxlink_graph::batch`) plus one layer-0
//! plan (the sparse rows of `S·X`, see [`Layer0Plans`]) and stacked
//! activation matrices, and runs **one** kernel per layer per batch:
//! the first graph convolution via [`plan_matmul_into()`], the others via
//! the fused [`propagate_matmul_into`], the dense head as whole-batch
//! GEMMs, and the gradient reductions either as single stacked products
//! (one-row-per-sample tensors) or as segmented per-sample subtotals
//! (multi-row tensors).
//!
//! Inference ([`Dgcnn::predict_batch`], [`crate::evaluate`]) runs the
//! same forward, without dropout, over consecutive chunks of
//! `INFERENCE_CHUNK` samples, the chunks spread over the ambient rayon
//! pool.
//!
//! # The layers
//!
//! Each DGCNN layer has a forward and a backward function over the
//! [`Minibatch`] and the [`BatchWorkspace`], and the two entry points
//! are lists of calls in layer order:
//!
//! * the forward (`batch_forward`): `gc0_forward` (GC 0 plan GEMM +
//!   tanh), `gc_forward` for each later GC layer (propagate + GEMM +
//!   tanh), [`sort_pool_into`], `conv1_forward`, `max_pool_forward`,
//!   `conv2_forward`, `dense1_forward` (+ ReLU + dropout) and
//!   `dense2_forward` (+ softmax);
//! * [`Dgcnn::batch_train_step`]: the forward and
//!   `cross_entropy_losses`, then `dense2_backward` (softmax/CE +
//!   dense2), `dense1_backward`, `conv2_backward`, `max_pool_backward`
//!   (routing), `conv1_backward`, `un_sort_pool`, and `gc_backward` for
//!   each GC layer, last to first (tanh′, the segmented `dW` folds and
//!   the input gradient).
//!
//! A backward function writes the gradient slots it is handed by name;
//! they come from `Dgcnn::grad_slots`, so the parameter order is stated
//! only in [`crate::dgcnn`].
//!
//! # Determinism contract — bit-identical to the per-sample model
//!
//! The batched step reproduces the per-sample model (forward + backward
//! per sample, slots merged in sample order) **bit for bit**, by
//! construction:
//!
//! * Blocks are disjoint, so every row-wise kernel (propagate, GEMMs,
//!   activations, softmax) performs exactly the per-sample operations
//!   on exactly the per-sample values, row by row.
//! * SortPooling, max-pool and the 1-D convolutions are applied per
//!   sample segment, each output element summing the per-sample
//!   products in the per-sample order (conv2's backward in register
//!   tiles, pinned to the per-sample loop by a proptest).
//! * Weight gradients whose per-sample contribution comes from one
//!   stacked row (`dense1_w`, `dense2_w`) reduce via a single
//!   `t_matmul` over the batch: its row-ascending skip-zero loop *is*
//!   the sample-order merge.
//! * Bias gradients that the per-sample path `copy_from`s
//!   (`dense1_b`, `dense2_b`) reduce copy-first-then-add — preserving
//!   even `-0.0` payloads a fresh accumulation would lose.
//! * Input gradients `d·Wᵀ` run [`strided_gemm_into()`]: on `Wᵀ`,
//!   transposed once per step, for the GC layers ≥ 1 and dense2, and as
//!   the transpose of `W·dᵀ` for dense1. Either way each output is one
//!   accumulator summed from `0.0` over ascending `k`, the per-sample
//!   dot-product loop's bits.
//! * Multi-row weight gradients (GC layers, conv1, conv2) reduce as
//!   per-sample subtotals into a reused scratch tensor (the exact
//!   per-sample kernel over the sample's row segment), folded in
//!   sample order — the same grouping as [`Gradients::merge`].
//! * Per-sample dropout masks are drawn from the same per-sample seeds
//!   the per-sample loop uses, one fresh RNG per sample row. Inference
//!   multiplies by an all-ones mask, as the per-sample model does, so
//!   even NaN payloads keep their bits.
//!
//! Because every row carries its own sample's bits, a score does not
//! depend on which samples share its batch or chunk. The per-sample
//! model lives on as the executable specification in the
//! integration-test support crate (`tests/src/lib.rs`, module
//! `reference`), and the property suite pins the batched step, the
//! batched validation and the batched scores to it bitwise across batch
//! sizes, storage paths and thread counts.

use std::time::{Duration, Instant};

use rand::Rng;
use rayon::prelude::*;

use muxlink_graph::{BlockDiagBatch, Layer0PlanView, Layer0Plans};

use crate::activation::tanh_slice;
use crate::dgcnn::Dgcnn;
use crate::isa::kernel;
use crate::matrix::{
    axpy_rows_tiled, nonzero_terms, seeded_rng, strided_gemm_into, Matrix, TERM_BLOCK,
};
use crate::param::Gradients;
use crate::sample::{
    plan_matmul_into, plan_t_matmul_rows_into, propagate_back_into, propagate_matmul_into,
    SampleStore,
};

/// A minibatch assembled for the batched forward: the block-diagonal
/// adjacency batch and its layer-0 plan plus, for a training batch, the
/// per-sample labels and dropout seeds of the jobs it was built from.
///
/// Reusable: every assembly clears and refills in place, so
/// steady-state batches allocate nothing.
#[derive(Debug, Default)]
pub struct Minibatch {
    /// Block-diagonal adjacency.
    block: BlockDiagBatch,
    /// Layer-0 plan rows of every batch node, in block-diagonal order.
    plan: Layer0Plans,
    /// Dense feature width shared by the samples.
    feature_width: usize,
    /// Per-sample training labels, in job order (empty for inference).
    labels: Vec<bool>,
    /// Per-sample dropout seeds, in job order (empty for inference,
    /// which draws no dropout).
    seeds: Vec<u64>,
}

impl Minibatch {
    /// An empty minibatch; buffers grow on first assembly.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples in the batch.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.block.sample_count()
    }

    /// Packs the given `(sample index, dropout seed)` jobs into this
    /// training batch: adjacency blocks rebased into one CSR, each
    /// sample's layer-0 plan rows built from its adjacency and two-hot
    /// features ([`Layer0Plans::push_sample`]) and stacked, labels and
    /// seeds recorded in job order.
    ///
    /// # Panics
    ///
    /// Panics when `jobs` is empty, a referenced sample is unlabelled,
    /// or the samples disagree on the feature width.
    pub fn assemble<S: SampleStore + ?Sized>(&mut self, store: &S, jobs: &[(usize, u64)]) {
        assert!(!jobs.is_empty(), "cannot assemble an empty minibatch");
        self.labels.clear();
        self.seeds.clear();
        for &(i, seed) in jobs {
            let label = store.view(i).label;
            self.labels
                .push(label.expect("batched samples must be labelled"));
            self.seeds.push(seed);
        }
        self.pack(store, jobs.iter().map(|&(i, _)| i));
    }

    /// Packs the samples at `indices` into this batch for inference: as
    /// [`Minibatch::assemble`], but with no labels (unlabelled samples
    /// are allowed) and no dropout seeds.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty or the samples disagree on the
    /// feature width.
    pub(crate) fn assemble_inference<S: SampleStore + ?Sized>(
        &mut self,
        store: &S,
        indices: &[usize],
    ) {
        assert!(!indices.is_empty(), "cannot assemble an empty minibatch");
        self.labels.clear();
        self.seeds.clear();
        self.pack(store, indices.iter().copied());
    }

    /// The shared packing of both assemblies: blocks and layer-0 plans
    /// of the samples at `indices`, in order.
    fn pack<S: SampleStore + ?Sized>(&mut self, store: &S, indices: impl Iterator<Item = usize>) {
        self.block.clear();
        self.plan.clear();
        self.feature_width = 0;
        for i in indices {
            let s = store.view(i);
            assert!(
                self.feature_width == 0 || self.feature_width == s.features.cols(),
                "feature width changed mid-batch"
            );
            self.feature_width = s.features.cols();
            self.block.push(s.adj);
            self.plan.push_sample(s.adj, s.features);
        }
    }

    /// The layer-0 plan of this batch: row `i` is the plan row of batch
    /// node `i` (the block-diagonal node order).
    #[must_use]
    pub fn plan(&self) -> Layer0PlanView<'_> {
        self.plan.view()
    }
}

/// Reusable buffers of the batched forward and
/// [`Dgcnn::batch_train_step`]: the stacked activations of one batched
/// forward pass plus the backward scratch. Every field is resized in
/// place and fully overwritten per batch, so one workspace serves an
/// unbounded stream of batches without re-allocating, with reuse never
/// changing a single bit. An inference-only workspace never grows the
/// backward buffers.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    // Forward activations (N = total batch nodes, B = samples).
    gc_inputs: Vec<Matrix>,
    gc_outputs: Vec<Matrix>,
    perm: Vec<usize>,
    /// Global node of each pooled row (`u32::MAX` = pad).
    pool_src: Vec<u32>,
    pooled: Matrix,
    /// The training step's transposed conv weights (inference shares one
    /// set per call instead).
    conv_kernels: ConvKernels,
    conv1_out: Matrix,
    pool_idx: Vec<u8>,
    pool_out: Matrix,
    conv2_out: Matrix,
    flat: Matrix,
    d1_out: Matrix,
    drop_mask: Matrix,
    d1_dropped: Matrix,
    logits: Matrix,
    /// Class probabilities `[no-link, link]` of the last forward, one row
    /// per sample.
    pub(crate) probs: Matrix,
    /// Per-sample cross-entropy losses of the last step, in job order —
    /// the caller folds them into its epoch sum exactly as the
    /// reference loop folds its per-sample loss vector.
    pub losses: Vec<f64>,
    // Backward scratch.
    /// Transposed dense2 weight `W₂ᵀ`, the operand layout of its
    /// input-gradient GEMM.
    dense2_wt: Matrix,
    dlogits: Matrix,
    dd1: Matrix,
    /// `dd1ᵀ` and `dflatᵀ`: dense1's input gradient is computed
    /// transposed (see `Dgcnn::dense1_backward`).
    dd1_t: Matrix,
    dflat_t: Matrix,
    dconv2: Matrix,
    dpool: Matrix,
    dconv1: Matrix,
    dpooled: Matrix,
    /// The transposed weight `W_lᵀ` of the GC layer `l ≥ 1` being
    /// backpropagated, the operand layout of its input-gradient GEMM.
    gc_wt: Matrix,
    dzw: Matrix,
    dh_prev: Matrix,
    dh_layers: Vec<Matrix>,
    /// Per-sample gradient subtotal (segmented reductions).
    seg: Matrix,
    /// Second subtotal for kernels producing two tensors at once.
    seg_b: Matrix,
    /// Wall time of the forward half of the last step (inputs → losses).
    pub forward_time: Duration,
    /// Wall time of the backward half of the last step (losses → grads).
    pub backward_time: Duration,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The first GC layer's activations and, after a training step, its
    /// pre-activation gradient `dZ₀`.
    #[cfg(test)]
    pub(crate) fn layer0(&self) -> (&Matrix, &Matrix) {
        (&self.gc_outputs[0], &self.dh_layers[0])
    }

    /// The dense layer's post-ReLU activations of the last forward.
    #[cfg(test)]
    pub(crate) fn dense1_out(&self) -> &Matrix {
        &self.d1_out
    }
}

/// The two convolution weights transposed to `window × outputs`, the
/// operand layout of [`strided_gemm_into()`]. Built once per training
/// step, and once per inference call shared by every chunk of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvKernels {
    conv1_wt: Matrix,
    conv2_wt: Matrix,
}

impl Dgcnn {
    /// The transposed conv weights the forward reads, into reused
    /// buffers.
    pub(crate) fn conv_kernels_into(&self, ck: &mut ConvKernels) {
        self.conv1_w.w.transpose_into(&mut ck.conv1_wt);
        self.conv2_w.w.transpose_into(&mut ck.conv2_wt);
    }

    /// The batched forward through the softmax: class probabilities
    /// `[no-link, link]` of sample `s` land in row `s` of `ws.probs`.
    /// `ck` holds this model's transposed conv weights
    /// ([`Dgcnn::conv_kernels_into`]). A training batch draws each
    /// sample's dropout mask from its seed; an inference batch multiplies
    /// by ones.
    ///
    /// # Panics
    ///
    /// Panics when the batch is empty or its feature width differs from
    /// the model's input width.
    pub(crate) fn batch_forward(&self, mb: &Minibatch, ck: &ConvKernels, ws: &mut BatchWorkspace) {
        assert!(mb.sample_count() > 0, "empty minibatch");
        assert_eq!(
            mb.feature_width, self.cfg.input_dim,
            "feature width mismatch"
        );
        self.gc0_forward(mb, ws);
        for l in 1..self.gc.len() {
            self.gc_forward(l, mb, ws);
        }
        sort_pool_into(
            &ws.gc_outputs,
            mb.block.node_starts(),
            self.cfg.k,
            &mut ws.perm,
            &mut ws.pooled,
            &mut ws.pool_src,
        );
        self.conv1_forward(ck, ws);
        self.max_pool_forward(mb, ws);
        self.conv2_forward(mb, ck, ws);
        self.dense1_forward(mb, ws);
        self.dense2_forward(mb, ws);
    }

    /// One training step over an assembled minibatch: batched forward,
    /// batched backward, per-sample losses into `ws.losses` and the
    /// summed (unscaled) minibatch gradients into `grads` — bit-
    /// identical to running the per-sample model over the same jobs and
    /// merging its slots in order (see the [module docs](self)). The
    /// caller applies the optimiser step, scaled by `1/batch`, exactly
    /// as with the merged slots.
    ///
    /// # Panics
    ///
    /// Panics when the batch is empty, the feature width differs from
    /// the model's input width, or `grads` has a different layout.
    pub fn batch_train_step(&self, mb: &Minibatch, ws: &mut BatchWorkspace, grads: &mut Gradients) {
        assert!(mb.sample_count() > 0, "empty minibatch");
        assert_eq!(
            mb.labels.len(),
            mb.sample_count(),
            "training needs a labelled minibatch"
        );
        let g = self.grad_slots(grads);
        let t_start = Instant::now();
        // The conv weights are transposed once per step; the buffer is
        // lent out of the workspace for the forward's duration.
        let mut ck = std::mem::take(&mut ws.conv_kernels);
        self.conv_kernels_into(&mut ck);
        self.batch_forward(mb, &ck, ws);
        ws.conv_kernels = ck;
        cross_entropy_losses(mb, ws);
        let t_mid = Instant::now();
        ws.forward_time = t_mid - t_start;

        self.dense2_backward(mb, ws, g.dense2_w, g.dense2_b);
        self.dense1_backward(ws, g.dense1_w, g.dense1_b);
        self.conv2_backward(mb, ws, g.conv2_w, g.conv2_b);
        self.max_pool_backward(mb, ws);
        self.conv1_backward(mb, ws, g.conv1_w, g.conv1_b);
        self.un_sort_pool(mb, ws);
        for (l, dw) in g.gc.iter_mut().enumerate().rev() {
            self.gc_backward(l, mb, ws, dw);
        }
        ws.backward_time = t_mid.elapsed();
    }

    /// GC 0 forward: one sparse·dense product over the batch's layer-0
    /// plan rows (the rows of `S·X`, which is never kept — the backward
    /// reads the plan), then tanh. Sizes the GC chain's buffers.
    fn gc0_forward(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        ws.gc_inputs.resize_with(self.gc.len(), Matrix::default);
        ws.gc_outputs.resize_with(self.gc.len(), Matrix::default);
        let out = &mut ws.gc_outputs[0];
        plan_matmul_into(mb.plan(), &self.gc[0].w, out);
        tanh_slice(out.data_mut());
    }

    /// GC layer `l ≥ 1` forward: the fused propagate + GEMM
    /// `S·H_{l-1}·W_l` over the block-diagonal adjacency (`S·H_{l-1}`
    /// stays in `gc_inputs[l]` for the weight gradient), then tanh.
    fn gc_forward(&self, l: usize, mb: &Minibatch, ws: &mut BatchWorkspace) {
        let (done, rest) = ws.gc_outputs.split_at_mut(l);
        let (input, out) = (&mut ws.gc_inputs[l], &mut rest[0]);
        propagate_matmul_into(mb.block.adj(), &done[l - 1], &self.gc[l].w, input, out);
        tanh_slice(out.data_mut());
    }

    /// Conv1 + ReLU forward: one GEMM over all `B·k` pooled rows (kernel
    /// = stride = the concatenated width, so each row is one output
    /// step).
    fn conv1_forward(&self, ck: &ConvKernels, ws: &mut BatchWorkspace) {
        let c1 = self.cfg.conv1_channels;
        let (pooled, out) = (&ws.pooled, &mut ws.conv1_out);
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

    /// MaxPool1d(2, 2) forward per sample segment: rows `2t`, `2t + 1` of
    /// the sample's `k` conv1 rows (an odd last row is dropped) into row
    /// `t`; the second row wins wherever `a >= b` fails (`b > a`, or a
    /// NaN). The winner is kept in `pool_idx` for the backward's routing.
    fn max_pool_forward(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        let (k, k2, c1) = (self.cfg.k, self.cfg.k2(), self.cfg.conv1_channels);
        let nb = mb.sample_count();
        ws.pool_out.resize_for_overwrite(nb * k2, c1);
        ws.pool_idx.resize(nb * k2 * c1, 0);
        for ((conv1, out), idx) in ws
            .conv1_out
            .data()
            .chunks_exact(k * c1)
            .zip(ws.pool_out.data_mut().chunks_exact_mut(k2 * c1))
            .zip(ws.pool_idx.chunks_exact_mut(k2 * c1))
        {
            for ((pair, out), idx) in conv1
                .chunks_exact(2 * c1)
                .zip(out.chunks_exact_mut(c1))
                .zip(idx.chunks_exact_mut(c1))
            {
                let (ra, rb) = pair.split_at(c1);
                for (((o, i), &a), &b) in out.iter_mut().zip(idx).zip(ra).zip(rb) {
                    (*o, *i) = if a >= b { (a, 0) } else { (b, 1) };
                }
            }
        }
    }

    /// Conv2 + ReLU forward (kernel `conv2_kernel`, stride 1) per sample
    /// segment: the sample's `k2 × c1` max-pooled rows into its `k3 × c2`
    /// outputs.
    fn conv2_forward(&self, mb: &Minibatch, ck: &ConvKernels, ws: &mut BatchWorkspace) {
        let (c1, c2) = (self.cfg.conv1_channels, self.cfg.conv2_channels);
        let (k2, k3) = (self.cfg.k2(), self.cfg.k3());
        ws.conv2_out
            .resize_for_overwrite(mb.sample_count() * k3, c2);
        for (pool_seg, out_seg) in ws
            .pool_out
            .data()
            .chunks_exact(k2 * c1)
            .zip(ws.conv2_out.data_mut().chunks_exact_mut(k3 * c2))
        {
            strided_gemm_into(
                pool_seg,
                c1,
                &ck.conv2_wt,
                Some(self.conv2_b.w.data()),
                out_seg,
            );
            for v in out_seg {
                *v = v.max(0.0);
            }
        }
    }

    /// Dense1 + ReLU + dropout forward: flatten (a pure reshape, row `s`
    /// = sample `s`'s conv2 rows), one GEMM over all rows, bias and ReLU,
    /// then the dropout mask — each training sample's drawn from its own
    /// seed, all ones for inference, where the ×1.0 product stays, as in
    /// the per-sample model, so even NaN payloads keep their bits.
    fn dense1_forward(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        let nb = mb.sample_count();
        ws.flat
            .resize_for_overwrite(nb, self.cfg.k3() * self.cfg.conv2_channels);
        ws.flat.data_mut().copy_from_slice(ws.conv2_out.data());
        ws.flat.matmul_into(&self.dense1_w.w, &mut ws.d1_out);
        for s in 0..nb {
            for (o, b) in ws.d1_out.row_mut(s).iter_mut().zip(self.dense1_b.w.data()) {
                *o = (*o + b).max(0.0);
            }
        }
        ws.drop_mask.resize_for_overwrite(nb, self.cfg.dense_dim);
        if mb.seeds.is_empty() {
            ws.drop_mask.data_mut().fill(1.0);
        } else {
            let keep = 1.0 - self.cfg.dropout;
            for (s, &seed) in mb.seeds.iter().enumerate() {
                let mut rng = seeded_rng(seed);
                for m in ws.drop_mask.row_mut(s) {
                    *m = if rng.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    };
                }
            }
        }
        ws.d1_out.hadamard_into(&ws.drop_mask, &mut ws.d1_dropped);
    }

    /// Dense2 + softmax forward: one GEMM over all rows, bias, then each
    /// row's two-class softmax into `ws.probs`.
    fn dense2_forward(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        ws.d1_dropped.matmul_into(&self.dense2_w.w, &mut ws.logits);
        ws.probs.resize_for_overwrite(mb.sample_count(), 2);
        for s in 0..mb.sample_count() {
            let row = ws.logits.row_mut(s);
            for (o, b) in row.iter_mut().zip(self.dense2_b.w.data()) {
                *o += b;
            }
            let (l0, l1) = (row[0], row[1]);
            let m = l0.max(l1);
            let e0 = (l0 - m).exp();
            let e1 = (l1 - m).exp();
            let z = e0 + e1;
            ws.probs.row_mut(s).copy_from_slice(&[e0 / z, e1 / z]);
        }
    }

    /// Softmax/CE + dense2 backward: row `s` of `dlogits` is sample `s`'s
    /// `p − onehot(label)`. The stacked `t_matmul` of `dW₂` visits rows
    /// (= samples) ascending from a zeroed accumulator: exactly the slot
    /// merge. The input gradient `dd1 = dlogits·W₂ᵀ` runs on `W₂ᵀ`,
    /// transposed here once per step.
    fn dense2_backward(
        &self,
        mb: &Minibatch,
        ws: &mut BatchWorkspace,
        dw: &mut Matrix,
        db: &mut Matrix,
    ) {
        ws.dlogits.resize_for_overwrite(mb.sample_count(), 2);
        ws.dlogits.data_mut().copy_from_slice(ws.probs.data());
        for (s, &label) in mb.labels.iter().enumerate() {
            ws.dlogits.row_mut(s)[usize::from(label)] -= 1.0;
        }
        ws.d1_dropped.t_matmul_into(&ws.dlogits, dw);
        reduce_rows_copy_first(&ws.dlogits, db);
        self.dense2_w.w.transpose_into(&mut ws.dense2_wt);
        mul_transposed_into(&ws.dlogits, &ws.dense2_wt, &mut ws.dd1);
    }

    /// Dense1 backward, through its dropout and ReLU (elementwise; rows
    /// are samples): stacked `dW₁` and copy-first `db₁`, then
    /// `dflat = dd1·W₁ᵀ`, computed as its transpose `W₁·dd1ᵀ`: the GEMM
    /// reads `W₁` as it is, and only the activations are transposed (on
    /// fig7 32 × 128 and 704 × 32, against the 704 × 128 weight).
    fn dense1_backward(&self, ws: &mut BatchWorkspace, dw: &mut Matrix, db: &mut Matrix) {
        for (g, (&m, &o)) in ws
            .dd1
            .data_mut()
            .iter_mut()
            .zip(ws.drop_mask.data().iter().zip(ws.d1_out.data()))
        {
            *g *= m;
            if o <= 0.0 {
                *g = 0.0;
            }
        }
        ws.flat.t_matmul_into(&ws.dd1, dw);
        reduce_rows_copy_first(&ws.dd1, db);
        ws.dd1.transpose_into(&mut ws.dd1_t);
        mul_transposed_into(&self.dense1_w.w, &ws.dd1_t, &mut ws.dflat_t);
    }

    /// Conv2 backward: un-flatten (a reshape: `dflat`'s rows are the
    /// samples' conv2 rows) straight out of the transpose, ReLU of conv2,
    /// then per-sample weight and bias subtotals (the exact per-sample
    /// sums over the sample's rows) folded in sample order. The input
    /// gradient `dpool` scatters directly — its rows are
    /// per-sample-disjoint.
    fn conv2_backward(
        &self,
        mb: &Minibatch,
        ws: &mut BatchWorkspace,
        dw: &mut Matrix,
        db: &mut Matrix,
    ) {
        let cfg = &self.cfg;
        let (c1, c2, kk) = (cfg.conv1_channels, cfg.conv2_channels, cfg.conv2_kernel);
        let (nb, k2, k3) = (mb.sample_count(), cfg.k2(), cfg.k3());
        ws.dflat_t.transpose_into(&mut ws.dconv2);
        ws.dconv2.resize_for_overwrite(nb * k3, c2);
        for (g, &o) in ws.dconv2.data_mut().iter_mut().zip(ws.conv2_out.data()) {
            if o <= 0.0 {
                *g = 0.0;
            }
        }
        ws.dpool.resize(nb * k2, c1);
        for s in 0..nb {
            ws.seg.resize(c2, kk * c1);
            ws.seg_b.resize(1, c2);
            let dconv2 = &ws.dconv2.data()[s * k3 * c2..(s + 1) * k3 * c2];
            let pool = &ws.pool_out.data()[s * k2 * c1..(s + 1) * k2 * c1];
            conv2_weight_grads(dconv2, pool, c1, &mut ws.seg, ws.seg_b.data_mut());
            let dpool = &mut ws.dpool.data_mut()[s * k2 * c1..(s + 1) * k2 * c1];
            conv2_input_grads(dconv2, &self.conv2_w.w, c1, dpool);
            fold_subtotal(s, &ws.seg, dw);
            fold_subtotal(s, &ws.seg_b, db);
        }
    }

    /// Max-pool routing backward, with the ReLU of conv1 (rows
    /// per-sample-disjoint): each pooled gradient goes to the conv1 row
    /// that won its pair, where that row's output is positive. The rows
    /// start at +0 and take at most one term each, so adding a
    /// masked-out +0 (or a ±0 gradient) leaves +0, exactly as skipping it
    /// does.
    fn max_pool_backward(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        let (k, k2, c1) = (self.cfg.k, self.cfg.k2(), self.cfg.conv1_channels);
        ws.dconv1.resize(mb.sample_count() * k, c1);
        for (((dconv1, conv1), dpool), idx) in ws
            .dconv1
            .data_mut()
            .chunks_exact_mut(k * c1)
            .zip(ws.conv1_out.data().chunks_exact(k * c1))
            .zip(ws.dpool.data().chunks_exact(k2 * c1))
            .zip(ws.pool_idx.chunks_exact(k2 * c1))
        {
            for (((dpair, pair), dpool), idx) in dconv1
                .chunks_exact_mut(2 * c1)
                .zip(conv1.chunks_exact(2 * c1))
                .zip(dpool.chunks_exact(c1))
                .zip(idx.chunks_exact(c1))
            {
                let (d0, d1) = dpair.split_at_mut(c1);
                let (r0, r1) = pair.split_at(c1);
                for ((((d0, d1), (&a, &b)), &g), &i) in d0
                    .iter_mut()
                    .zip(d1)
                    .zip(r0.iter().zip(r1))
                    .zip(dpool)
                    .zip(idx)
                {
                    *d0 += if i == 0 && a > 0.0 { g } else { 0.0 };
                    *d1 += if i != 0 && b > 0.0 { g } else { 0.0 };
                }
            }
        }
    }

    /// Conv1 backward: weight and bias gradients as per-sample subtotals
    /// folded in sample order, then the input gradient `dpooled` as one
    /// GEMM over all rows.
    fn conv1_backward(
        &self,
        mb: &Minibatch,
        ws: &mut BatchWorkspace,
        dw: &mut Matrix,
        db: &mut Matrix,
    ) {
        let (k, c1) = (self.cfg.k, self.cfg.conv1_channels);
        for s in 0..mb.sample_count() {
            ws.dconv1
                .t_matmul_rows_into(&ws.pooled, s * k..(s + 1) * k, &mut ws.seg);
            fold_subtotal(s, &ws.seg, dw);
            ws.seg_b.resize(1, c1);
            for t in s * k..(s + 1) * k {
                for (b, &g) in ws.seg_b.data_mut().iter_mut().zip(ws.dconv1.row(t)) {
                    *b += g;
                }
            }
            fold_subtotal(s, &ws.seg_b, db);
        }
        ws.dconv1.matmul_into(&self.conv1_w.w, &mut ws.dpooled);
    }

    /// Un-SortPool: each pooled row's gradient, split per GC layer, lands
    /// on its source node in `dh_layers` (padded rows vanish; a node is
    /// pooled at most once, so nothing accumulates).
    fn un_sort_pool(&self, mb: &Minibatch, ws: &mut BatchWorkspace) {
        let n = mb.block.node_count();
        ws.dh_layers.resize_with(self.gc.len(), Matrix::default);
        for (hl, d) in ws.gc_outputs.iter().zip(&mut ws.dh_layers) {
            d.resize(n, hl.cols());
        }
        let ccat = self.cfg.concat_width();
        for (&src, drow) in ws.pool_src.iter().zip(ws.dpooled.data().chunks_exact(ccat)) {
            if src != u32::MAX {
                let mut off = 0;
                for d in &mut ws.dh_layers {
                    let c = d.cols();
                    d.row_mut(src as usize).copy_from_slice(&drow[off..off + c]);
                    off += c;
                }
            }
        }
    }

    /// GC layer `l` backward, run last to first: tanh′ elementwise, `dW_l`
    /// as per-sample subtotals folded in sample order (layer 0 over the
    /// plan rows), and for `l ≥ 1` the input gradient as whole-batch
    /// kernels (block-diagonal → row-wise per-sample bits): `dZ·W_lᵀ` on
    /// the weight transposed here, propagated back and added into layer
    /// `l − 1`'s gradient.
    fn gc_backward(&self, l: usize, mb: &Minibatch, ws: &mut BatchWorkspace, dw: &mut Matrix) {
        for (g, &o) in ws.dh_layers[l]
            .data_mut()
            .iter_mut()
            .zip(ws.gc_outputs[l].data())
        {
            *g *= 1.0 - o * o;
        }
        for s in 0..mb.sample_count() {
            let range = mb.block.node_range(s);
            if l == 0 {
                let plan = mb.plan();
                plan_t_matmul_rows_into(
                    plan,
                    &ws.dh_layers[0],
                    range,
                    self.cfg.input_dim,
                    &mut ws.seg,
                );
            } else {
                ws.gc_inputs[l].t_matmul_rows_into(&ws.dh_layers[l], range, &mut ws.seg);
            }
            fold_subtotal(s, &ws.seg, dw);
        }
        if l > 0 {
            self.gc[l].w.transpose_into(&mut ws.gc_wt);
            mul_transposed_into(&ws.dh_layers[l], &ws.gc_wt, &mut ws.dzw);
            propagate_back_into(mb.block.adj(), &ws.dzw, &mut ws.dh_prev);
            ws.dh_layers[l - 1].add_assign(&ws.dh_prev);
        }
    }

    /// Batched inference over the samples at `indices`: the dropout-free
    /// forward over consecutive chunks of [`INFERENCE_CHUNK`] samples on
    /// the ambient rayon pool (one minibatch and workspace per worker),
    /// each sample's class probabilities mapped through `f`. The conv
    /// weights are transposed once per call and shared by every chunk.
    /// Output order is `indices` order, and the bits do not depend on the
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics when a feature width differs from the model's input width.
    pub(crate) fn infer<S, T, F>(&self, samples: &S, indices: &[usize], f: F) -> Vec<T>
    where
        S: SampleStore + ?Sized,
        T: Send,
        F: Fn(usize, [f32; 2]) -> T + Sync,
    {
        let mut ck = ConvKernels::default();
        self.conv_kernels_into(&mut ck);
        let chunks: Vec<&[usize]> = indices.chunks(INFERENCE_CHUNK).collect();
        let per_chunk: Vec<Vec<T>> = chunks
            .par_iter()
            .map_init(
                || (Minibatch::new(), BatchWorkspace::new()),
                |(mb, ws), chunk| {
                    mb.assemble_inference(samples, chunk);
                    self.batch_forward(mb, &ck, ws);
                    chunk
                        .iter()
                        .zip(ws.probs.data().chunks_exact(2))
                        .map(|(&i, p)| f(i, [p[0], p[1]]))
                        .collect()
                },
            )
            .collect();
        per_chunk.into_iter().flatten().collect()
    }
}

/// Samples per inference minibatch. A row's bits do not depend on its
/// batch, so this only trades kernel dispatch against the working set:
/// measured on `checkpoint-resume`, 64-sample chunks raised peak RSS by
/// a quarter and slowed scoring, while 8 kept both at the level of the
/// per-sample scorer this forward replaced.
const INFERENCE_CHUNK: usize = 8;

/// Per-sample cross-entropy losses of the last forward into
/// `ws.losses`, in job order: `−ln p` of the labelled class, `p` floored
/// at `1e-12`.
fn cross_entropy_losses(mb: &Minibatch, ws: &mut BatchWorkspace) {
    ws.losses.clear();
    for (s, &label) in mb.labels.iter().enumerate() {
        let p = ws.probs.get(s, usize::from(label)).max(1e-12);
        ws.losses.push(f64::from(-p.ln()));
    }
}

/// `out = a·bᵀ`, given `bt` = `bᵀ`: one [`strided_gemm_into()`] window
/// per row of `a`. Each output is summed from `0.0` over ascending `k` —
/// bit-identical to the dot-product loop over the rows of `b`.
fn mul_transposed_into(a: &Matrix, bt: &Matrix, out: &mut Matrix) {
    out.resize_for_overwrite(a.rows(), bt.cols());
    strided_gemm_into(a.data(), a.cols(), bt, None, out.data_mut());
}

/// SortPooling of a block-diagonal batch, straight from the per-layer
/// GC outputs `layers` (no concatenated copy): sample `s` owns the nodes
/// `node_starts[s]..node_starts[s + 1]`, ordered by the last channel of
/// the last layer, descending, ties by ascending node index (on global
/// indices, which keeps a sample's order independent of its offset;
/// `total_cmp` keeps the order total for NaN activations). The first
/// `k` of them land in `pooled` rows `s·k ..`, each the concatenation of
/// its rows in every layer, with their node index in `pool_src`; rows
/// past a graph smaller than `k` are zero, their `pool_src` `u32::MAX`.
/// The comparator never calls two nodes equal, so the unstable sort has
/// the stable sort's result.
///
/// # Panics
///
/// Panics when `layers` is empty or a node index is out of range.
pub fn sort_pool_into(
    layers: &[Matrix],
    node_starts: &[u32],
    k: usize,
    perm: &mut Vec<usize>,
    pooled: &mut Matrix,
    pool_src: &mut Vec<u32>,
) {
    let last = layers.last().expect("at least one GC layer");
    let (lc, ccat) = (last.cols(), layers.iter().map(Matrix::cols).sum());
    let key = |i: usize| last.data()[i * lc + lc - 1];
    let nb = node_starts.len().saturating_sub(1);
    pooled.resize_for_overwrite(nb * k, ccat);
    pool_src.clear();
    pool_src.resize(nb * k, u32::MAX);
    for (s, w) in node_starts.windows(2).enumerate() {
        perm.clear();
        perm.extend(w[0] as usize..w[1] as usize);
        perm.sort_unstable_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
        perm.truncate(k);
        let seg = &mut pooled.data_mut()[s * k * ccat..(s + 1) * k * ccat];
        let (rows, pad) = seg.split_at_mut(perm.len() * ccat);
        for ((row, &src), slot) in rows
            .chunks_exact_mut(ccat)
            .zip(perm.iter())
            .zip(&mut pool_src[s * k..])
        {
            let mut off = 0;
            for hl in layers {
                row[off..off + hl.cols()].copy_from_slice(hl.row(src));
                off += hl.cols();
            }
            *slot = src as u32;
        }
        pad.fill(0.0);
    }
}

kernel! {
    /// Conv2 weight and bias gradients of one sample, accumulated into `gw`
    /// (`c2 × kk·c1`) and `gb` (`c2`): for each output `o`, over ascending
    /// `t`, `gb[o] += g` and `gw[o] += g · window_t`, where `g =
    /// dconv2[t][o]` (zero skipped) and `window_t = pool[t·c1 .. t·c1 +
    /// kk·c1]` is the contiguous run of the `kk` pooled rows conv2 read.
    /// Each element sums the same products in the same order as the
    /// per-sample loop; the weight row stays in register tiles across the
    /// `t` sweep. Runs in AVX2 where the CPU has it (the crate's `isa`
    /// module), with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `dconv2` does not hold whole `c2`-wide steps or a window
    /// runs past the end of `pool`.
    pub fn conv2_weight_grads(
        dconv2: &[f32],
        pool: &[f32],
        c1: usize,
        gw: &mut Matrix,
        gb: &mut [f32],
    ) {
        let c2 = gw.rows();
        let k3 = dconv2.len().checked_div(c2).unwrap_or(0);
        let mut buf = [(0, 0.0); TERM_BLOCK];
        for (o, b) in gb.iter_mut().enumerate() {
            for t0 in (0..k3).step_by(TERM_BLOCK) {
                let steps = t0..k3.min(t0 + TERM_BLOCK);
                let grads = nonzero_terms(steps.map(|t| (t, dconv2[t * c2 + o])), &mut buf);
                for &(_, g) in grads {
                    *b += g;
                }
                axpy_rows_tiled::<false>(grads.iter().copied(), pool, c1, gw.row_mut(o));
            }
        }
    }
}

/// The row width of one [`conv2_input_grads`] tile, in `f32` lanes: all
/// sixteen of the paper's conv1 channels, so `CONV2_TILE_ROWS` rows are
/// ten 256-bit accumulators in the AVX2 instance, with room for the
/// operands. Measured against 8 lanes (the half row that fit SSE2's
/// sixteen 128-bit registers), the wider tile ran conv2's backward
/// faster in AVX2.
const CONV2_TILE_LANES: usize = 16;

/// Destination rows per [`conv2_input_grads`] tile (the paper's conv2
/// kernel width, 5).
const CONV2_TILE_ROWS: usize = 5;

kernel! {
    /// Conv2 input gradient of one sample, accumulated into `dpool` (`k2 ×
    /// c1`): `dpool[t + dt] += g · w[o][dt·c1 ..]` for every step `t`
    /// ascending, output `o` ascending (zero `g` skipped) and kernel offset
    /// `dt`. Row `r` thus sums its products in (t asc, o asc) order, as the
    /// per-sample loop did. For one `t`, the `kk` destination rows are held
    /// in a register tile of `CONV2_TILE_ROWS` × `CONV2_TILE_LANES`
    /// lanes across the whole `o` loop, instead of being reloaded and
    /// stored per output. Runs in AVX2 where the CPU has it (the crate's
    /// `isa` module), with the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `w` is not `c2 × kk·c1` or a destination row runs past
    /// the end of `dpool`.
    pub fn conv2_input_grads(dconv2: &[f32], w: &Matrix, c1: usize, dpool: &mut [f32]) {
        let c2 = w.rows();
        if c2 == 0 || c1 == 0 {
            return;
        }
        let kk = w.cols() / c1;
        let tiled = c1 - c1 % CONV2_TILE_LANES;
        let mut buf = [(0, 0.0); TERM_BLOCK];
        for (t, gs) in dconv2.chunks_exact(c2).enumerate() {
            for (b, block) in gs.chunks(TERM_BLOCK).enumerate() {
                let outputs = block.iter().enumerate();
                let grads = nonzero_terms(outputs.map(|(j, &g)| (b * TERM_BLOCK + j, g)), &mut buf);
                for c0 in (0..tiled).step_by(CONV2_TILE_LANES) {
                    dpool_lanes::<CONV2_TILE_LANES>(grads, w, c1, kk, t, c0, dpool);
                }
                for c0 in tiled..c1 {
                    dpool_lanes::<1>(grads, w, c1, kk, t, c0, dpool);
                }
            }
        }
    }
}

/// Lanes `c0..c0 + L` of step `t` of [`conv2_input_grads`]: the `kk`
/// destination rows in groups of at most `CONV2_TILE_ROWS` (a row
/// belongs to one group per step, so grouping keeps every element's
/// order).
#[inline(always)]
fn dpool_lanes<const L: usize>(
    grads: &[(usize, f32)],
    w: &Matrix,
    c1: usize,
    kk: usize,
    t: usize,
    c0: usize,
    dpool: &mut [f32],
) {
    let mut d0 = 0;
    while d0 < kk {
        let rows = (kk - d0).min(CONV2_TILE_ROWS);
        let (dst, wc) = ((t + d0) * c1 + c0, d0 * c1 + c0);
        match rows {
            1 => dpool_tile::<1, L>(grads, w, c1, dst, wc, dpool),
            2 => dpool_tile::<2, L>(grads, w, c1, dst, wc, dpool),
            3 => dpool_tile::<3, L>(grads, w, c1, dst, wc, dpool),
            4 => dpool_tile::<4, L>(grads, w, c1, dst, wc, dpool),
            _ => dpool_tile::<CONV2_TILE_ROWS, L>(grads, w, c1, dst, wc, dpool),
        }
        d0 += rows;
    }
}

/// `R` destination rows × `L` lanes of [`conv2_input_grads`]: row `r`
/// of the tile is `dpool[dst + r·c1 ..]`, weighted by `w[o][wc + r·c1
/// ..]` for each nonzero `(o, g)`.
#[inline(always)]
fn dpool_tile<const R: usize, const L: usize>(
    grads: &[(usize, f32)],
    w: &Matrix,
    c1: usize,
    dst: usize,
    wc: usize,
    dpool: &mut [f32],
) {
    let lanes = |r: usize| dst + r * c1..dst + r * c1 + L;
    let mut acc = [[0.0f32; L]; R];
    for (r, a) in acc.iter_mut().enumerate() {
        *a = dpool[lanes(r)].try_into().expect("tile width");
    }
    for &(o, g) in grads {
        let wrow = w.row(o);
        for (r, a) in acc.iter_mut().enumerate() {
            let ws: &[f32; L] = wrow[wc + r * c1..wc + r * c1 + L]
                .try_into()
                .expect("tile width");
            for (a, &wv) in a.iter_mut().zip(ws) {
                *a += g * wv;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        dpool[lanes(r)].copy_from_slice(a);
    }
}

/// Reduces a stacked one-row-per-sample gradient (`B × c`) the way the
/// per-sample path reduces its slots: bit-copy sample 0's row, then
/// `+=` the remaining rows in sample order. (A fresh `0 + x`
/// accumulation would turn a `-0.0` payload into `+0.0`; `copy_from`
/// keeps the slot-merge bits exactly.)
fn reduce_rows_copy_first(src: &Matrix, out: &mut Matrix) {
    out.resize_for_overwrite(1, src.cols());
    out.data_mut().copy_from_slice(src.row(0));
    for s in 1..src.rows() {
        for (o, &b) in out.data_mut().iter_mut().zip(src.row(s)) {
            *o += b;
        }
    }
}

/// Folds one sample's gradient subtotal into the accumulator exactly as
/// the reference loop folds its slots: `copy_from` for sample 0, then
/// element-wise `+=` (= [`Gradients::merge`]) for the rest.
fn fold_subtotal(s: usize, seg: &Matrix, acc: &mut Matrix) {
    if s == 0 {
        acc.copy_from(seg);
    } else {
        acc.add_assign(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgcnn::DgcnnConfig;
    use crate::matrix::seeded_rng;
    use crate::sample::GraphSample;
    use muxlink_graph::{Csr, OneHotFeatures};

    fn tiny_cfg(input_dim: usize) -> DgcnnConfig {
        DgcnnConfig {
            input_dim,
            gc_channels: vec![3, 2, 1],
            conv1_channels: 2,
            conv2_channels: 2,
            conv2_kernel: 2,
            dense_dim: 4,
            dropout: 0.5,
            k: 4,
            seed: 3,
        }
    }

    fn adj_for(seed: u64) -> Csr {
        match seed % 3 {
            0 => Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1, 4], vec![3]]),
            1 => Csr::from_lists(&[vec![1], vec![0, 2], vec![1]]),
            _ => Csr::from_lists(&[vec![1], vec![0], vec![3], vec![2], vec![]]),
        }
    }

    fn onehot_sample(seed: u64) -> GraphSample {
        let adj = adj_for(seed);
        let n = adj.node_count();
        let gate = (0..n).map(|i| (i as u32 + seed as u32) % 8).collect();
        let label = (0..n).map(|i| (i as u32 ^ seed as u32) % 3).collect();
        GraphSample {
            adj,
            features: OneHotFeatures::new(11, gate, label),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// Plans are stacked per sample: a batch's plan carries, in job
    /// order, the bits of each sample's own plan, even through a dirty
    /// minibatch.
    #[test]
    fn plan_stacking_is_per_sample() {
        let samples: Vec<GraphSample> = (0..4).map(onehot_sample).collect();
        let jobs = [(3, 1), (0, 2), (1, 3), (3, 4), (2, 5)];
        let plan_bits = |plan: Layer0PlanView<'_>| {
            let (cols, vals) = plan.entries();
            let vals: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            (plan.offsets().to_vec(), cols.to_vec(), vals)
        };
        let mut want = Layer0Plans::new();
        for &(i, _) in &jobs {
            want.push_sample(samples[i].adj.view(), samples[i].features.view());
        }
        let mut mb = Minibatch::new();
        mb.assemble(&samples, &[(2, 9)]);
        mb.assemble(&samples, &jobs);
        assert_eq!(mb.plan().node_count(), mb.block.node_count());
        assert_eq!(plan_bits(mb.plan()), plan_bits(want.view()));
    }

    /// The per-sample conv2 backward loop the two kernels replaced, kept
    /// as their oracle: for `t`, then `o` ascending (zero `g` skipped),
    /// `gb[o] += g`, and for each `dt` both `gw[o][dt·c1 ..] += g·p` and
    /// `dpool[t + dt] += g·w`, in memory, on the given starting values.
    #[allow(clippy::needless_range_loop)]
    fn conv2_backward_oracle(
        dconv2: &Matrix,
        pool: &Matrix,
        w: &Matrix,
        (gw, gb, dpool): (&mut Matrix, &mut [f32], &mut Matrix),
    ) {
        let (c1, kk) = (pool.cols(), w.cols() / pool.cols());
        for t in 0..dconv2.rows() {
            for o in 0..dconv2.cols() {
                let g = dconv2.get(t, o);
                if g == 0.0 {
                    continue;
                }
                gb[o] += g;
                for dt in 0..kk {
                    let prow = pool.row(t + dt);
                    let gwrow = &mut gw.row_mut(o)[dt * c1..(dt + 1) * c1];
                    for i in 0..c1 {
                        gwrow[i] += g * prow[i];
                    }
                    let wseg = &w.row(o)[dt * c1..(dt + 1) * c1];
                    let dprow = dpool.row_mut(t + dt);
                    for i in 0..c1 {
                        dprow[i] += g * wseg[i];
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Both conv2 backward kernels against the per-sample loop:
        /// `c1` that is not a multiple of the 16-lane row, kernel
        /// widths other than the paper's 5 (including more than one
        /// 5-row tile group), step and output counts past one 64-term
        /// block, zero and −0.0 gradients, NaN and ±∞ in
        /// gradients, activations and weights, and non-zero starting
        /// accumulators.
        #[test]
        fn conv2_backward_kernels_match_per_sample_loop_bitwise(
            ((c1, kk, k3), (c2, seed)) in (
                (1usize..20, 1usize..12, 1usize..70),
                (1usize..80, proptest::num::u64::ANY),
            ),
        ) {
            use crate::matrix::tests::{conv_input, same_bits};
            let mut rng = seeded_rng(seed);
            let special = seed % 4 == 0;
            let k2 = k3 + kk - 1;
            let dconv2 = conv_input(k3, c2, 0, special, &mut rng);
            let pool = conv_input(k2, c1, 0, special, &mut rng);
            let w = conv_input(c2, kk * c1, 0, special, &mut rng);
            let gw0 = conv_input(c2, kk * c1, 0, false, &mut rng);
            let gb0 = conv_input(1, c2, 0, false, &mut rng);
            let dpool0 = conv_input(k2, c1, 0, false, &mut rng);

            let (mut gw_want, mut gb_want, mut dpool_want) = (gw0.clone(), gb0.clone(), dpool0.clone());
            conv2_backward_oracle(
                &dconv2,
                &pool,
                &w,
                (&mut gw_want, gb_want.data_mut(), &mut dpool_want),
            );
            let (mut gw, mut gb, mut dpool) = (gw0, gb0, dpool0);
            conv2_weight_grads(dconv2.data(), pool.data(), c1, &mut gw, gb.data_mut());
            conv2_input_grads(dconv2.data(), &w, c1, dpool.data_mut());
            proptest::prop_assert!(same_bits(&gw, &gw_want), "dW {c1} {kk} {k3} {c2}");
            proptest::prop_assert!(same_bits(&gb, &gb_want), "db {c1} {kk} {k3} {c2}");
            proptest::prop_assert!(same_bits(&dpool, &dpool_want), "dpool {c1} {kk} {k3} {c2}");
        }

        /// ISA oracle: `conv2_weight_grads`' AVX2 instance against its
        /// baseline one, on the oracle inputs (zeros of either sign,
        /// subnormals, NaN payloads, ±∞) and dirty starting accumulators:
        /// `c1` across the 32- and 16-lane tiles and their tails, steps
        /// past one 64-term block.
        #[test]
        fn conv2_weight_grads_avx2_instance_matches_baseline_bitwise(
            ((c1, kk, k3), (c2, seed)) in (
                (1usize..40, 1usize..8, 1usize..70),
                (1usize..40, proptest::num::u64::ANY),
            ),
        ) {
            use crate::isa::tests::{avx2_ran, oracle_matrix};
            use crate::matrix::tests::same_bits;
            let mut rng = seeded_rng(seed);
            let dconv2 = oracle_matrix(k3, c2, &mut rng);
            let pool = oracle_matrix(k3 + kk - 1, c1, &mut rng);
            let (gw0, gb0) = (oracle_matrix(c2, kk * c1, &mut rng), oracle_matrix(1, c2, &mut rng));
            let (mut gw_want, mut gb_want) = (gw0.clone(), gb0.clone());
            conv2_weight_grads::baseline(dconv2.data(), pool.data(), c1, &mut gw_want, gb_want.data_mut());
            let (mut gw, mut gb) = (gw0, gb0);
            if !avx2_ran(conv2_weight_grads::avx2(dconv2.data(), pool.data(), c1, &mut gw, gb.data_mut())) {
                return;
            }
            proptest::prop_assert!(same_bits(&gw, &gw_want), "dW {c1} {kk} {k3} {c2}");
            proptest::prop_assert!(same_bits(&gb, &gb_want), "db {c1} {kk} {k3} {c2}");
        }

        /// ISA oracle: `conv2_input_grads`' AVX2 instance against its
        /// baseline one, on the oracle inputs and a dirty starting
        /// `dpool`: `c1` across the lane tile and its one-at-a-time tail,
        /// kernel widths across more than one row group, outputs past one
        /// 64-term block.
        #[test]
        fn conv2_input_grads_avx2_instance_matches_baseline_bitwise(
            ((c1, kk, k3), (c2, seed)) in (
                (1usize..40, 1usize..12, 1usize..20),
                (1usize..80, proptest::num::u64::ANY),
            ),
        ) {
            use crate::isa::tests::{avx2_ran, oracle_matrix};
            use crate::matrix::tests::same_bits;
            let mut rng = seeded_rng(seed);
            let dconv2 = oracle_matrix(k3, c2, &mut rng);
            let w = oracle_matrix(c2, kk * c1, &mut rng);
            let dpool0 = oracle_matrix(k3 + kk - 1, c1, &mut rng);
            let mut want = dpool0.clone();
            conv2_input_grads::baseline(dconv2.data(), &w, c1, want.data_mut());
            let mut got = dpool0;
            if !avx2_ran(conv2_input_grads::avx2(dconv2.data(), &w, c1, got.data_mut())) {
                return;
            }
            proptest::prop_assert!(same_bits(&got, &want), "dpool {c1} {kk} {k3} {c2}");
        }
    }

    #[test]
    #[should_panic(expected = "empty minibatch")]
    fn empty_jobs_rejected() {
        let samples: Vec<GraphSample> = vec![onehot_sample(0)];
        let model = Dgcnn::new(tiny_cfg(11));
        let mut mb = Minibatch::new();
        mb.assemble(&samples[..], &[(0, 1)]);
        let mb_empty = Minibatch::new();
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        model.batch_train_step(&mb_empty, &mut ws, &mut grads);
    }

    /// Gradients laid out for a model with another number of GC layers
    /// are refused before any tensor is written.
    #[test]
    #[should_panic(expected = "gradient layout mismatch")]
    fn train_step_rejects_a_foreign_gradient_layout() {
        let samples: Vec<GraphSample> = vec![onehot_sample(0)];
        let model = Dgcnn::new(tiny_cfg(11));
        let mut other_cfg = tiny_cfg(11);
        other_cfg.gc_channels = vec![3, 1];
        let mut grads = Dgcnn::new(other_cfg).new_gradients();
        let mut mb = Minibatch::new();
        mb.assemble(&samples[..], &[(0, 1)]);
        model.batch_train_step(&mb, &mut BatchWorkspace::new(), &mut grads);
    }
}
