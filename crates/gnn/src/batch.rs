//! Block-diagonal batched training: one fused kernel per layer per
//! minibatch.
//!
//! The per-sample trainer pays `batch_size` tiny kernel dispatches per
//! layer, writes every sample's gradients into its own [`Gradients`]
//! slot, and then merges the slots — on the paper workload (≤ 64-node
//! subgraphs, ~45k-parameter dense layers) the slot traffic and
//! dispatch overhead dominate the epoch. This module packs a minibatch
//! into one [`BlockDiagBatch`] (see `muxlink_graph::batch`) plus
//! stacked feature/activation matrices and runs **one** kernel per
//! layer per batch: the graph convolutions via the fused
//! [`propagate_matmul_into`] / [`onehot_propagate_matmul_into`], the
//! dense head as whole-batch GEMMs, and the gradient reductions either
//! as single stacked products (one-row-per-sample tensors) or as
//! segmented per-sample subtotals (multi-row tensors).
//!
//! # Determinism contract — bit-identical to the per-sample loop
//!
//! The batched step reproduces the reference per-sample loop (forward +
//! backward per sample, slots merged in sample order) **bit for bit**,
//! by construction:
//!
//! * Blocks are disjoint, so every row-wise kernel (propagate, GEMMs,
//!   activations, softmax) performs exactly the per-sample operations
//!   on exactly the per-sample values, row by row.
//! * SortPooling, max-pool and the 1-D convolutions are applied per
//!   sample segment with the per-sample loops verbatim.
//! * Weight gradients whose per-sample contribution comes from one
//!   stacked row (`dense1_w`, `dense2_w`) reduce via a single
//!   `t_matmul` over the batch: its row-ascending skip-zero loop *is*
//!   the sample-order merge.
//! * Bias gradients that the per-sample path `copy_from`s
//!   (`dense1_b`, `dense2_b`) reduce copy-first-then-add — preserving
//!   even `-0.0` payloads a fresh accumulation would lose.
//! * Multi-row weight gradients (GC layers, conv1, conv2) reduce as
//!   per-sample subtotals into a reused scratch tensor (the exact
//!   per-sample kernel over the sample's row segment), folded in
//!   sample order — the same grouping as [`Gradients::merge`].
//! * Per-sample dropout masks are drawn from the same per-sample seeds
//!   the reference loop uses, one fresh RNG per sample row.
//!
//! The property suite pins `batch_train_step` to the reference loop
//! bitwise across batch sizes, storage paths and thread counts (the
//! batched step is sequential, so thread-invariance is structural).

use std::time::{Duration, Instant};

use rand::Rng;

use muxlink_graph::{BlockDiagBatch, Layer0PlanView};

use crate::activation::tanh_slice;
use crate::dgcnn::{ConvKernels, Dgcnn};
use crate::matrix::{seeded_rng, Matrix};
use crate::param::Gradients;
use crate::sample::{
    onehot_propagate_matmul_into, onehot_propagate_t_matmul_rows_into, plan_matmul_into,
    plan_t_matmul_rows_into, propagate_back_into, propagate_matmul_into, FeaturesView,
    OneHotSpmmScratch, SampleStore,
};

/// A minibatch assembled for the batched training step: the
/// block-diagonal adjacency/feature batch plus the per-sample labels
/// and dropout seeds of the jobs it was built from.
///
/// Reusable: [`Minibatch::assemble`] clears and refills in place, so
/// steady-state batches allocate nothing.
#[derive(Debug, Default)]
pub struct Minibatch {
    /// Block-diagonal adjacency + two-hot features.
    block: BlockDiagBatch,
    /// Stacked dense features (dense-featured batches only).
    dense: Matrix,
    /// True when the batch carries two-hot features, false for dense.
    one_hot: bool,
    /// Per-sample training labels, in job order.
    labels: Vec<bool>,
    /// Per-sample dropout seeds, in job order.
    seeds: Vec<u64>,
    /// Stacked layer-0 plan row offsets (batch node CSR over plan
    /// entries; built only when every sample carried a cached plan).
    plan_offsets: Vec<u32>,
    /// Stacked plan entry columns (feature-space indices — identical
    /// across samples, so stacking needs no rebasing).
    plan_cols: Vec<u32>,
    /// Stacked plan entry values (`count · scale`, the exact histogram
    /// bits).
    plan_vals: Vec<f32>,
    /// True when the plan slabs cover every sample of this batch.
    has_plans: bool,
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
        self.labels.len()
    }

    /// Packs the given `(sample index, dropout seed)` jobs into this
    /// batch: adjacency blocks rebased into one CSR, features stacked
    /// (two-hot slabs or a dense row-stacked matrix), labels and seeds
    /// recorded in job order.
    ///
    /// # Panics
    ///
    /// Panics when `jobs` is empty, a referenced sample is unlabelled,
    /// or the batch mixes dense and two-hot feature forms.
    pub fn assemble<S: SampleStore + ?Sized>(&mut self, store: &S, jobs: &[(usize, u64)]) {
        self.assemble_with(store, jobs, true);
    }

    /// [`Minibatch::assemble`] with explicit control over cached layer-0
    /// plans: when `use_plans` is true and **every** sample exposes a
    /// cached plan ([`SampleStore::plan`]), the per-sample plan rows are
    /// row-concatenated into one batch-level plan (entry offsets rebased,
    /// feature-space columns and values bit-copied) and
    /// [`Minibatch::plan`] returns it; otherwise the batch carries no
    /// plan and the training step falls back to rebuilding the
    /// propagated features from the two-hot histograms.
    ///
    /// # Panics
    ///
    /// As [`Minibatch::assemble`].
    pub fn assemble_with<S: SampleStore + ?Sized>(
        &mut self,
        store: &S,
        jobs: &[(usize, u64)],
        use_plans: bool,
    ) {
        assert!(!jobs.is_empty(), "cannot assemble an empty minibatch");
        self.block.clear();
        self.labels.clear();
        self.seeds.clear();
        let mut dense_cols = None;
        for &(i, seed) in jobs {
            let s = store.view(i);
            self.labels
                .push(s.label.expect("batched samples must be labelled"));
            self.seeds.push(seed);
            match s.features {
                FeaturesView::OneHot(x) => self.block.push(s.adj, Some(x)),
                FeaturesView::Dense(m) => {
                    assert!(
                        dense_cols.is_none_or(|c| c == m.cols()),
                        "dense feature width changed mid-batch"
                    );
                    dense_cols = Some(m.cols());
                    self.block.push(s.adj, None);
                }
            }
        }
        self.one_hot = dense_cols.is_none();
        if let Some(cols) = dense_cols {
            self.dense
                .resize_for_overwrite(self.block.node_count(), cols);
            for (s, &(i, _)) in jobs.iter().enumerate() {
                let FeaturesView::Dense(m) = store.view(i).features else {
                    panic!("batch mixes dense and two-hot features");
                };
                for (row, dst) in self.block.node_range(s).enumerate() {
                    self.dense.row_mut(dst).copy_from_slice(m.row(row));
                }
            }
        } else {
            self.dense.resize_for_overwrite(0, 0);
        }
        // Stack cached layer-0 plans, all-or-none: a single plan-less
        // sample sends the whole batch down the rebuild path, so the
        // step never mixes cached and rebuilt rows.
        self.plan_offsets.clear();
        self.plan_cols.clear();
        self.plan_vals.clear();
        self.has_plans = false;
        if use_plans && self.one_hot {
            self.plan_offsets.push(0);
            let mut all = true;
            for &(i, _) in jobs {
                let Some(plan) = store.plan(i) else {
                    all = false;
                    break;
                };
                let base = self.plan_cols.len() as u32;
                let (cols, vals) = plan.entries();
                self.plan_cols.extend_from_slice(cols);
                self.plan_vals.extend_from_slice(vals);
                let off = plan.offsets();
                let off0 = off[0];
                self.plan_offsets
                    .extend(off[1..].iter().map(|&w| base + (w - off0)));
            }
            if all {
                self.has_plans = true;
            } else {
                self.plan_offsets.clear();
                self.plan_cols.clear();
                self.plan_vals.clear();
            }
        }
    }

    /// The stacked layer-0 plan of this batch, when every sample carried
    /// a cached plan at assembly. Row `i` is the plan row of batch node
    /// `i` (the block-diagonal node order).
    #[must_use]
    pub fn plan(&self) -> Option<Layer0PlanView<'_>> {
        self.has_plans.then(|| {
            Layer0PlanView::from_raw_parts(&self.plan_offsets, &self.plan_cols, &self.plan_vals)
        })
    }
}

/// Reusable buffers of [`Dgcnn::batch_train_step`]: the stacked
/// activations of one batched forward pass plus the backward scratch —
/// the batch-level counterpart of [`crate::workspace::Workspace`].
/// Every field is resized in place and fully overwritten per step, so
/// one workspace serves an unbounded stream of batches without
/// re-allocating, with reuse never changing a single bit.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    // Forward activations (N = total batch nodes, B = samples).
    gc_inputs: Vec<Matrix>,
    gc_outputs: Vec<Matrix>,
    spmm: OneHotSpmmScratch,
    hcat: Matrix,
    perm: Vec<usize>,
    /// Global `hcat` source row of each pooled row (`u32::MAX` = pad).
    pool_src: Vec<u32>,
    pooled: Matrix,
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
    probs: Matrix,
    /// Per-sample cross-entropy losses of the last step, in job order —
    /// the caller folds them into its epoch sum exactly as the
    /// reference loop folds its per-sample loss vector.
    pub losses: Vec<f64>,
    // Backward scratch.
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
    /// Per-sample gradient subtotal (segmented reductions).
    seg: Matrix,
    /// Second subtotal for kernels producing two tensors at once.
    seg_b: Matrix,
    /// `|dH|` scratch of the top-k gradient sparsifier.
    abs: Vec<f32>,
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
}

/// Zeroes all but the largest ⌈`keep` · len⌉ entries of `dz` by
/// magnitude (ties at the threshold kept — deterministic, no
/// index-dependent selection). The tolerance-pinned `dh_keep`
/// sparsification: downstream `t_matmul` skip-zero guards then skip the
/// zeroed entries' whole weight-gradient rows.
fn sparsify_top_k(dz: &mut Matrix, keep: f32, abs: &mut Vec<f32>) {
    let len = dz.data().len();
    if len == 0 {
        return;
    }
    let kept = ((keep * len as f32).ceil() as usize).clamp(1, len);
    if kept >= len {
        return;
    }
    abs.clear();
    abs.extend(dz.data().iter().map(|v| v.abs()));
    let (_, cut, _) = abs.select_nth_unstable_by(len - kept, f32::total_cmp);
    let cut = *cut;
    for g in dz.data_mut() {
        if g.abs() < cut {
            *g = 0.0;
        }
    }
}

impl Dgcnn {
    /// One training step over an assembled minibatch: batched forward,
    /// batched backward, per-sample losses into `ws.losses` and the
    /// summed (unscaled) minibatch gradients into `grads` — bit-
    /// identical to running the per-sample reference loop over the same
    /// jobs and merging its slots in order (see the [module
    /// docs](self)). The caller applies the optimiser step, scaled by
    /// `1/batch`, exactly as with the merged slots.
    ///
    /// `dh_keep < 1.0` enables the tolerance-pinned top-k sparsification
    /// of the tanh gradients of GC layers ≥ 1 (and only then leaves the
    /// bit-exact contract).
    ///
    /// # Panics
    ///
    /// Panics when the batch is empty, the feature width differs from
    /// the model's input width, or `grads` has a different layout.
    #[allow(clippy::too_many_lines)]
    pub fn batch_train_step(
        &self,
        mb: &Minibatch,
        dh_keep: f32,
        ws: &mut BatchWorkspace,
        grads: &mut Gradients,
    ) {
        let nb = mb.sample_count();
        assert!(nb > 0, "empty minibatch");
        let adj = mb.block.adj();
        let n = adj.node_count();
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
        let in_cols = if mb.one_hot {
            mb.block.features().cols()
        } else {
            mb.dense.cols()
        };
        assert_eq!(in_cols, cfg.input_dim, "feature width mismatch");
        let t_start = Instant::now();

        // ---- Forward: graph convolutions, one fused kernel per layer.
        let nlayers = self.gc.len();
        ws.gc_inputs.resize_with(nlayers, Matrix::default);
        ws.gc_outputs.resize_with(nlayers, Matrix::default);
        for (l, p) in self.gc.iter().enumerate() {
            let (done, rest) = ws.gc_outputs.split_at_mut(l);
            if l == 0 {
                if let Some(plan) = mb.plan() {
                    // Cached S·X plan: the layer-0 propagation collapses
                    // to one sparse·dense product over precomputed
                    // histogram entries — same values, same order, same
                    // bits as the rebuild below.
                    plan_matmul_into(plan, &p.w, &mut rest[0]);
                    ws.gc_inputs[0].resize(0, 0);
                } else if mb.one_hot {
                    onehot_propagate_matmul_into(
                        adj,
                        mb.block.features(),
                        &p.w,
                        &mut rest[0],
                        &mut ws.spmm,
                    );
                    ws.gc_inputs[0].resize(0, 0);
                } else {
                    propagate_matmul_into(adj, &mb.dense, &p.w, &mut ws.gc_inputs[0], &mut rest[0]);
                }
            } else {
                propagate_matmul_into(adj, &done[l - 1], &p.w, &mut ws.gc_inputs[l], &mut rest[0]);
            }
            tanh_slice(rest[0].data_mut());
        }

        // Column-concatenate H¹…Hᴸ (row-wise — block structure is moot).
        ws.hcat.resize_for_overwrite(n, ccat);
        for i in 0..n {
            let row = ws.hcat.row_mut(i);
            let mut off = 0;
            for hl in &ws.gc_outputs {
                row[off..off + hl.cols()].copy_from_slice(hl.row(i));
                off += hl.cols();
            }
        }

        // SortPooling per sample segment: the per-sample comparator on
        // global row indices (tie-break by ascending index is base-shift
        // invariant within a segment).
        ws.pooled.resize(nb * k, ccat);
        ws.pool_src.clear();
        ws.pool_src.resize(nb * k, u32::MAX);
        for s in 0..nb {
            let range = mb.block.node_range(s);
            let hcat = &ws.hcat;
            ws.perm.clear();
            ws.perm.extend(range);
            ws.perm.sort_by(|&a, &b| {
                let va = hcat.get(a, ccat - 1);
                let vb = hcat.get(b, ccat - 1);
                vb.total_cmp(&va).then(a.cmp(&b))
            });
            ws.perm.truncate(k);
            for (t, &src) in ws.perm.iter().enumerate() {
                ws.pooled
                    .row_mut(s * k + t)
                    .copy_from_slice(ws.hcat.row(src));
                ws.pool_src[s * k + t] = src as u32;
            }
        }

        // Conv1 (per-row linear): one GEMM over all B·k pooled rows.
        self.conv_kernels_into(&mut ws.conv_kernels);
        self.conv1_forward(&ws.conv_kernels, &ws.pooled, &mut ws.conv1_out);

        // MaxPool1d(2, 2) per sample segment.
        ws.pool_out.resize_for_overwrite(nb * k2, c1);
        ws.pool_idx.clear();
        ws.pool_idx.resize(nb * k2 * c1, 0);
        for s in 0..nb {
            for t in 0..k2 {
                for o in 0..c1 {
                    let a = ws.conv1_out.get(s * k + 2 * t, o);
                    let b = ws.conv1_out.get(s * k + 2 * t + 1, o);
                    let dst = s * k2 + t;
                    if a >= b {
                        ws.pool_out.set(dst, o, a);
                    } else {
                        ws.pool_out.set(dst, o, b);
                        ws.pool_idx[dst * c1 + o] = 1;
                    }
                }
            }
        }

        // Conv2 (kernel `kk`, stride 1, ReLU) per sample segment.
        ws.conv2_out.resize_for_overwrite(nb * k3, c2);
        for (pool_seg, out_seg) in ws
            .pool_out
            .data()
            .chunks_exact(k2 * c1)
            .zip(ws.conv2_out.data_mut().chunks_exact_mut(k3 * c2))
        {
            self.conv2_forward(&ws.conv_kernels, pool_seg, out_seg);
        }

        // Flatten (pure reshape: row s = sample s's conv2 rows) →
        // dense(128) → ReLU → dropout → dense(2) → softmax, all rows at
        // once — every op is per-row, so each row carries the
        // per-sample bits.
        ws.flat.resize_for_overwrite(nb, k3 * c2);
        ws.flat.data_mut().copy_from_slice(ws.conv2_out.data());
        ws.flat.matmul_into(&self.dense1_w.w, &mut ws.d1_out);
        for s in 0..nb {
            for (o, b) in ws.d1_out.row_mut(s).iter_mut().zip(self.dense1_b.w.data()) {
                *o = (*o + b).max(0.0);
            }
        }
        ws.drop_mask.resize_for_overwrite(nb, cfg.dense_dim);
        let keep = 1.0 - cfg.dropout;
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
        ws.d1_out.hadamard_into(&ws.drop_mask, &mut ws.d1_dropped);
        ws.d1_dropped.matmul_into(&self.dense2_w.w, &mut ws.logits);
        ws.probs.resize_for_overwrite(nb, 2);
        ws.losses.clear();
        for (s, &label) in mb.labels.iter().enumerate() {
            let row = ws.logits.row_mut(s);
            for (o, b) in row.iter_mut().zip(self.dense2_b.w.data()) {
                *o += b;
            }
            let (l0, l1) = (row[0], row[1]);
            let m = l0.max(l1);
            let e0 = (l0 - m).exp();
            let e1 = (l1 - m).exp();
            let z = e0 + e1;
            let probs = [e0 / z, e1 / z];
            ws.probs.row_mut(s).copy_from_slice(&probs);
            let p = probs[usize::from(label)].max(1e-12);
            ws.losses.push(f64::from(-p.ln()));
        }
        let t_mid = Instant::now();
        ws.forward_time = t_mid - t_start;

        // ---- Backward.
        let gt = grads.tensors_mut();
        assert_eq!(gt.len(), nlayers + 8, "gradient layout mismatch");
        let (conv1_w_g, conv1_b_g, conv2_w_g, conv2_b_g) =
            (nlayers, nlayers + 1, nlayers + 2, nlayers + 3);
        let (dense1_w_g, dense1_b_g, dense2_w_g, dense2_b_g) =
            (nlayers + 4, nlayers + 5, nlayers + 6, nlayers + 7);

        // Softmax + CE: row s of dlogits is sample s's dlogits.
        ws.dlogits.resize_for_overwrite(nb, 2);
        ws.dlogits.data_mut().copy_from_slice(ws.probs.data());
        for (s, &label) in mb.labels.iter().enumerate() {
            ws.dlogits.row_mut(s)[usize::from(label)] -= 1.0;
        }

        // Dense 2. The stacked t_matmul visits rows (= samples)
        // ascending from a zeroed accumulator: exactly the slot merge.
        ws.d1_dropped
            .t_matmul_into(&ws.dlogits, &mut gt[dense2_w_g]);
        reduce_rows_copy_first(&ws.dlogits, &mut gt[dense2_b_g]);
        ws.dlogits.matmul_t_into(&self.dense2_w.w, &mut ws.dd1);

        // Dropout + ReLU of dense 1 (elementwise; rows are samples).
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
        ws.flat.t_matmul_into(&ws.dd1, &mut gt[dense1_w_g]);
        reduce_rows_copy_first(&ws.dd1, &mut gt[dense1_b_g]);
        ws.dd1.matmul_t_into(&self.dense1_w.w, &mut ws.dflat);

        // Un-flatten + ReLU of conv2 (elementwise, reshape only).
        ws.dconv2.resize_for_overwrite(nb * k3, c2);
        for (g, (&d, &o)) in ws
            .dconv2
            .data_mut()
            .iter_mut()
            .zip(ws.dflat.data().iter().zip(ws.conv2_out.data()))
        {
            *g = if o <= 0.0 { 0.0 } else { d };
        }

        // Conv2 parameter gradients: per-sample subtotals (the exact
        // per-sample loop over the sample's rows), folded in sample
        // order. The input gradient `dpool` scatters directly — its
        // rows are per-sample-disjoint.
        ws.dpool.resize(nb * k2, c1);
        for s in 0..nb {
            ws.seg.resize(c2, kk * c1);
            ws.seg_b.resize(1, c2);
            for t in 0..k3 {
                for o in 0..c2 {
                    let g = ws.dconv2.get(s * k3 + t, o);
                    if g == 0.0 {
                        continue;
                    }
                    ws.seg_b.data_mut()[o] += g;
                    for dt in 0..kk {
                        let prow = ws.pool_out.row(s * k2 + t + dt);
                        let wrow = self.conv2_w.w.row(o);
                        let gw = &mut ws.seg.row_mut(o)[dt * c1..(dt + 1) * c1];
                        for i in 0..c1 {
                            gw[i] += g * prow[i];
                        }
                        let dprow = ws.dpool.row_mut(s * k2 + t + dt);
                        let wseg = &wrow[dt * c1..(dt + 1) * c1];
                        for i in 0..c1 {
                            dprow[i] += g * wseg[i];
                        }
                    }
                }
            }
            fold_subtotal(s, &ws.seg, &mut gt[conv2_w_g]);
            fold_subtotal(s, &ws.seg_b, &mut gt[conv2_b_g]);
        }

        // Max-pool routing + ReLU of conv1 (rows per-sample-disjoint).
        ws.dconv1.resize(nb * k, c1);
        for s in 0..nb {
            for t in 0..k2 {
                for o in 0..c1 {
                    let idx = ws.pool_idx[(s * k2 + t) * c1 + o];
                    let src = s * k + 2 * t + usize::from(idx);
                    let g = ws.dpool.get(s * k2 + t, o);
                    if g != 0.0 && ws.conv1_out.get(src, o) > 0.0 {
                        let v = ws.dconv1.get(src, o) + g;
                        ws.dconv1.set(src, o, v);
                    }
                }
            }
        }

        // Conv1 gradients: segmented subtotals in sample order.
        for s in 0..nb {
            ws.dconv1
                .t_matmul_rows_into(&ws.pooled, s * k..(s + 1) * k, &mut ws.seg);
            fold_subtotal(s, &ws.seg, &mut gt[conv1_w_g]);
            ws.seg_b.resize(1, c1);
            for t in s * k..(s + 1) * k {
                for o in 0..c1 {
                    ws.seg_b.data_mut()[o] += ws.dconv1.get(t, o);
                }
            }
            fold_subtotal(s, &ws.seg_b, &mut gt[conv1_b_g]);
        }
        ws.dconv1.matmul_into(&self.conv1_w.w, &mut ws.dpooled);

        // Un-SortPool (padded rows vanish; rows per-sample-disjoint).
        ws.dhcat.resize(n, ccat);
        for (t, &src) in ws.pool_src.iter().enumerate() {
            if src != u32::MAX {
                ws.dhcat
                    .row_mut(src as usize)
                    .copy_from_slice(ws.dpooled.row(t));
            }
        }

        // Split the concat gradient per GC layer.
        ws.dh_layers.resize_with(nlayers, Matrix::default);
        let mut off = 0;
        for (hl, d) in ws.gc_outputs.iter().zip(&mut ws.dh_layers) {
            let c = hl.cols();
            d.resize_for_overwrite(n, c);
            for i in 0..n {
                d.row_mut(i).copy_from_slice(&ws.dhcat.row(i)[off..off + c]);
            }
            off += c;
        }

        // Graph-convolution chain, last to first: tanh′ elementwise,
        // dW as segmented subtotals, dH backprop as whole-batch kernels
        // (block-diagonal → row-wise per-sample bits).
        for l in (0..nlayers).rev() {
            {
                let dz = &mut ws.dh_layers[l];
                for (g, &o) in dz.data_mut().iter_mut().zip(ws.gc_outputs[l].data()) {
                    *g *= 1.0 - o * o;
                }
                if dh_keep < 1.0 && l >= 1 {
                    sparsify_top_k(dz, dh_keep, &mut ws.abs);
                }
            }
            let plan0 = if l == 0 { mb.plan() } else { None };
            for s in 0..nb {
                let range = mb.block.node_range(s);
                if let Some(plan) = plan0 {
                    plan_t_matmul_rows_into(plan, &ws.dh_layers[0], range, in_cols, &mut ws.seg);
                } else if l == 0 && mb.one_hot {
                    onehot_propagate_t_matmul_rows_into(
                        adj,
                        mb.block.features(),
                        &ws.dh_layers[0],
                        range,
                        &mut ws.seg,
                        &mut ws.spmm,
                    );
                } else {
                    ws.gc_inputs[l].t_matmul_rows_into(&ws.dh_layers[l], range, &mut ws.seg);
                }
                fold_subtotal(s, &ws.seg, &mut gt[l]);
            }
            if l > 0 {
                ws.dh_layers[l].matmul_t_into(&self.gc[l].w, &mut ws.dzw);
                propagate_back_into(adj, &ws.dzw, &mut ws.dh_prev);
                ws.dh_layers[l - 1].add_assign(&ws.dh_prev);
            }
        }
        ws.backward_time = t_mid.elapsed();
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
    use crate::sample::{build_plan_slabs, GraphSample, NodeFeatures, SampleView};
    use crate::workspace::Workspace;
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

    fn dense_sample(seed: u64) -> GraphSample {
        let adj = adj_for(seed);
        let n = adj.node_count();
        let mut rng = seeded_rng(seed);
        GraphSample {
            features: Matrix::glorot(n, 5, &mut rng).into(),
            adj,
            label: Some(seed.is_multiple_of(2)),
        }
    }

    fn onehot_sample(seed: u64) -> GraphSample {
        let adj = adj_for(seed);
        let n = adj.node_count();
        let gate = (0..n).map(|i| (i as u32 + seed as u32) % 8).collect();
        let label = (0..n).map(|i| (i as u32 ^ seed as u32) % 3).collect();
        GraphSample {
            adj,
            features: OneHotFeatures::new(11, gate, label).into(),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// The reference reduction: per-sample forward/backward through a
    /// reused workspace, slots merged in sample order (the exact
    /// per-sample trainer body).
    fn reference_step(
        model: &Dgcnn,
        samples: &[GraphSample],
        jobs: &[(usize, u64)],
    ) -> (Gradients, Vec<f64>) {
        let mut ws = Workspace::new();
        let mut acc = model.new_gradients();
        let mut slot = model.new_gradients();
        let mut losses = Vec::new();
        for (s, &(i, seed)) in jobs.iter().enumerate() {
            let v = samples[i].view();
            let label = v.label.unwrap();
            let mut rng = seeded_rng(seed);
            model.forward_into(v, Some(&mut rng), &mut ws);
            model.backward_into(v, label, &mut ws, &mut slot);
            losses.push(f64::from(ws.cache.loss(label)));
            if s == 0 {
                acc.copy_from(&slot);
            } else {
                acc.merge(&slot);
            }
        }
        (acc, losses)
    }

    fn assert_step_matches(model: &Dgcnn, samples: &[GraphSample], jobs: &[(usize, u64)]) {
        let (want_grads, want_losses) = reference_step(model, samples, jobs);
        let mut mb = Minibatch::new();
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        // Two passes through the same dirty buffers: reuse must not
        // change a bit.
        for _ in 0..2 {
            mb.assemble(samples, jobs);
            model.batch_train_step(&mb, 1.0, &mut ws, &mut grads);
            assert_eq!(grads, want_grads, "gradients diverged from reference");
            assert_eq!(ws.losses, want_losses, "losses diverged from reference");
        }
    }

    #[test]
    fn batched_step_matches_reference_dense() {
        let model = Dgcnn::new(tiny_cfg(5));
        let samples: Vec<GraphSample> = (0..5).map(dense_sample).collect();
        let jobs: Vec<(usize, u64)> = (0..5).map(|i| (i, 1000 + i as u64)).collect();
        assert_step_matches(&model, &samples, &jobs);
    }

    #[test]
    fn batched_step_matches_reference_onehot() {
        let model = Dgcnn::new(tiny_cfg(11));
        let samples: Vec<GraphSample> = (0..6).map(onehot_sample).collect();
        let jobs: Vec<(usize, u64)> = (0..6).map(|i| (i, 77 + 3 * i as u64)).collect();
        assert_step_matches(&model, &samples, &jobs);
    }

    #[test]
    fn batch_of_one_matches_reference() {
        let model = Dgcnn::new(tiny_cfg(11));
        let samples: Vec<GraphSample> = (0..2).map(onehot_sample).collect();
        assert_step_matches(&model, &samples, &[(1, 42)]);
    }

    #[test]
    fn repeated_and_reordered_samples_match_reference() {
        let model = Dgcnn::new(tiny_cfg(5));
        let samples: Vec<GraphSample> = (0..4).map(dense_sample).collect();
        let jobs = [(3, 9u64), (0, 4), (3, 12), (2, 1)];
        assert_step_matches(&model, &samples, &jobs);
    }

    #[test]
    fn dh_sparsification_stays_close_and_full_keep_is_exact() {
        let model = Dgcnn::new(tiny_cfg(11));
        let samples: Vec<GraphSample> = (0..4).map(onehot_sample).collect();
        let jobs: Vec<(usize, u64)> = (0..4).map(|i| (i, 5 + i as u64)).collect();
        let mut mb = Minibatch::new();
        mb.assemble(&samples[..], &jobs);
        let mut ws = BatchWorkspace::new();
        let mut exact = model.new_gradients();
        model.batch_train_step(&mb, 1.0, &mut ws, &mut exact);
        let mut sparse = model.new_gradients();
        model.batch_train_step(&mb, 0.5, &mut ws, &mut sparse);
        // Head gradients are upstream of the sparsified layers — they
        // must be untouched.
        let nl = model.cfg.gc_channels.len();
        for (i, (a, b)) in exact.tensors().iter().zip(sparse.tensors()).enumerate() {
            if i >= nl {
                assert_eq!(a, b, "head tensor {i} changed under dh sparsification");
            }
        }
        // The GC gradients are approximations of the exact ones.
        let mut diff = 0.0f32;
        let mut norm = 0.0f32;
        for (a, b) in exact.tensors()[..nl].iter().zip(&sparse.tensors()[..nl]) {
            for (x, y) in a.data().iter().zip(b.data()) {
                diff += (x - y) * (x - y);
                norm += x * x;
            }
        }
        assert!(
            diff.sqrt() <= 0.75 * norm.sqrt().max(1e-6),
            "{diff} vs {norm}"
        );
    }

    #[test]
    fn sparsify_keeps_largest_magnitudes() {
        let mut m = Matrix::from_vec(1, 6, vec![0.1, -3.0, 0.2, 2.0, -0.05, 1.0]);
        let mut abs = Vec::new();
        sparsify_top_k(&mut m, 0.5, &mut abs);
        assert_eq!(m.data(), &[0.0, -3.0, 0.0, 2.0, 0.0, 1.0]);
        // keep = 1.0 is the identity.
        let mut id = Matrix::from_vec(1, 3, vec![0.0, -0.5, 0.25]);
        sparsify_top_k(&mut id, 1.0, &mut abs);
        assert_eq!(id.data(), &[0.0, -0.5, 0.25]);
    }

    /// A store serving owned two-hot samples plus per-sample cached
    /// layer-0 plans — the test double of the arena's plan path.
    struct PlannedSamples {
        samples: Vec<GraphSample>,
        offsets: Vec<Vec<u32>>,
        cols: Vec<Vec<u32>>,
        vals: Vec<Vec<f32>>,
    }

    impl PlannedSamples {
        fn new(samples: Vec<GraphSample>) -> Self {
            let (mut offsets, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
            for s in &samples {
                let NodeFeatures::OneHot(x) = &s.features else {
                    panic!("plan test samples must be two-hot");
                };
                let (o, c, v) = build_plan_slabs(&s.adj, x);
                offsets.push(o);
                cols.push(c);
                vals.push(v);
            }
            Self {
                samples,
                offsets,
                cols,
                vals,
            }
        }
    }

    impl SampleStore for PlannedSamples {
        fn len(&self) -> usize {
            self.samples.len()
        }

        fn view(&self, i: usize) -> SampleView<'_> {
            self.samples[i].view()
        }

        fn plan(&self, i: usize) -> Option<Layer0PlanView<'_>> {
            Some(Layer0PlanView::from_raw_parts(
                &self.offsets[i],
                &self.cols[i],
                &self.vals[i],
            ))
        }
    }

    /// A batch assembled from cached plans must train bit-identically
    /// to the same batch assembled down the histogram-rebuild path,
    /// through the same dirty workspace.
    #[test]
    fn batched_step_with_cached_plans_matches_rebuild_bitwise() {
        let model = Dgcnn::new(tiny_cfg(11));
        let store = PlannedSamples::new((0..6).map(onehot_sample).collect());
        let jobs: Vec<(usize, u64)> = (0..6).map(|i| (i, 77 + 3 * i as u64)).collect();
        let mut mb = Minibatch::new();
        let mut ws = BatchWorkspace::new();

        mb.assemble_with(&store, &jobs, false);
        assert!(mb.plan().is_none(), "plans must be absent when disabled");
        let mut want = model.new_gradients();
        model.batch_train_step(&mb, 1.0, &mut ws, &mut want);
        let want_losses = ws.losses.clone();

        // Two cached passes through the now-dirty buffers.
        for _ in 0..2 {
            mb.assemble(&store, &jobs);
            let plan = mb.plan().expect("every sample carries a plan");
            assert_eq!(plan.node_count(), mb.block.node_count());
            let mut got = model.new_gradients();
            model.batch_train_step(&mb, 1.0, &mut ws, &mut got);
            assert_eq!(got, want, "cached-plan gradients diverged");
            assert_eq!(ws.losses, want_losses, "cached-plan losses diverged");
        }
    }

    /// A batch with any plan-less sample falls back to rebuild whole.
    #[test]
    fn plan_stacking_is_all_or_none() {
        let samples: Vec<GraphSample> = (0..3).map(onehot_sample).collect();
        let mut mb = Minibatch::new();
        mb.assemble(&samples[..], &[(0, 1), (2, 5)]);
        assert!(mb.plan().is_none(), "plain stores expose no plans");
    }

    #[test]
    #[should_panic(expected = "empty minibatch")]
    fn empty_jobs_rejected() {
        let samples: Vec<GraphSample> = vec![dense_sample(0)];
        let model = Dgcnn::new(tiny_cfg(5));
        let mut mb = Minibatch::new();
        mb.assemble(&samples[..], &[(0, 1)]);
        let mb_empty = Minibatch::new();
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        model.batch_train_step(&mb_empty, 1.0, &mut ws, &mut grads);
    }
}
