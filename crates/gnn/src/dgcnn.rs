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
//! This module holds the parameters and is the one owner of their
//! order: `DgcnnConfig::weight_shapes` names and shapes every tensor,
//! [`Dgcnn::new`] builds them from that table, and `params`,
//! `params_mut` and `grad_slots` (the backward's named gradient slots)
//! list them in the same canonical order. The layers themselves, one
//! forward and one backward function each, are hand-written in
//! [`crate::batch`], and their gradients are verified against finite
//! differences in the test suite.

use serde::{map_get, DeError, Deserialize, Serialize, Value};

use crate::matrix::{seeded_rng, Matrix};
use crate::param::{Gradients, Param};
use crate::sample::SampleStore;

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

    /// Every weight tensor [`Dgcnn::new`] builds for this config, in the
    /// canonical order of [`Dgcnn::snapshot`] — or, for a config
    /// `Dgcnn::new` refuses or whose shapes overflow, why none exists.
    fn weight_shapes(&self) -> Result<Vec<TensorShape>, String> {
        let min_k = self.conv2_kernel.checked_mul(2);
        if min_k.is_none_or(|m| self.k < m) {
            return Err(format!(
                "model `cfg.k` is {}, below the minimum 2·conv2_kernel for conv2_kernel {}",
                self.k, self.conv2_kernel
            ));
        }
        if self.input_dim == 0 || self.gc_channels.is_empty() {
            return Err("model `cfg` has no input width or no graph-convolution layer".into());
        }
        let overflow = || format!("model `cfg` tensor sizes overflow: {self:?}");
        let weight = |name: &str, rows, cols| TensorShape {
            name: name.to_owned(),
            rows,
            cols,
            bias: false,
        };
        let bias = |name: &str, cols| TensorShape {
            name: name.to_owned(),
            rows: 1,
            cols,
            bias: true,
        };
        let mut shapes = Vec::new();
        let mut prev = self.input_dim;
        for (i, &c) in self.gc_channels.iter().enumerate() {
            shapes.push(weight(&format!("gc[{i}]"), prev, c));
            prev = c;
        }
        let ccat = self
            .gc_channels
            .iter()
            .try_fold(0usize, |a, &c| a.checked_add(c))
            .ok_or_else(overflow)?;
        let conv2_in = self
            .conv2_kernel
            .checked_mul(self.conv1_channels)
            .ok_or_else(overflow)?;
        let dense_in = self
            .k3()
            .checked_mul(self.conv2_channels)
            .ok_or_else(overflow)?;
        shapes.extend([
            weight("conv1_w", self.conv1_channels, ccat),
            bias("conv1_b", self.conv1_channels),
            weight("conv2_w", self.conv2_channels, conv2_in),
            bias("conv2_b", self.conv2_channels),
            weight("dense1_w", dense_in, self.dense_dim),
            bias("dense1_b", self.dense_dim),
            weight("dense2_w", self.dense_dim, 2),
            bias("dense2_b", 2),
        ]);
        Ok(shapes)
    }

    pub(crate) fn k3(&self) -> usize {
        self.k2() + 1 - self.conv2_kernel
    }
}

/// One row of [`DgcnnConfig::weight_shapes`]: a tensor's name and shape,
/// and whether it is a bias. [`Dgcnn::new`] fills a bias with zeros,
/// which draws nothing, and every other tensor Glorot-uniform, drawn in
/// table order. The flag is explicit because neither name nor shape
/// tells: a drawn GC weight is one row high when its input is.
struct TensorShape {
    name: String,
    rows: usize,
    cols: usize,
    bias: bool,
}

/// The model: all trainable parameters plus the architecture description.
///
/// Serialisable (weights and architecture) so trained attack models
/// can be checkpointed and reloaded. The optimiser state is not part of
/// the model: training keeps it in a [`crate::AdamState`].
#[derive(Debug, Clone, Serialize)]
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

/// Reads the serialised fields, then checks every weight tensor against
/// the shape [`Dgcnn::new`] builds for the stored `cfg` (which must
/// itself be one `Dgcnn::new` accepts). A model whose config and
/// weights disagree is refused with a [`DeError`] naming the tensor,
/// never scored.
impl Deserialize for Dgcnn {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let param = |key: &str| Param::from_value(map_get(v, key)?);
        let model = Self {
            cfg: DgcnnConfig::from_value(map_get(v, "cfg")?)?,
            gc: Vec::from_value(map_get(v, "gc")?)?,
            conv1_w: param("conv1_w")?,
            conv1_b: param("conv1_b")?,
            conv2_w: param("conv2_w")?,
            conv2_b: param("conv2_b")?,
            dense1_w: param("dense1_w")?,
            dense1_b: param("dense1_b")?,
            dense2_w: param("dense2_w")?,
            dense2_b: param("dense2_b")?,
        };
        let shapes = model.cfg.weight_shapes().map_err(DeError)?;
        if model.gc.len() != model.cfg.gc_channels.len() {
            return Err(DeError(format!(
                "model has {} graph-convolution tensors, but `cfg.gc_channels` gives {}",
                model.gc.len(),
                model.cfg.gc_channels.len()
            )));
        }
        for (p, t) in model.params().into_iter().zip(shapes) {
            let got = (p.w.rows(), p.w.cols());
            if got != (t.rows, t.cols) {
                return Err(DeError(format!(
                    "model tensor `{}` has shape {}×{}, but `cfg` gives {}×{}",
                    t.name, got.0, got.1, t.rows, t.cols
                )));
            }
        }
        Ok(model)
    }
}

impl Dgcnn {
    /// Initialises the model with Glorot-uniform weights and zero biases
    /// (deterministic in `cfg.seed`), the tensors of
    /// `DgcnnConfig::weight_shapes` in table order.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.k < cfg.min_k()`, `cfg` has no input width or
    /// no GC layer, or a tensor size overflows.
    #[must_use]
    pub fn new(cfg: DgcnnConfig) -> Self {
        assert!(cfg.k >= cfg.min_k(), "k must be at least {}", cfg.min_k());
        let shapes = cfg.weight_shapes().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = seeded_rng(cfg.seed);
        let empty = || Param::new(Matrix::default());
        let mut model = Self {
            gc: vec![empty(); cfg.gc_channels.len()],
            cfg,
            conv1_w: empty(),
            conv1_b: empty(),
            conv2_w: empty(),
            conv2_b: empty(),
            dense1_w: empty(),
            dense1_b: empty(),
            dense2_w: empty(),
            dense2_b: empty(),
        };
        for (p, t) in model.params_mut().into_iter().zip(shapes) {
            p.w = if t.bias {
                Matrix::zeros(t.rows, t.cols)
            } else {
                Matrix::glorot(t.rows, t.cols, &mut rng)
            };
        }
        model
    }

    /// The architecture description.
    #[must_use]
    pub fn config(&self) -> &DgcnnConfig {
        &self.cfg
    }

    /// A gradient object with this model's parameter layout, ready for
    /// [`Dgcnn::batch_train_step`]. Tensors start empty (`0 × 0`) — the
    /// backward pass shapes and fully overwrites every one, so nothing
    /// is zero-filled twice.
    #[must_use]
    pub fn new_gradients(&self) -> Gradients {
        Gradients::from_tensors(vec![Matrix::default(); self.params().len()])
    }

    /// Scores a batch of samples: the probability that each sample's
    /// target pair is a link, deterministic (no dropout). Output order
    /// matches input order. Runs the batched forward over consecutive
    /// fixed-size chunks of samples on the ambient rayon pool; a
    /// sample's score does not depend on the chunking or the thread
    /// count. Accepts any [`SampleStore`] — a slice/`Vec` of owned
    /// samples or an arena-backed
    /// [`ArenaSamples`](crate::sample::ArenaSamples).
    ///
    /// # Panics
    ///
    /// Panics when a sample's feature width differs from
    /// `cfg.input_dim`.
    #[must_use]
    pub fn predict_batch<S: SampleStore + ?Sized>(&self, samples: &S) -> Vec<f32> {
        let idx: Vec<usize> = (0..samples.len()).collect();
        self.infer(samples, &idx, |_, probs| probs[1])
    }

    /// Snapshot of all weights (for best-on-validation model selection),
    /// in the canonical parameter order that [`Gradients`] tensors and
    /// [`Dgcnn::restore`] share: the GC weights `W_0 … W_{L-1}`, then
    /// `conv1_w` (`conv1_channels × Σ gc_channels`), `conv1_b`,
    /// `conv2_w` (`conv2_channels × conv2_kernel·conv1_channels`),
    /// `conv2_b`, `dense1_w` (`k3·conv2_channels × dense_dim`),
    /// `dense1_b`, `dense2_w` (`dense_dim × 2`) and `dense2_b`, where
    /// `k3 = k/2 + 1 − conv2_kernel`.
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
    #[cfg(test)]
    #[must_use]
    pub(crate) fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.w.rows() * p.w.cols()).sum()
    }

    /// Every parameter, in the canonical order of [`Dgcnn::snapshot`].
    pub(crate) fn params(&self) -> Vec<&Param> {
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

    /// [`Dgcnn::params`], mutably.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
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

    /// The tensors of `grads` under the names of this model's
    /// parameters, in the canonical order of [`Dgcnn::params`]: the
    /// write targets of the batched backward.
    ///
    /// # Panics
    ///
    /// Panics with "gradient layout mismatch" when `grads` does not hold
    /// one tensor per parameter of this model.
    pub(crate) fn grad_slots<'g>(&self, grads: &'g mut Gradients) -> GradSlots<'g> {
        let (layers, tensors) = (self.gc.len(), grads.tensors().len());
        let Some((
            gc,
            [conv1_w, conv1_b, conv2_w, conv2_b, dense1_w, dense1_b, dense2_w, dense2_b],
        )) = grads.tensors_mut().split_at_mut_checked(layers)
        else {
            panic!("gradient layout mismatch: {tensors} tensors for {layers} GC layers + 8");
        };
        GradSlots {
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
}

/// One gradient tensor per parameter, named as the [`Dgcnn`] fields
/// (see [`Dgcnn::grad_slots`]).
pub(crate) struct GradSlots<'g> {
    pub(crate) gc: &'g mut [Matrix],
    pub(crate) conv1_w: &'g mut Matrix,
    pub(crate) conv1_b: &'g mut Matrix,
    pub(crate) conv2_w: &'g mut Matrix,
    pub(crate) conv2_b: &'g mut Matrix,
    pub(crate) dense1_w: &'g mut Matrix,
    pub(crate) dense1_b: &'g mut Matrix,
    pub(crate) dense2_w: &'g mut Matrix,
    pub(crate) dense2_b: &'g mut Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchWorkspace, ConvKernels, Minibatch};
    use crate::param::{AdamConfig, AdamState};
    use crate::sample::{propagate, GraphSample};
    use muxlink_graph::{Csr, OneHotFeatures};
    use rand::Rng;

    /// Config sized for two-hot features: 8 gate bits + labels 0..=2.
    fn tiny_cfg() -> DgcnnConfig {
        DgcnnConfig {
            input_dim: 11,
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

    fn tiny_adj() -> Csr {
        Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1, 4], vec![3]])
    }

    /// Random two-hot features on the five-node graph, drawn from `seed`.
    fn tiny_sample(seed: u64) -> GraphSample {
        let mut rng = seeded_rng(seed);
        let gate = (0..5).map(|_| rng.gen_range(0..8)).collect();
        let label = (0..5).map(|_| rng.gen_range(0..3)).collect();
        GraphSample {
            adj: tiny_adj(),
            features: OneHotFeatures::new(11, gate, label),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// Patterned two-hot features on the five-node graph, varied by
    /// `seed`.
    fn tiny_onehot_sample(seed: u64) -> GraphSample {
        let gate = (0..5)
            .map(|i| (i as u32).wrapping_add(seed as u32) % 8)
            .collect();
        let label = (0..5).map(|i| (i as u32 ^ seed as u32) % 3).collect();
        GraphSample {
            adj: tiny_adj(),
            features: OneHotFeatures::new(11, gate, label),
            label: Some(seed.is_multiple_of(2)),
        }
    }

    /// Both class probabilities of every sample, through the batched
    /// inference forward.
    fn infer_probs(model: &Dgcnn, samples: &[GraphSample]) -> Vec<[f32; 2]> {
        let idx: Vec<usize> = (0..samples.len()).collect();
        model.infer(samples, &idx, |_, probs| probs)
    }

    /// One `batch_train_step` on a one-sample minibatch with dropout
    /// seed `seed`: the sample's loss and the gradients.
    fn step(model: &Dgcnn, s: &GraphSample, seed: u64) -> (f32, Gradients) {
        let mut mb = Minibatch::new();
        mb.assemble(std::slice::from_ref(s), &[(0, seed)]);
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        model.batch_train_step(&mb, &mut ws, &mut grads);
        // The loss is an `f32` widened to `f64`, so this is exact.
        (ws.losses[0] as f32, grads)
    }

    fn prob_bits(p: &[[f32; 2]]) -> Vec<[u32; 2]> {
        p.iter().map(|q| q.map(f32::to_bits)).collect()
    }

    #[test]
    fn forward_produces_probability_distribution() {
        let model = Dgcnn::new(tiny_cfg());
        let [p0, p1] = infer_probs(&model, &[tiny_sample(1)])[0];
        assert!((p0 + p1 - 1.0).abs() < 1e-5);
        assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn forward_deterministic_without_dropout() {
        let model = Dgcnn::new(tiny_cfg());
        let s = [tiny_sample(2)];
        assert_eq!(model.predict_batch(&s[..]), model.predict_batch(&s[..]));
    }

    #[test]
    fn padding_handles_small_graphs() {
        // k = 4 but graph has 2 nodes: rows must pad with zeros, not panic
        // — alone and batched next to a graph that fills all k rows.
        let model = Dgcnn::new(tiny_cfg());
        let small = GraphSample {
            adj: Csr::from_lists(&[vec![1], vec![0]]),
            features: OneHotFeatures::new(11, vec![6, 2], vec![2, 0]),
            label: None,
        };
        let p = model.predict_batch(std::slice::from_ref(&small))[0];
        assert!(p.is_finite());
        let both = model.predict_batch(&[tiny_sample(1), small][..]);
        assert_eq!(both[1].to_bits(), p.to_bits());
    }

    /// Full-model gradient check of the production backward
    /// (`batch_train_step` on a one-sample minibatch) against central
    /// finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        check_gradients_against_finite_differences(Dgcnn::new(tiny_cfg()), tiny_sample(4));
    }

    /// The same finite-difference check on a second feature pattern.
    #[test]
    fn sparse_gradients_match_finite_differences() {
        check_gradients_against_finite_differences(Dgcnn::new(tiny_cfg()), tiny_onehot_sample(4));
    }

    fn check_gradients_against_finite_differences(mut model: Dgcnn, s: GraphSample) {
        assert_eq!(s.label, Some(true));
        // A fixed dropout seed makes the loss a deterministic function
        // of the weights (the test configs keep every unit anyway).
        const SEED: u64 = 17;
        let (_, grads) = step(&model, &s, SEED);

        // Collect analytic grads.
        let analytic: Vec<Matrix> = grads.tensors().to_vec();
        let eps = 3e-3f32;
        for (pi, ag) in analytic.iter().enumerate() {
            // Check a handful of entries per parameter tensor.
            let len = ag.data().len();
            let step_len = (len / 5).max(1);
            for idx in (0..len).step_by(step_len) {
                let orig = {
                    let p = &model.params()[pi].w;
                    p.data()[idx]
                };
                set_param(&mut model, pi, idx, orig + eps);
                let (lp, _) = step(&model, &s, SEED);
                set_param(&mut model, pi, idx, orig - eps);
                let (lm, _) = step(&model, &s, SEED);
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

    /// The sparse first layer (plan rows of `S·X` times `W₀`) reproduces
    /// the dense `propagate` + `matmul` layer **bit-for-bit**
    /// (integer-valued `f32` counts are exact, and the accumulation
    /// orders mirror `matmul_into`/`t_matmul_into`): the layer-0
    /// activations and `dW₀` of a training step. Every later layer is
    /// shared code, so the scores, losses and other gradients follow.
    #[test]
    fn sparse_path_is_bit_identical_to_dense_reference() {
        let model = Dgcnn::new(tiny_cfg());
        for seed in 0..8u64 {
            let s = tiny_onehot_sample(seed);
            let fm = s.features.to_dense();
            let sx = propagate(&s.adj, &Matrix::from_vec(fm.rows, fm.cols, fm.data));
            let mut h0 = sx.matmul(&model.gc[0].w);
            crate::activation::tanh_slice(h0.data_mut());

            let mut mb = Minibatch::new();
            mb.assemble(std::slice::from_ref(&s), &[(0, seed)]);
            let mut ws = BatchWorkspace::new();
            let mut grads = model.new_gradients();
            model.batch_train_step(&mb, &mut ws, &mut grads);
            let (out0, dz0) = ws.layer0();
            assert_eq!(out0, &h0, "seed {seed}: layer-0 activations diverged");
            assert_eq!(
                grads.tensors()[0],
                sx.t_matmul(dz0),
                "seed {seed}: dW0 diverged"
            );
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
        let (before, _) = step(&model, &s, 0);
        let mut adam = AdamState::new(&model);
        for t in 1..=60 {
            let (_, g) = step(&model, &s, t as u64);
            adam.step(&mut model, &g, &opt, t, 1.0);
        }
        let (after, _) = step(&model, &s, 0);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn backward_is_pure_and_repeatable() {
        let model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(5);
        let snap = model.snapshot();
        let (_, g1) = step(&model, &s, 9);
        let (_, g2) = step(&model, &s, 9);
        assert_eq!(g1, g2, "backward must be deterministic");
        assert_eq!(model.snapshot(), snap, "backward must not touch weights");
        assert!(g1.norm() > 0.0, "non-degenerate sample must have gradient");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut model = Dgcnn::new(tiny_cfg());
        let s = [tiny_sample(7)];
        let snap = model.snapshot();
        let p0 = model.predict_batch(&s[..]);
        // Perturb.
        let opt = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        let (_, g) = step(&model, &s[0], 1);
        AdamState::new(&model).step(&mut model, &g, &opt, 1, 1.0);
        assert_ne!(model.predict_batch(&s[..]), p0);
        model.restore(&snap);
        assert_eq!(model.predict_batch(&s[..]), p0);
    }

    #[test]
    fn serialisation_round_trips_predictions() {
        let model = Dgcnn::new(tiny_cfg());
        let s = [tiny_sample(11)];
        let json = serde_json::to_string(&model).unwrap();
        let restored: Dgcnn = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict_batch(&s[..]), restored.predict_batch(&s[..]));
        assert_eq!(model.parameter_count(), restored.parameter_count());
    }

    #[test]
    fn weight_shapes_are_the_shapes_new_builds() {
        for cfg in [
            tiny_cfg(),
            DgcnnConfig::paper(40, 30),
            DgcnnConfig::paper(103, 47),
        ] {
            let model = Dgcnn::new(cfg.clone());
            let built: Vec<(usize, usize)> = model
                .params()
                .iter()
                .map(|p| (p.w.rows(), p.w.cols()))
                .collect();
            let shapes: Vec<(usize, usize)> = cfg
                .weight_shapes()
                .unwrap()
                .into_iter()
                .map(|t| (t.rows, t.cols))
                .collect();
            assert_eq!(built, shapes);
        }
    }

    /// A serialised model whose `cfg` was edited away from its weights
    /// is refused on decode, naming the tensor or the field, and never
    /// panics — even for values `Dgcnn::new` would refuse.
    #[test]
    fn decode_refuses_weights_that_do_not_fit_the_config() {
        use serde::Value;
        let model = Dgcnn::new(DgcnnConfig::paper(11, 12));
        let json = serde_json::to_string(&model).unwrap();
        let edited = |key: &str, value: u64| -> String {
            let mut v = serde_json::from_str::<Value>(&json).unwrap();
            let Value::Map(top) = &mut v else {
                panic!("a model is a map")
            };
            let Value::Map(cfg) = &mut top.iter_mut().find(|(k, _)| k == "cfg").unwrap().1 else {
                panic!("`cfg` is a map")
            };
            cfg.iter_mut().find(|(k, _)| k == key).unwrap().1 = value.to_value();
            let text = serde_json::to_string(&v).unwrap();
            serde_json::from_str::<Dgcnn>(&text)
                .unwrap_err()
                .to_string()
        };
        let err = edited("input_dim", 9);
        assert!(
            err.contains("`gc[0]` has shape 11×32, but `cfg` gives 9×32"),
            "{err}"
        );
        let err = edited("k", 14);
        assert!(err.contains("`dense1_w`"), "{err}");
        let err = edited("dense_dim", 64);
        assert!(err.contains("`dense1_w`"), "{err}");
        for k in [0, 9] {
            let err = edited("k", k);
            assert!(err.contains(&format!("`cfg.k` is {k}")), "{err}");
        }
        let err = edited("conv2_kernel", i64::MAX as u64);
        assert!(err.contains("`cfg.k`"), "{err}");
        let err = edited("conv1_channels", i64::MAX as u64);
        assert!(err.contains("overflow"), "{err}");
        let err = edited("input_dim", 0);
        assert!(err.contains("no input width"), "{err}");
        // The untouched text still decodes.
        assert!(serde_json::from_str::<Dgcnn>(&json).is_ok());
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

    /// Buffer reuse: one minibatch and workspace, dirtied by batches of
    /// other sizes, give the bits of fresh ones — scores, and losses and
    /// gradients under dropout.
    #[test]
    fn workspace_variants_are_bit_identical() {
        assert_reuse_is_bit_identical(&Dgcnn::new(tiny_cfg()), tiny_sample);
    }

    /// The same buffer-reuse contract on a second feature pattern.
    #[test]
    fn sparse_workspace_variants_are_bit_identical() {
        assert_reuse_is_bit_identical(&Dgcnn::new(tiny_cfg()), tiny_onehot_sample);
    }

    fn assert_reuse_is_bit_identical(model: &Dgcnn, sample: fn(u64) -> GraphSample) {
        let (mut mb, mut ws) = (Minibatch::new(), BatchWorkspace::new());
        let mut ck = ConvKernels::default();
        model.conv_kernels_into(&mut ck);
        // Inference: stream batches of different sizes through the
        // reused buffers; each must match a fresh-buffer pass.
        for seeds in [&[1u64, 2, 9][..], &[5], &[1, 7, 3, 2, 4]] {
            let samples: Vec<GraphSample> = seeds.iter().map(|&s| sample(s)).collect();
            let idx: Vec<usize> = (0..samples.len()).collect();
            mb.assemble_inference(&samples[..], &idx);
            model.batch_forward(&mb, &ck, &mut ws);
            let reused: Vec<u32> = ws.probs.data().iter().map(|p| p.to_bits()).collect();
            let fresh: Vec<u32> = infer_probs(model, &samples)
                .iter()
                .flat_map(|p| p.map(f32::to_bits))
                .collect();
            assert_eq!(reused, fresh, "reused inference buffers changed bits");
        }
        // Training: the dirty buffers, twice, against fresh ones.
        let samples: Vec<GraphSample> = (0..3).map(|s| sample(s * 2)).collect();
        let jobs = [(0, 42), (2, 7), (1, 42)];
        let (mut fresh_mb, mut fresh_ws) = (Minibatch::new(), BatchWorkspace::new());
        fresh_mb.assemble(&samples[..], &jobs);
        let mut fresh = model.new_gradients();
        model.batch_train_step(&fresh_mb, &mut fresh_ws, &mut fresh);
        let mut reused = model.new_gradients();
        for _ in 0..2 {
            mb.assemble(&samples[..], &jobs);
            model.batch_train_step(&mb, &mut ws, &mut reused);
            assert_eq!(reused, fresh, "reused training buffers changed gradients");
            assert_eq!(
                ws.losses, fresh_ws.losses,
                "reused training buffers changed losses"
            );
        }
    }

    /// A score does not depend on which samples share its inference
    /// chunk: scoring 20 samples (two full chunks and a partial one)
    /// gives each sample the bits of scoring it alone.
    #[test]
    fn predict_batch_matches_sequential_predict() {
        let model = Dgcnn::new(tiny_cfg());
        let samples: Vec<GraphSample> = (0..20).map(tiny_sample).collect();
        let batch = model.predict_batch(&samples);
        let seq: Vec<f32> = samples
            .iter()
            .map(|s| model.predict_batch(std::slice::from_ref(s))[0])
            .collect();
        assert_eq!(
            batch.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            seq.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sort_pooling_survives_nan_activations() {
        // total_cmp keeps the comparator a total order even when the
        // sort channel contains NaN — the sort must not panic and the
        // permutation must stay deterministic. A NaN in the first-layer
        // weight row of node 0's gate column reaches the sort channel.
        let mut model = Dgcnn::new(tiny_cfg());
        let s = tiny_sample(3);
        let mut w = model.snapshot();
        let gate_row = s.features.columns(0).0;
        w[0].row_mut(gate_row)[0] = f32::NAN;
        model.restore(&w);
        let batch = [s, tiny_sample(1)];
        let a = infer_probs(&model, &batch);
        let b = infer_probs(&model, &batch);
        assert_eq!(prob_bits(&a), prob_bits(&b));
    }

    #[test]
    fn dropout_masks_at_training_time_only() {
        let mut cfg = tiny_cfg();
        cfg.dropout = 0.5;
        let mut model = Dgcnn::new(cfg);
        // A positive dense bias keeps the 4-unit dense layer live
        // whatever the model seed (with a zero bias, seeds 0–6, 8 and 9
        // leave it dead on this sample), and the assertion checks it: a
        // dead layer would make dropout a no-op and void the property
        // under test.
        model.dense1_b.w.data_mut().fill(1.0);
        let s = tiny_sample(8);
        let mut mb = Minibatch::new();
        mb.assemble_inference(std::slice::from_ref(&s), &[0]);
        let mut ws = BatchWorkspace::new();
        let mut ck = ConvKernels::default();
        model.conv_kernels_into(&mut ck);
        model.batch_forward(&mb, &ck, &mut ws);
        assert!(
            ws.dense1_out().data().iter().any(|&v| v > 0.0),
            "the dense layer is dead"
        );
        let draws: Vec<u32> = (0..16)
            .map(|seed| step(&model, &s, seed).0.to_bits())
            .collect();
        // Stochastic passes must not all coincide …
        assert!(
            draws.iter().any(|d| *d != draws[0]),
            "dropout produced 16 identical losses"
        );
        // … while inference is deterministic.
        let batch = [s];
        assert_eq!(
            prob_bits(&infer_probs(&model, &batch)),
            prob_bits(&infer_probs(&model, &batch))
        );
    }
}
