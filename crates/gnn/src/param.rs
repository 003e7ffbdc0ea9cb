//! Trainable parameters, detached gradient objects and the optimiser
//! state.
//!
//! Gradients live *outside* the parameters: the backward pass is a pure
//! `&self` function writing a [`Gradients`] object (the minibatch sum,
//! reduced in a fixed sample order), which the optimiser step then
//! applies — results are bit-identical for any thread count.
//!
//! Adam's moments live outside them too: an [`AdamState`] is built when
//! training starts, updated once per minibatch and dropped when training
//! ends, so a model — and every checkpoint of it — holds weights only.

use serde::{Deserialize, Serialize};

use crate::dgcnn::Dgcnn;
use crate::isa::kernel;
use crate::matrix::Matrix;

/// One weight tensor of the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current weights.
    pub w: Matrix,
}

impl Param {
    /// Wraps an initialised weight matrix.
    #[must_use]
    pub fn new(w: Matrix) -> Self {
        Self { w }
    }
}

/// Adam's first and second moments for every parameter of a model, in
/// the canonical parameter order of [`Dgcnn::snapshot`] — optimiser
/// state the training loop owns. A trained model carries none of it.
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl AdamState {
    /// Zeroed moments shaped like `model`'s parameters (Adam's start).
    #[must_use]
    pub fn new(model: &Dgcnn) -> Self {
        let zeros = || {
            model
                .params()
                .iter()
                .map(|p| Matrix::zeros(p.w.rows(), p.w.cols()))
                .collect()
        };
        Self {
            m: zeros(),
            v: zeros(),
        }
    }

    /// One Adam update with bias correction of all of `model`'s weights
    /// from a (merged) gradient object; `t` is the 1-based step count
    /// and `scale` divides the gradients (typically `1/batch_size` for a
    /// summed minibatch gradient).
    ///
    /// # Panics
    ///
    /// Panics when `grads` or these moments do not match `model`'s
    /// parameter layout.
    pub fn step(
        &mut self,
        model: &mut Dgcnn,
        grads: &Gradients,
        opt: &AdamConfig,
        t: usize,
        scale: f32,
    ) {
        let params = model.params_mut();
        let tensors = grads.tensors();
        assert!(
            params.len() == tensors.len() && params.len() == self.m.len(),
            "gradient layout mismatch"
        );
        for (((p, m), v), g) in params
            .into_iter()
            .zip(&mut self.m)
            .zip(&mut self.v)
            .zip(tensors)
        {
            adam_update(&mut p.w, m, v, g, opt, t, scale);
        }
    }
}

kernel! {
    /// The element-wise Adam update of one tensor `w` with moments `m` and
    /// `v` at 1-based step `t`, in AVX2 where the CPU has it (see
    /// [`crate::isa`]). Square root and division are correctly rounded in
    /// either instance, so the bits are the same.
    fn adam_update(
        w: &mut Matrix,
        m: &mut Matrix,
        v: &mut Matrix,
        grad: &Matrix,
        opt: &AdamConfig,
        t: usize,
        scale: f32,
    ) {
        let shape = (w.rows(), w.cols());
        assert!(
            shape == (grad.rows(), grad.cols())
                && shape == (m.rows(), m.cols())
                && shape == (v.rows(), v.cols()),
            "gradient shape mismatch"
        );
        let b1t = 1.0 - opt.beta1.powi(t as i32);
        let b2t = 1.0 - opt.beta2.powi(t as i32);
        for (((w, m), v), &g0) in w
            .data_mut()
            .iter_mut()
            .zip(m.data_mut().iter_mut())
            .zip(v.data_mut().iter_mut())
            .zip(grad.data())
        {
            let g = g0 * scale;
            *m = opt.beta1 * *m + (1.0 - opt.beta1) * g;
            *v = opt.beta2 * *v + (1.0 - opt.beta2) * g * g;
            let mhat = *m / b1t;
            let vhat = *v / b2t;
            *w -= opt.lr * mhat / (vhat.sqrt() + opt.eps);
        }
    }
}

/// Gradients for every parameter of a model, in the model's canonical
/// parameter order. Produced by the backward pass; per-sample gradient
/// objects reduce over a minibatch with [`Gradients::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    tensors: Vec<Matrix>,
}

impl Gradients {
    /// Wraps per-parameter gradient tensors (canonical order).
    #[must_use]
    pub fn from_tensors(tensors: Vec<Matrix>) -> Self {
        Self { tensors }
    }

    /// The gradient tensors, in canonical parameter order.
    #[must_use]
    pub fn tensors(&self) -> &[Matrix] {
        &self.tensors
    }

    /// Mutable view of the gradient tensors (canonical order, see
    /// [`crate::Dgcnn::snapshot`]) — the write target of
    /// [`crate::Dgcnn::batch_train_step`].
    pub fn tensors_mut(&mut self) -> &mut [Matrix] {
        &mut self.tensors
    }

    /// Makes `self` an exact copy of `other`, reusing existing tensor
    /// allocations (the start of a deterministic minibatch reduction:
    /// copy sample 0, then [`Gradients::merge`] the rest in order).
    pub fn copy_from(&mut self, other: &Gradients) {
        self.tensors
            .resize_with(other.tensors.len(), Matrix::default);
        for (a, b) in self.tensors.iter_mut().zip(&other.tensors) {
            a.copy_from(b);
        }
    }

    /// Accumulates `other` into `self` element-wise.
    ///
    /// The fold order over a minibatch is what makes parallel training
    /// deterministic: callers must merge in a fixed (sample-index) order,
    /// never in thread-completion order.
    ///
    /// # Panics
    ///
    /// Panics when the two gradient layouts differ.
    pub fn merge(&mut self, other: &Gradients) {
        assert_eq!(
            self.tensors.len(),
            other.tensors.len(),
            "gradient layout mismatch"
        );
        for (a, b) in self.tensors.iter_mut().zip(&other.tensors) {
            a.add_assign(b);
        }
    }

    /// Scales every gradient entry by `s` (e.g. `1/batch_size`).
    pub fn scale(&mut self, s: f32) {
        for t in &mut self.tensors {
            t.scale(s);
        }
    }

    /// Global L2 norm over all tensors (diagnostics / clipping).
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.tensors
            .iter()
            .map(|t| {
                let n = t.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

/// Adam hyper-parameters (paper: initial learning rate 1e-4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::seeded_rng;

    /// One tensor with its moments, stepped by the production update.
    struct Tensor {
        w: Matrix,
        m: Matrix,
        v: Matrix,
    }

    impl Tensor {
        fn new(w: Matrix) -> Self {
            let zeros = Matrix::zeros(w.rows(), w.cols());
            Self {
                m: zeros.clone(),
                v: zeros,
                w,
            }
        }

        fn step(&mut self, grad: &Matrix, opt: &AdamConfig, t: usize, scale: f32) {
            let Self { w, m, v } = self;
            adam_update(w, m, v, grad, opt, t, scale);
        }
    }

    #[test]
    fn adam_descends_simple_quadratic() {
        // Minimise f(w) = w² with gradient 2w.
        let mut p = Tensor::new(Matrix::from_vec(1, 1, vec![1.0]));
        let opt = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        for t in 1..=500 {
            let w = p.w.get(0, 0);
            let grad = Matrix::from_vec(1, 1, vec![2.0 * w]);
            p.step(&grad, &opt, t, 1.0);
        }
        assert!(p.w.get(0, 0).abs() < 1e-2);
    }

    #[test]
    fn scale_divides_batch_gradient() {
        let mut p1 = Tensor::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut p2 = Tensor::new(Matrix::from_vec(1, 1, vec![0.0]));
        let opt = AdamConfig::default();
        let g4 = Matrix::from_vec(1, 1, vec![4.0]);
        let g1 = Matrix::from_vec(1, 1, vec![1.0]);
        p1.step(&g4, &opt, 1, 0.25);
        p2.step(&g1, &opt, 1, 1.0);
        assert!((p1.w.get(0, 0) - p2.w.get(0, 0)).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn adam_rejects_wrong_shape() {
        let mut rng = seeded_rng(1);
        let mut p = Tensor::new(Matrix::glorot(3, 3, &mut rng));
        let bad = Matrix::zeros(2, 3);
        p.step(&bad, &AdamConfig::default(), 1, 1.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// ISA oracle: Adam's AVX2 instance against its baseline one over
        /// a few steps: weights and gradients on the oracle inputs (zeros
        /// of either sign, subnormals, NaN payloads, ±∞), moments starting
        /// subnormal or zero, whole zero gradients, widths across every
        /// vector tail, a `scale` that may round a gradient to a subnormal.
        #[test]
        fn adam_avx2_instance_matches_baseline_bitwise(
            ((len, steps), (t0, seed)) in ((0usize..70, 1usize..4), (1usize..2000, proptest::num::u64::ANY)),
        ) {
            use rand::Rng;

            use crate::isa::tests::{avx2_ran, oracle_matrix};
            use crate::matrix::tests::same_bits;
            let mut rng = seeded_rng(seed);
            let moment = |rng: &mut rand::rngs::StdRng| {
                let data = (0..len)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => 0.0,
                        1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
                        _ => rng.gen_range(0.0f32..1.0),
                    })
                    .collect();
                Matrix::from_vec(1, len, data)
            };
            let w0 = oracle_matrix(1, len, &mut rng);
            let (m0, v0) = (moment(&mut rng), moment(&mut rng));
            let grads: Vec<Matrix> = (0..steps)
                .map(|_| if rng.gen_range(0..3) == 0 { Matrix::zeros(1, len) } else { oracle_matrix(1, len, &mut rng) })
                .collect();
            let opt = AdamConfig::default();
            let scale = [1.0f32, 1.0 / 32.0, 1e-30][rng.gen_range(0..3usize)];
            let (mut w_want, mut m_want, mut v_want) = (w0.clone(), m0.clone(), v0.clone());
            let (mut w, mut m, mut v) = (w0, m0, v0);
            for (t, g) in (t0..).zip(&grads) {
                adam_update::baseline(&mut w_want, &mut m_want, &mut v_want, g, &opt, t, scale);
                if !avx2_ran(adam_update::avx2(&mut w, &mut m, &mut v, g, &opt, t, scale)) {
                    return;
                }
            }
            proptest::prop_assert!(same_bits(&w, &w_want), "w, {len} wide, {steps} steps from {t0}");
            proptest::prop_assert!(same_bits(&m, &m_want), "m, {len} wide, {steps} steps from {t0}");
            proptest::prop_assert!(same_bits(&v, &v_want), "v, {len} wide, {steps} steps from {t0}");
        }
    }

    #[test]
    fn gradients_merge_adds_elementwise() {
        let mut a = Gradients::from_tensors(vec![Matrix::from_vec(1, 2, vec![1.0, 2.0])]);
        let b = Gradients::from_tensors(vec![Matrix::from_vec(1, 2, vec![10.0, 20.0])]);
        a.merge(&b);
        assert_eq!(a.tensors()[0].data(), &[11.0, 22.0]);
    }

    #[test]
    fn gradients_scale_multiplies() {
        let mut g = Gradients::from_tensors(vec![Matrix::from_vec(1, 2, vec![2.0, 4.0])]);
        g.scale(0.5);
        assert_eq!(g.tensors()[0].data(), &[1.0, 2.0]);
    }

    #[test]
    fn gradients_norm_is_global_l2() {
        let g = Gradients::from_tensors(vec![
            Matrix::from_vec(1, 1, vec![3.0]),
            Matrix::from_vec(1, 1, vec![4.0]),
        ]);
        assert!((g.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "gradient layout mismatch")]
    fn merge_rejects_layout_mismatch() {
        let mut a = Gradients::from_tensors(vec![Matrix::zeros(1, 1)]);
        let b = Gradients::from_tensors(vec![Matrix::zeros(1, 1), Matrix::zeros(1, 1)]);
        a.merge(&b);
    }
}
