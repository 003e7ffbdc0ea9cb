//! Trainable parameters (with Adam state) and detached gradient objects.
//!
//! Gradients live *outside* the parameters: the backward pass is a pure
//! `&self` function writing a [`Gradients`] object (the minibatch sum,
//! reduced in a fixed sample order), which the optimiser step then
//! applies — results are bit-identical for any thread count.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// One weight tensor with its Adam moments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current weights.
    pub w: Matrix,
    m: Matrix,
    v: Matrix,
}

impl Param {
    /// Wraps an initialised weight matrix.
    #[must_use]
    pub fn new(w: Matrix) -> Self {
        let (r, c) = (w.rows(), w.cols());
        Self {
            w,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// One Adam update with bias correction from an externally-computed
    /// gradient; `t` is the 1-based step count and `scale` divides the
    /// gradient (typically `1/batch_size` for a summed minibatch
    /// gradient).
    ///
    /// # Panics
    ///
    /// Panics when `grad` has a different shape than the weights.
    pub fn adam_step(&mut self, grad: &Matrix, opt: &AdamConfig, t: usize, scale: f32) {
        assert_eq!(
            (self.w.rows(), self.w.cols()),
            (grad.rows(), grad.cols()),
            "gradient shape mismatch"
        );
        let b1t = 1.0 - opt.beta1.powi(t as i32);
        let b2t = 1.0 - opt.beta2.powi(t as i32);
        let Self { w, m, v } = self;
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    #[test]
    fn adam_descends_simple_quadratic() {
        // Minimise f(w) = w² with gradient 2w.
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let opt = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        for t in 1..=500 {
            let w = p.w.get(0, 0);
            let grad = Matrix::from_vec(1, 1, vec![2.0 * w]);
            p.adam_step(&grad, &opt, t, 1.0);
        }
        assert!(p.w.get(0, 0).abs() < 1e-2);
    }

    #[test]
    fn scale_divides_batch_gradient() {
        let mut p1 = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut p2 = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let opt = AdamConfig::default();
        let g4 = Matrix::from_vec(1, 1, vec![4.0]);
        let g1 = Matrix::from_vec(1, 1, vec![1.0]);
        p1.adam_step(&g4, &opt, 1, 0.25);
        p2.adam_step(&g1, &opt, 1, 1.0);
        assert!((p1.w.get(0, 0) - p2.w.get(0, 0)).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn adam_rejects_wrong_shape() {
        let mut rng = seeded_rng(1);
        let mut p = Param::new(Matrix::glorot(3, 3, &mut rng));
        let bad = Matrix::zeros(2, 3);
        p.adam_step(&bad, &AdamConfig::default(), 1, 1.0);
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
