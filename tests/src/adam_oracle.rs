//! Adam with the moments stored next to each weight tensor — the
//! per-parameter update the model carried before the optimiser state
//! moved into the training loop, kept as the executable specification of
//! [`muxlink_gnn::AdamState`].
//!
//! [`OracleAdam::step`] must move a model's weights to exactly the bits
//! [`AdamState::step`](muxlink_gnn::AdamState::step) gives, step after
//! step; the property suite and [`crate::reference_train`] pin the two
//! bitwise.

use muxlink_gnn::{AdamConfig, Dgcnn, Gradients, Matrix};

/// One weight tensor with its Adam moments.
#[derive(Debug, Clone)]
pub struct OracleParam {
    /// Current weights.
    pub w: Matrix,
    m: Matrix,
    v: Matrix,
}

impl OracleParam {
    /// Wraps an initialised weight matrix with zeroed moments.
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

/// The moments of every parameter of a model, one [`OracleParam`] per
/// tensor in the canonical order of [`Dgcnn::snapshot`].
#[derive(Debug, Clone)]
pub struct OracleAdam {
    params: Vec<OracleParam>,
}

impl OracleAdam {
    /// Zeroed moments shaped like `model`'s parameters.
    #[must_use]
    pub fn new(model: &Dgcnn) -> Self {
        Self {
            params: model.snapshot().into_iter().map(OracleParam::new).collect(),
        }
    }

    /// One [`OracleParam::adam_step`] per tensor of `model`, reading
    /// and writing its weights through [`Dgcnn::snapshot`] and
    /// [`Dgcnn::restore`].
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not match `model`'s parameter layout.
    pub fn step(
        &mut self,
        model: &mut Dgcnn,
        grads: &Gradients,
        opt: &AdamConfig,
        t: usize,
        scale: f32,
    ) {
        let tensors = grads.tensors();
        assert_eq!(self.params.len(), tensors.len(), "gradient layout mismatch");
        for ((p, w), g) in self.params.iter_mut().zip(model.snapshot()).zip(tensors) {
            p.w = w;
            p.adam_step(g, opt, t, scale);
        }
        let weights: Vec<Matrix> = self.params.iter().map(|p| p.w.clone()).collect();
        model.restore(&weights);
    }
}
