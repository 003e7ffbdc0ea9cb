//! Reusable per-thread scratch memory for the DGCNN hot loops.
//!
//! A [`Workspace`] bundles everything one worker thread needs to run
//! forward and backward passes without per-sample heap allocation: the
//! [`crate::dgcnn::Cache`] of forward activations and the backward
//! temporaries. All buffers are resized in place (allocations only grow
//! to the largest sample seen) and fully overwritten by each pass.
//!
//! Typical lifecycle: create one workspace per rayon worker
//! (`par_iter().map_init(Workspace::new, …)`), then stream samples
//! through [`Dgcnn::forward_into`](crate::dgcnn::Dgcnn::forward_into) /
//! [`Dgcnn::backward_into`](crate::dgcnn::Dgcnn::backward_into) /
//! [`Dgcnn::predict_into`](crate::dgcnn::Dgcnn::predict_into). The
//! workspace never outlives its usefulness: dropping it frees all
//! scratch at once.
//!
//! # Determinism contract
//!
//! A workspace is pure scratch: results never depend on what was in the
//! buffers before, only on the model, the sample and the RNG stream.
//! `forward`/`forward_into` (and the other pairs) are bit-for-bit
//! interchangeable — reusing a workspace across any number of samples,
//! in any order, on any number of threads, produces exactly the bits the
//! allocating variants produce. The test suites at three layers (unit,
//! kernel property tests, end-to-end parallel determinism) hold this
//! contract in place.

use crate::dgcnn::{Cache, ConvKernels};
use crate::matrix::Matrix;
use crate::sample::OneHotSpmmScratch;

/// Reusable forward/backward buffers for one worker thread.
///
/// See the [module docs](self) for the lifecycle and determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Forward activations (also backward's input).
    pub cache: Cache,
    /// Backward-pass temporaries (crate-internal).
    pub(crate) scratch: BackwardScratch,
    /// Transposed conv weights of the last `forward_into`. The batch
    /// entry points share one copy per batch and never read this; it
    /// keeps `forward_into` allocation-free for the per-sample reference
    /// loops of the tests and benches.
    pub(crate) conv_kernels: ConvKernels,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Backward-pass temporaries, mirroring the intermediate matrices the
/// allocating `backward` used to create per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct BackwardScratch {
    pub(crate) dlogits: Matrix,
    pub(crate) dd1: Matrix,
    pub(crate) dflat: Matrix,
    pub(crate) dconv2: Matrix,
    pub(crate) dpool: Matrix,
    pub(crate) dconv1: Matrix,
    pub(crate) dpooled: Matrix,
    pub(crate) dhcat: Matrix,
    pub(crate) dzw: Matrix,
    pub(crate) dh_prev: Matrix,
    pub(crate) dh_layers: Vec<Matrix>,
    /// Column-histogram scratch of the bit-exact sparse first layer
    /// (rebuild path only — the batched trainer reads a store's cached
    /// `S·X` plans when it has them and never fills this).
    pub(crate) spmm: OneHotSpmmScratch,
}
