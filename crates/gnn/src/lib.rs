//! # muxlink-gnn
//!
//! A from-scratch, CPU-only, dependency-light implementation of the
//! **DGCNN** graph classifier the MuxLink paper uses for link prediction.
//!
//! Why from scratch? The reproduction targets pure Rust: no PyTorch
//! bindings, no GPU. Enclosing subgraphs are small (tens to a few hundred
//! nodes), so dense `f32` math is entirely sufficient, deterministic and
//! easy to gradient-check (see `dgcnn::tests::gradients_match_finite_differences`).
//!
//! Components:
//!
//! * [`Matrix`] — row-major dense matrix with the handful of products the
//!   model needs, each with an `_into` twin for buffer reuse.
//! * [`GraphSample`] + [`sample::propagate`] — the normalised propagation
//!   operator `S = D̃⁻¹(A+I)` of DGCNN's Eq. (4) and its adjoint, as
//!   cache-friendly kernels over flat [`Csr`] adjacency.
//! * [`activation`] — the in-repo `tanh` (a port of glibc's fdlibm
//!   `tanhf`/`expm1f`, so the activation's bits do not depend on the
//!   host C library) and its branch-free vectorised slice kernel.
//! * [`Dgcnn`] — the full model (graph convolutions, SortPooling, 1-D
//!   convolutions, dense head) with hand-written backprop.
//! * [`Workspace`] — reusable per-thread scratch for the zero-allocation
//!   `forward_into`/`backward_into`/`predict_into` variants.
//! * [`SampleStore`] + [`SampleView`] — the storage abstraction: the
//!   trainer, evaluator and batch scorer read samples as borrowed views,
//!   so owned [`GraphSample`]s and arena-pooled samples
//!   ([`ArenaSamples`] over a [`SampleArena`]) run the same kernels on
//!   the same values, bit for bit.
//! * [`trainer::train`] — Adam minibatch loop with best-on-validation
//!   selection, one workspace per rayon worker.
//!
//! # Example
//!
//! ```
//! use muxlink_gnn::{Csr, Dgcnn, DgcnnConfig, GraphSample, Matrix};
//!
//! let model = Dgcnn::new(DgcnnConfig::paper(9, 10));
//! let sample = GraphSample {
//!     adj: Csr::from_lists(&[vec![1], vec![0]]),
//!     features: Matrix::zeros(2, 9).into(),
//!     label: None,
//! };
//! let p = model.predict(&sample);
//! assert!((0.0..=1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod batch;
pub mod dgcnn;
pub mod matrix;
pub mod param;
pub mod sample;
pub mod trainer;
pub mod workspace;

pub use batch::{BatchWorkspace, Minibatch};
pub use dgcnn::{Cache, Dgcnn, DgcnnConfig};
pub use matrix::Matrix;
pub use muxlink_graph::{
    Csr, CsrView, Layer0PlanView, OneHotFeatures, OneHotView, SampleArena, SampleHandle,
};
pub use param::{AdamConfig, Gradients, Param};
pub use sample::{ArenaSamples, FeaturesView, GraphSample, NodeFeatures, SampleStore, SampleView};
pub use trainer::{
    evaluate, train, train_controlled, train_controlled_timed, EpochStats, TrainCancelled,
    TrainConfig, TrainControl, TrainPhases, TrainReport,
};
pub use workspace::Workspace;
