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
//! * [`SampleStore`] + [`SampleView`] — the storage abstraction: the
//!   trainer, evaluator and batch scorer read samples as borrowed views.
//!   Production stores are arena-pooled ([`ArenaSamples`] over a
//!   [`SampleArena`]); hand-made [`GraphSample`]s — unit tests, the
//!   crate example — run the same kernels on the same values, bit for
//!   bit.
//! * [`Minibatch`] + [`Dgcnn::batch_train_step`] — the block-diagonal
//!   batched forward and backward: one kernel per layer per minibatch,
//!   layer 0 over the sparse rows of `S·X`, built per sample from its
//!   two-hot features each time a minibatch is packed. Each layer is a
//!   forward and a backward function in [`batch`], and the step is the
//!   list of their calls in layer order: GC 0 plan GEMM, GC 1–3
//!   propagate + GEMM, SortPool, conv1, max-pool, conv2, dense1 +
//!   dropout, dense2 + softmax, then back from softmax/CE + dense2 to
//!   the GC chain. It is the model's only forward:
//!   [`Dgcnn::predict_batch`] and [`evaluate`] run it without dropout
//!   over fixed-size chunks.
//! * [`trainer::train`] — Adam minibatch loop with best-on-validation
//!   selection, one batched step per minibatch.
//!
//! The per-sample model the batched passes are pinned to bit for bit
//! (forward, backward, validation and the training loop) lives in the
//! integration-test support crate as an executable specification, not
//! in this crate.
//!
//! # Example
//!
//! ```
//! use muxlink_gnn::{Csr, Dgcnn, DgcnnConfig, GraphSample, OneHotFeatures};
//!
//! // Two nodes, 8 gate-type columns + DRNL labels 0..=2: width 11.
//! let model = Dgcnn::new(DgcnnConfig::paper(11, 10));
//! let sample = GraphSample {
//!     adj: Csr::from_lists(&[vec![1], vec![0]]),
//!     features: OneHotFeatures::new(11, vec![0, 3], vec![1, 1]),
//!     label: None,
//! };
//! let p = model.predict_batch(&[sample][..]);
//! assert!((0.0..=1.0).contains(&p[0]));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod batch;
pub mod dgcnn;
mod isa;
pub mod matrix;
pub mod param;
pub mod sample;
pub mod trainer;

pub use batch::{BatchWorkspace, Minibatch};
pub use dgcnn::{Dgcnn, DgcnnConfig};
pub use matrix::Matrix;
pub use muxlink_graph::{
    Csr, CsrView, Layer0PlanView, Layer0Plans, OneHotFeatures, OneHotView, SampleArena,
    SampleHandle,
};
pub use param::{AdamConfig, AdamState, Gradients, Param};
pub use sample::{ArenaSamples, GraphSample, SampleStore, SampleView};
pub use trainer::{
    evaluate, train, train_controlled, EpochStats, TrainCancelled, TrainConfig, TrainControl,
    TrainPhases, TrainReport,
};
