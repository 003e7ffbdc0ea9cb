//! # muxlink-graph
//!
//! Graph substrate for the MuxLink attack: converts a locked netlist into
//! the undirected gate graph the paper's GNN operates on, extracts *h*-hop
//! enclosing subgraphs around links, labels nodes with DRNL + gate-type
//! one-hots, and samples balanced positive/negative link datasets.
//!
//! Pipeline (paper Fig. 5 steps ①–④):
//!
//! 1. [`extract::extract`] — trace key inputs, remove key MUXes, build the
//!    undirected gate graph, mark every possible MUX input wire as a
//!    *target link*.
//! 2. [`SampleArena::extract_sample`] — induce the h-hop neighbourhood of
//!    a node pair, written straight into pooled sample slabs.
//! 3. [`drnl`] — double-radius node labeling (Zhang & Chen, NeurIPS'18).
//! 4. [`features`] — 8-bit gate-type one-hot ⊕ DRNL one-hot, stored
//!    two-hot: the arena keeps both columns per node and
//!    [`OneHotView`] reads them under a dataset label budget.
//! 5. [`dataset::build_dataset_arena`] — balanced observed/unobserved
//!    link samples with a validation split (paper: ≤ 100 000 links,
//!    10 % val).
//!
//! Every sample store is the pooled [`arena::SampleArena`]: whole
//! datasets in a handful of flat slabs, samples addressed by handles and
//! read through borrowed views. The arena is the only code that turns a
//! graph neighbourhood into a sample; the simple `HashMap` extractors it
//! is pinned to are test oracles in the integration-test crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod csr;
pub mod dataset;
pub mod drnl;
pub mod extract;
pub mod features;
pub mod graph;
pub mod heuristics;
pub mod sampling;
pub(crate) mod scratch;
pub(crate) mod subgraph;

pub use arena::{Layer0PlanView, Layer0Plans, SampleArena, SampleHandle};
pub use batch::BlockDiagBatch;
pub use csr::{Csr, CsrBuilder, CsrView};
pub use dataset::{build_dataset_arena, ArenaDataset};
pub use extract::{extract, ExtractError, ExtractedDesign, MuxCandidate};
pub use features::{OneHotFeatures, OneHotView};
pub use graph::{CircuitGraph, Link};
