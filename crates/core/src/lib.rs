//! # muxlink-core
//!
//! The MuxLink attack (Alrahis et al., DATE 2022): an **oracle-less**
//! GNN-based link-prediction attack on the learning-resilient D-MUX and
//! symmetric MUX-based logic-locking schemes.
//!
//! The attack pipeline (paper Fig. 5):
//!
//! 1. trace the key inputs, remove the key MUXes and convert the netlist
//!    into an undirected gate graph (`muxlink-graph`),
//! 2. self-supervise a DGCNN on the design's own observed/unobserved wires
//!    (`muxlink-gnn`),
//! 3. score every MUX's two candidate wires with the trained model,
//! 4. post-process the likelihoods into key bits with threshold `th`
//!    (Algorithm 1) — [`postprocess`],
//! 5. report accuracy / precision / KPA / Hamming distance —
//!    [`metrics`].
//!
//! The expensive steps (1–3) are separated from the cheap ones (4–5) so
//! threshold sweeps (paper Fig. 9) re-use one trained model.
//!
//! One driver runs the pipeline: the **staged session API**
//! ([`AttackSession`]) — typed stage artifacts (`Extracted → Prepared →
//! Trained → ScoredDesign`), model checkpointing (`Trained` is
//! serializable), a [`Progress`] observer with
//! cooperative cancellation, and the [`run_suite`] multi-design driver.
//! [`AttackSession::run`] chains every stage in one call.
//!
//! # Example
//!
//! ```no_run
//! use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
//! use muxlink_locking::{dmux, LockOptions};
//!
//! let design = muxlink_benchgen::SyntheticSuite::iscas85()
//!     .scaled(0.1)
//!     .profiles[0]
//!     .generate(1);
//! let locked = dmux::lock(&design, &LockOptions::new(32, 7)).unwrap();
//! let cfg = MuxLinkConfig::quick();
//! let scored = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
//!     .run(&NoProgress)
//!     .unwrap();
//! let guess = scored.recover_key(cfg.th);
//! let m = muxlink_core::metrics::score_key(&guess, &locked.key);
//! println!("AC={:.1}% PC={:.1}% KPA={:.1}%", m.accuracy_pct(), m.precision_pct(), m.kpa_pct().unwrap_or(f64::NAN));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod fingerprint;
pub mod metrics;
pub mod pipeline;
pub mod postprocess;
pub mod progress;
pub mod recover;
pub mod report;
pub mod scoring;
pub mod session;
pub mod suite;

pub use config::MuxLinkConfig;
pub use error::AttackError;
pub use fingerprint::{key_input_names, DesignFingerprint};
pub use pipeline::{score_design_with_heuristic, ScoredDesign};
pub use postprocess::recover_key;
pub use progress::{CancelFlag, NoProgress, Progress, Stage};
pub use session::{AttackSession, Extracted, Prepared, Trained};
pub use suite::{run_suite, SuiteJob, SuiteOptions, SuiteRecord};
// Training statistics flow through `Progress::epoch_finished`; re-export
// the types so observers need no direct `muxlink-gnn` dependency.
pub use muxlink_gnn::{EpochStats, TrainReport};
