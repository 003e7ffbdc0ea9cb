//! The staged attack-session API: typed pipeline stages.
//!
//! An [`AttackSession`] is the one driver of the MuxLink pipeline. It
//! runs it as **explicit, resumable transitions between owned stage
//! artifacts**, or all of them in one call with [`AttackSession::run`]:
//!
//! ```text
//! AttackSession ──extract()──▶ Extracted ──prepare()──▶ Prepared
//!        ──train()──▶ Trained ──score()──▶ ScoredDesign ──recover_key(th)──▶ key
//! ```
//!
//! The trained model is the checkpoint: [`Trained`] is
//! serde-serializable, so save it after the expensive training stage,
//! then re-score or threshold-sweep later — in another process — without
//! retraining. [`Extracted`], [`Prepared`] and the [`ScoredDesign`] a
//! `Trained` scores to live in one process only: they are cheap to
//! rebuild and hold nothing a later process needs. A [`Progress`] observer
//! receives stage transitions and per-epoch statistics and can cancel
//! cooperatively at batch boundaries.
//!
//! # Determinism contract
//!
//! Calling the stages one by one is **bit-identical** to
//! [`AttackSession::run`] for any thread count. Every stage seeds its own
//! RNG streams from [`MuxLinkConfig::seed`] and reduces parallel work in
//! a fixed order, so splitting the pipeline at any stage boundary —
//! including through a checkpoint round trip of [`Trained`] — cannot
//! change a single bit of the scores or the recovered key.
//!
//! # Example
//!
//! ```no_run
//! use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
//! use muxlink_locking::{dmux, LockOptions};
//!
//! let design = muxlink_benchgen::synth::SynthConfig::new("d", 16, 8, 260).generate(11);
//! let locked = dmux::lock(&design, &LockOptions::new(8, 3)).unwrap();
//!
//! let session = AttackSession::new(
//!     &locked.netlist,
//!     &locked.key_input_names(),
//!     MuxLinkConfig::quick(),
//! );
//! let trained = session
//!     .extract().unwrap()
//!     .prepare(&NoProgress).unwrap()
//!     .train(&NoProgress).unwrap();
//!
//! // Checkpoint the 16-second training stage …
//! let checkpoint = serde_json::to_string(&trained).unwrap();
//! // … and much later, re-score + threshold-sweep without retraining:
//! let restored: muxlink_core::Trained = serde_json::from_str(&checkpoint).unwrap();
//! let scored = restored.score(&NoProgress).unwrap();
//! for th in [0.0, 0.01, 0.1] {
//!     println!("th={th}: {:?}", scored.recover_key(th));
//! }
//! ```

use std::time::Instant;

use muxlink_gnn::{train_controlled, ArenaSamples, Dgcnn, DgcnnConfig, TrainConfig, TrainReport};
use muxlink_graph::dataset::{build_dataset_arena, ArenaDataset, DatasetConfig};
use muxlink_graph::{extract, ExtractedDesign};
use muxlink_netlist::Netlist;
use serde::{map_get, DeError, Deserialize, Serialize, Value};

use crate::fingerprint::DesignFingerprint;
use crate::pipeline::ScoredDesign;
use crate::progress::{Progress, Stage, TrainBridge};
use crate::report::{StageThreads, Timings};
use crate::scoring::{choose_k, score_muxes};
use crate::{AttackError, MuxLinkConfig};

/// Seed whitening for the model-initialisation stream (kept identical to
/// the original one-shot pipeline so staged runs reproduce its bits).
const MODEL_SEED_XOR: u64 = 0xD6C4_33B9;
/// Seed whitening for the training (shuffle/dropout) stream.
const TRAIN_SEED_XOR: u64 = 0x5851_F42D;

/// Runs `f` on a dedicated pool of `threads` workers (ambient pool when
/// `threads == 0`), handing it the effective worker count.
fn with_pool<R: Send>(threads: usize, f: impl FnOnce(usize) -> R + Send) -> Result<R, AttackError> {
    if threads == 0 {
        return Ok(f(rayon::current_num_threads()));
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| AttackError::ThreadPool(e.to_string()))?;
    let n = pool.current_num_threads();
    Ok(pool.install(|| f(n)))
}

/// Applies the cleanup pass pipeline to a copy of `netlist` when
/// `cfg.canonicalize` is set; `None` means "extract the original as-is".
/// Shared by [`AttackSession::extract`] and [`Trained::verify_design`] so
/// a checkpoint produced under `canonicalize` verifies against the same
/// raw netlist it was trained from.
fn canonical_target(
    netlist: &Netlist,
    cfg: &MuxLinkConfig,
) -> Result<Option<Netlist>, AttackError> {
    if !cfg.canonicalize {
        return Ok(None);
    }
    let mut cleaned = netlist.clone();
    muxlink_netlist::passes::Pipeline::cleanup()
        .run(&mut cleaned)
        .map_err(|e| {
            AttackError::InvalidConfig(format!(
                "canonicalize: cleanup pipeline rejected the netlist: {e}"
            ))
        })?;
    Ok(Some(cleaned))
}

/// Rejects configurations that would otherwise panic deep inside the
/// pipeline (typed errors beat asserts on the hot path).
fn validate_config(cfg: &MuxLinkConfig) -> Result<(), AttackError> {
    if cfg.batch_size == 0 {
        return Err(AttackError::InvalidConfig(
            "batch_size must be at least 1".into(),
        ));
    }
    if cfg.epochs == 0 {
        return Err(AttackError::InvalidConfig(
            "epochs must be at least 1".into(),
        ));
    }
    if !(0.0..1.0).contains(&cfg.val_fraction) {
        return Err(AttackError::InvalidConfig(format!(
            "val_fraction must be in [0, 1), got {}",
            cfg.val_fraction
        )));
    }
    if !(cfg.k_percentile > 0.0 && cfg.k_percentile <= 1.0) {
        return Err(AttackError::InvalidConfig(format!(
            "k_percentile must be in (0, 1], got {}",
            cfg.k_percentile
        )));
    }
    Ok(())
}

/// The dataset configuration a session derives from its attack config —
/// shared by the prepare and score stages so both always agree.
fn dataset_config(cfg: &MuxLinkConfig) -> DatasetConfig {
    DatasetConfig {
        h: cfg.h,
        max_train_links: cfg.max_train_links,
        val_fraction: cfg.val_fraction,
        max_subgraph_nodes: cfg.max_subgraph_nodes,
        seed: cfg.seed,
        chunk: cfg.sample_chunk,
    }
}

/// Entry point of the staged API: borrows the locked netlist, owns the
/// configuration, and produces the first stage artifact via
/// [`AttackSession::extract`] (or the whole chain via
/// [`AttackSession::run`]).
#[derive(Debug, Clone)]
pub struct AttackSession<'n> {
    netlist: &'n Netlist,
    key_input_names: Vec<String>,
    cfg: MuxLinkConfig,
}

impl<'n> AttackSession<'n> {
    /// Builds a session over a locked netlist and its key-input names.
    #[must_use]
    pub fn new(netlist: &'n Netlist, key_input_names: &[String], cfg: MuxLinkConfig) -> Self {
        Self {
            netlist,
            key_input_names: key_input_names.to_vec(),
            cfg,
        }
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &MuxLinkConfig {
        &self.cfg
    }

    /// Stage 1: netlist → gate graph + MUX candidates (sequential; the
    /// cheap stage).
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidConfig`] for unusable settings,
    /// [`AttackError::Extract`] for malformed locked designs and
    /// [`AttackError::NoKeyMuxes`] when there is nothing to attack.
    pub fn extract(&self) -> Result<Extracted, AttackError> {
        validate_config(&self.cfg)?;
        let t0 = Instant::now();
        let cleaned = canonical_target(self.netlist, &self.cfg)?;
        let design = extract(
            cleaned.as_ref().unwrap_or(self.netlist),
            &self.key_input_names,
        )?;
        if design.muxes.is_empty() {
            return Err(AttackError::NoKeyMuxes);
        }
        let timings = Timings {
            extract: t0.elapsed(),
            threads: StageThreads {
                extract: 1,
                ..StageThreads::default()
            },
            ..Timings::default()
        };
        Ok(Extracted {
            cfg: self.cfg.clone(),
            key_input_names: self.key_input_names.clone(),
            design,
            timings,
        })
    }

    /// Runs the full chain `extract → prepare → train → score` under one
    /// observer.
    ///
    /// With `cfg.threads != 0` one dedicated pool serves the whole
    /// chain (stage methods called individually each build their own);
    /// the results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Any stage error; see the individual stage methods.
    pub fn run(&self, progress: &dyn Progress) -> Result<ScoredDesign, AttackError> {
        let chain = |session: &AttackSession<'_>| -> Result<ScoredDesign, AttackError> {
            progress.stage_started(Stage::Extract);
            let extracted = session.extract()?;
            progress.stage_finished(Stage::Extract, extracted.timings.extract);
            extracted
                .prepare(progress)?
                .train(progress)?
                .score(progress)
        };
        if self.cfg.threads == 0 {
            return chain(self);
        }
        // One pool around the whole chain; the stages see threads == 0
        // and use it as the ambient pool. Worker counts — and therefore
        // all recorded StageThreads — match the per-stage-pool path.
        let threads = self.cfg.threads;
        let inner = AttackSession {
            netlist: self.netlist,
            key_input_names: self.key_input_names.clone(),
            cfg: MuxLinkConfig {
                threads: 0,
                ..self.cfg.clone()
            },
        };
        with_pool(threads, move |_| chain(&inner))?
    }
}

/// Stage artifact: the extracted gate graph and MUX candidates, plus the
/// configuration the rest of the pipeline will run with.
#[derive(Debug, Clone)]
pub struct Extracted {
    /// The attack configuration this session runs with.
    pub cfg: MuxLinkConfig,
    /// Key-input names, in key-bit order (fixes `key_len`).
    pub key_input_names: Vec<String>,
    /// The extracted graph and MUX candidates.
    pub design: ExtractedDesign,
    /// Wall-clock of the stages run so far.
    pub timings: Timings,
}

impl Extracted {
    /// Stage 2: self-supervised dataset build (sampled observed /
    /// unobserved wires → enclosing subgraphs, streamed
    /// `cfg.sample_chunk` links at a time into one pooled
    /// [`SampleArena`](muxlink_graph::SampleArena)) and SortPool-`k`
    /// selection.
    ///
    /// Runs on a dedicated pool of `cfg.threads` workers (0 = ambient);
    /// the result is bit-identical for any thread count and any chunk
    /// size.
    ///
    /// # Errors
    ///
    /// [`AttackError::EmptyDataset`] when no links could be sampled,
    /// [`AttackError::Cancelled`] when `progress` requested a stop,
    /// [`AttackError::ThreadPool`] when the pool could not be built.
    pub fn prepare(self, progress: &dyn Progress) -> Result<Prepared, AttackError> {
        if progress.cancelled() {
            return Err(AttackError::Cancelled);
        }
        progress.stage_started(Stage::Prepare);
        let t0 = Instant::now();
        let Self {
            cfg,
            key_input_names,
            design,
            mut timings,
        } = self;
        let ds_cfg = dataset_config(&cfg);
        let (dataset, k, workers) = with_pool(cfg.threads, |workers| {
            let targets = design.target_links();
            let dataset = build_dataset_arena(&design.graph, &targets, &ds_cfg);
            if dataset.train.is_empty() {
                return Err(AttackError::EmptyDataset);
            }
            let sizes: Vec<usize> = dataset
                .train
                .iter()
                .chain(&dataset.val)
                .map(|&h| dataset.arena.node_count(h))
                .collect();
            // SortPool size: `k_percentile` of the training subgraphs
            // fit into `k`, clamped to the architecture's minimum.
            let input_dim = muxlink_graph::features::feature_cols(dataset.max_label);
            let model_cfg = DgcnnConfig::paper(input_dim, 10);
            let k = choose_k(&sizes, cfg.k_percentile, model_cfg.min_k());
            Ok((dataset, k, workers))
        })??;
        timings.dataset = t0.elapsed();
        timings.threads.dataset = workers;
        progress.stage_finished(Stage::Prepare, timings.dataset);
        Ok(Prepared {
            cfg,
            key_input_names,
            design,
            dataset,
            k,
            timings,
        })
    }
}

/// Stage artifact: the labelled training/validation dataset — pooled in
/// one [`SampleArena`](muxlink_graph::SampleArena), samples addressed by
/// handles — and the chosen SortPool size, ready for (re-)training.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The attack configuration this session runs with.
    pub cfg: MuxLinkConfig,
    /// Key-input names, in key-bit order.
    pub key_input_names: Vec<String>,
    /// The extracted graph and MUX candidates.
    pub design: ExtractedDesign,
    /// Arena-pooled training/validation samples (compact two-hot
    /// features; `dataset.max_label` fixes the feature width).
    pub dataset: ArenaDataset,
    /// Chosen SortPooling size.
    pub k: usize,
    /// Wall-clock of the stages run so far.
    pub timings: Timings,
}

impl Prepared {
    /// Stage 3: DGCNN training with best-on-validation selection.
    ///
    /// `progress` receives one [`Progress::epoch_finished`] call per
    /// epoch and is polled for cancellation at every batch boundary.
    /// Runs on a dedicated pool of `cfg.threads` workers (0 = ambient);
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`AttackError::Cancelled`] on cooperative stop,
    /// [`AttackError::ThreadPool`] when the pool could not be built.
    pub fn train(self, progress: &dyn Progress) -> Result<Trained, AttackError> {
        if progress.cancelled() {
            return Err(AttackError::Cancelled);
        }
        progress.stage_started(Stage::Train);
        let t0 = Instant::now();
        let Self {
            cfg,
            key_input_names,
            design,
            dataset,
            k,
            mut timings,
        } = self;
        let max_label = dataset.max_label;
        let input_dim = muxlink_graph::features::feature_cols(max_label);
        let mut model_cfg = DgcnnConfig::paper(input_dim, 10);
        model_cfg.k = k;
        model_cfg.seed = cfg.seed ^ MODEL_SEED_XOR;
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            adam: muxlink_gnn::AdamConfig {
                lr: cfg.learning_rate,
                ..muxlink_gnn::AdamConfig::default()
            },
            seed: cfg.seed ^ TRAIN_SEED_XOR,
        };
        let (outcome, workers) = with_pool(cfg.threads, |workers| {
            let mut model = Dgcnn::new(model_cfg);
            // The trainer reads samples straight out of the arena slabs
            // through handle views — bit-identical to owning per-sample
            // `Vec`s (property-tested at 1 and 4 threads).
            let train_set = ArenaSamples::select(&dataset.arena, &dataset.train, max_label);
            let val_set = ArenaSamples::select(&dataset.arena, &dataset.val, max_label);
            let r = train_controlled(
                &mut model,
                &train_set,
                &val_set,
                &train_cfg,
                &TrainBridge(progress),
            );
            (r.map(|(report, phases)| (model, report, phases)), workers)
        })?;
        let (model, report, phases) = outcome.map_err(|_| AttackError::Cancelled)?;
        timings.train = t0.elapsed();
        timings.threads.train = workers;
        timings.train_phases = phases;
        progress.stage_finished(Stage::Train, timings.train);
        Ok(Trained {
            cfg,
            key_input_names,
            design,
            max_label,
            k,
            model,
            report,
            timings,
        })
    }
}

/// Stage artifact: the trained DGCNN with everything needed to score —
/// **the checkpoint type**. Serialize it after the expensive training
/// stage; a reload scores and threshold-sweeps without retraining, with
/// bit-identical results.
///
/// The (large, training-only) dataset is deliberately dropped at this
/// boundary, so checkpoints stay proportional to the model plus the
/// extracted graph.
///
/// Deserialising checks the embedded design (see [`ExtractedDesign`]),
/// that every MUX's key bit indexes `key_input_names`, and that
/// `max_label` and `k` agree with the model's input width and SortPool
/// size.
#[derive(Debug, Clone, Serialize)]
pub struct Trained {
    /// The attack configuration this session ran with.
    pub cfg: MuxLinkConfig,
    /// Key-input names, in key-bit order.
    pub key_input_names: Vec<String>,
    /// The extracted graph and MUX candidates.
    pub design: ExtractedDesign,
    /// Largest DRNL label of the training dataset (fixes feature width).
    pub max_label: u32,
    /// Chosen SortPooling size.
    pub k: usize,
    /// The trained model (weights + architecture; no optimiser state).
    pub model: Dgcnn,
    /// Training statistics.
    pub report: TrainReport,
    /// Wall-clock of the stages run so far.
    pub timings: Timings,
}

impl Deserialize for Trained {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let trained = Self {
            cfg: MuxLinkConfig::from_value(map_get(v, "cfg")?)?,
            key_input_names: Vec::from_value(map_get(v, "key_input_names")?)?,
            design: ExtractedDesign::from_value(map_get(v, "design")?)?,
            max_label: u32::from_value(map_get(v, "max_label")?)?,
            k: usize::from_value(map_get(v, "k")?)?,
            model: Dgcnn::from_value(map_get(v, "model")?)?,
            report: TrainReport::from_value(map_get(v, "report")?)?,
            timings: Timings::from_value(map_get(v, "timings")?)?,
        };
        let key_len = trained.key_input_names.len();
        if let Some((i, m)) = trained
            .design
            .muxes
            .iter()
            .enumerate()
            .find(|(_, m)| m.key_bit >= key_len)
        {
            return Err(DeError(format!(
                "checkpoint `design.muxes[{i}].key_bit` is {}, but there are {key_len} key inputs",
                m.key_bit
            )));
        }
        let model = trained.model.config();
        let cols = muxlink_graph::features::feature_cols(trained.max_label);
        if cols != model.input_dim {
            return Err(DeError(format!(
                "checkpoint `max_label` is {}, giving {cols} feature columns, but the model reads {}",
                trained.max_label, model.input_dim
            )));
        }
        if trained.k != model.k {
            return Err(DeError(format!(
                "checkpoint `k` is {}, but the model pools to {}",
                trained.k, model.k
            )));
        }
        Ok(trained)
    }
}

impl Trained {
    /// The structural [`DesignFingerprint`] of the design this
    /// checkpoint was trained on — the digest of exactly what
    /// [`Trained::verify_design`] compares (key-input names in key-bit
    /// order plus the whole extracted design). The attack service keys
    /// its checkpoint cache by this value, and the wire protocol carries
    /// it in hex form.
    #[must_use]
    pub fn fingerprint(&self) -> DesignFingerprint {
        DesignFingerprint::compute(&self.key_input_names, &self.design)
    }

    /// Checks that this checkpoint was trained on `netlist`: the
    /// key-input names must match and re-extracting the netlist must
    /// yield the identical extracted design — the gate graph scoring
    /// reads (gates, gate types, wiring) and the key-MUX structure, the
    /// [`Trained::fingerprint`] of the locked design. Extraction is
    /// deterministic, so the same design always matches.
    ///
    /// Use this before attributing a [`Trained::score`] result to a
    /// netlist that did not produce the checkpoint in-process: scoring
    /// always runs on the *embedded* extracted design.
    ///
    /// # Errors
    ///
    /// [`AttackError::Extract`] when `netlist` cannot be extracted and
    /// [`AttackError::Checkpoint`] when it does not match.
    pub fn verify_design(
        &self,
        netlist: &Netlist,
        key_input_names: &[String],
    ) -> Result<(), AttackError> {
        if self.key_input_names != key_input_names {
            return Err(AttackError::Checkpoint(
                "checkpoint was trained with different key inputs".into(),
            ));
        }
        let cleaned = canonical_target(netlist, &self.cfg)?;
        let design = extract(cleaned.as_ref().unwrap_or(netlist), key_input_names)?;
        // With the key names equal, the whole extracted design decides.
        if design != self.design {
            return Err(AttackError::Checkpoint(
                "checkpoint was trained on a different design (its gate graph or key-MUX \
                 structure differs)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Stage 4: scores both candidate links of every key MUX.
    ///
    /// Takes `&self` so one checkpoint can be scored repeatedly (for
    /// example after editing `cfg.th` — scoring itself is
    /// threshold-free). Runs on a dedicated pool of `cfg.threads`
    /// workers (0 = ambient); bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`AttackError::Cancelled`] on cooperative stop,
    /// [`AttackError::ThreadPool`] when the pool could not be built.
    pub fn score(&self, progress: &dyn Progress) -> Result<ScoredDesign, AttackError> {
        if progress.cancelled() {
            return Err(AttackError::Cancelled);
        }
        progress.stage_started(Stage::Score);
        let t0 = Instant::now();
        let ds_cfg = dataset_config(&self.cfg);
        let (scores, workers) = with_pool(self.cfg.threads, |workers| {
            (
                score_muxes(&self.model, &self.design, &ds_cfg, self.max_label, progress),
                workers,
            )
        })?;
        let scores = scores?;
        let mut timings = self.timings;
        timings.score = t0.elapsed();
        timings.threads.score = workers;
        progress.stage_finished(Stage::Score, timings.score);
        Ok(ScoredDesign {
            extracted: self.design.clone(),
            scores,
            key_len: self.key_input_names.len(),
            train_report: self.report.clone(),
            k: self.k,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{CancelFlag, NoProgress};
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, LockOptions};

    fn locked_design() -> muxlink_locking::LockedNetlist {
        let design = SynthConfig::new("s", 14, 6, 200).generate(31);
        dmux::lock(&design, &LockOptions::new(6, 3)).unwrap()
    }

    #[test]
    fn staged_chain_matches_one_shot_bitwise() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let cfg = MuxLinkConfig::quick();
        let one_shot = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .run(&NoProgress)
            .unwrap();
        let staged = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .extract()
            .unwrap()
            .prepare(&NoProgress)
            .unwrap()
            .train(&NoProgress)
            .unwrap()
            .score(&NoProgress)
            .unwrap();
        assert_eq!(staged.scores, one_shot.scores);
        assert_eq!(staged.train_report, one_shot.train_report);
        assert_eq!(staged.k, one_shot.k);
        assert_eq!(staged.recover_key(cfg.th), one_shot.recover_key(cfg.th));
    }

    #[test]
    fn observer_sees_stages_and_epochs_without_perturbing_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Spy {
            stages: AtomicUsize,
            epochs: AtomicUsize,
        }
        impl Progress for Spy {
            fn stage_started(&self, _stage: Stage) {
                self.stages.fetch_add(1, Ordering::SeqCst);
            }
            fn epoch_finished(&self, _stats: &muxlink_gnn::EpochStats) {
                self.epochs.fetch_add(1, Ordering::SeqCst);
            }
        }
        let locked = locked_design();
        let names = locked.key_input_names();
        let cfg = MuxLinkConfig::quick();
        let spy = Spy::default();
        let observed = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .run(&spy)
            .unwrap();
        let silent = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .run(&NoProgress)
            .unwrap();
        assert_eq!(
            spy.stages.load(Ordering::SeqCst),
            4,
            "extract/prepare/train/score"
        );
        assert_eq!(spy.epochs.load(Ordering::SeqCst), cfg.epochs);
        assert_eq!(observed.scores, silent.scores);
        assert_eq!(observed.train_report, silent.train_report);
    }

    #[test]
    fn cancellation_surfaces_as_typed_error_at_every_stage() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let cfg = MuxLinkConfig::quick();
        let flag = CancelFlag::new();
        flag.cancel();
        let extracted = AttackSession::new(&locked.netlist, &names, cfg)
            .extract()
            .unwrap();
        assert!(matches!(
            extracted.clone().prepare(&flag),
            Err(AttackError::Cancelled)
        ));
        let prepared = extracted.prepare(&NoProgress).unwrap();
        assert!(matches!(
            prepared.clone().train(&flag),
            Err(AttackError::Cancelled)
        ));
        let trained = prepared.train(&NoProgress).unwrap();
        assert!(matches!(trained.score(&flag), Err(AttackError::Cancelled)));
    }

    #[test]
    fn invalid_configs_are_rejected_before_any_work() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let mut cfg = MuxLinkConfig::quick();
        cfg.batch_size = 0;
        let err = AttackSession::new(&locked.netlist, &names, cfg)
            .extract()
            .unwrap_err();
        assert!(matches!(err, AttackError::InvalidConfig(_)));
        let mut cfg = MuxLinkConfig::quick();
        cfg.epochs = 0;
        assert!(matches!(
            AttackSession::new(&locked.netlist, &names, cfg).extract(),
            Err(AttackError::InvalidConfig(_))
        ));
    }

    #[test]
    fn verify_design_accepts_origin_and_rejects_impostors() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let trained = AttackSession::new(&locked.netlist, &names, MuxLinkConfig::quick())
            .extract()
            .unwrap()
            .prepare(&NoProgress)
            .unwrap()
            .train(&NoProgress)
            .unwrap();
        trained
            .verify_design(&locked.netlist, &names)
            .expect("the origin design must verify");
        // A different design with the same key size and the same
        // keyinput0..N names must be rejected on MUX structure.
        let other = SynthConfig::new("s2", 14, 6, 210).generate(32);
        let other_locked = dmux::lock(&other, &LockOptions::new(6, 3)).unwrap();
        let err = trained
            .verify_design(&other_locked.netlist, &other_locked.key_input_names())
            .unwrap_err();
        assert!(matches!(err, AttackError::Checkpoint(_)), "{err}");
    }

    /// The shared digest and `verify_design` must agree: the origin
    /// netlist fingerprints to the checkpoint's own digest (and
    /// verifies), an impostor fingerprints differently (and is
    /// rejected) — the cache key and the verifier cannot drift.
    #[test]
    fn fingerprint_agrees_with_verify_design() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let trained = AttackSession::new(&locked.netlist, &names, MuxLinkConfig::quick())
            .extract()
            .unwrap()
            .prepare(&NoProgress)
            .unwrap()
            .train(&NoProgress)
            .unwrap();
        let origin = DesignFingerprint::of_netlist(&locked.netlist, &names).unwrap();
        assert_eq!(trained.fingerprint(), origin);
        trained.verify_design(&locked.netlist, &names).unwrap();

        let other = SynthConfig::new("s2", 14, 6, 210).generate(32);
        let other_locked = dmux::lock(&other, &LockOptions::new(6, 3)).unwrap();
        let other_fp =
            DesignFingerprint::of_netlist(&other_locked.netlist, &other_locked.key_input_names())
                .unwrap();
        assert_ne!(trained.fingerprint(), other_fp);
        assert!(trained
            .verify_design(&other_locked.netlist, &other_locked.key_input_names())
            .is_err());
        // A checkpoint serde round trip preserves the digest.
        let json = serde_json::to_string(&trained).unwrap();
        let restored: Trained = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.fingerprint(), origin);
    }

    /// `cfg.canonicalize` must behave exactly like running the cleanup
    /// pipeline by hand before attacking — bit-identical scores — and a
    /// checkpoint trained under it must still verify against the *raw*
    /// netlist it came from.
    #[test]
    fn canonicalize_matches_manual_cleanup_bitwise() {
        // Cleanup can elide a buffer between a primary input and a key-MUX
        // data pin, which makes the cleaned design un-extractable
        // (MuxDataFromPrimaryInput) — deterministically pick a seed whose
        // locked design survives canonicalization.
        let locked = (31..64)
            .map(|seed| {
                let design = SynthConfig::new("s", 14, 6, 200).generate(seed);
                dmux::lock(&design, &LockOptions::new(6, 3)).unwrap()
            })
            .find(|locked| {
                let mut cleaned = locked.netlist.clone();
                muxlink_netlist::passes::Pipeline::cleanup()
                    .run(&mut cleaned)
                    .is_ok()
                    && extract(&cleaned, &locked.key_input_names()).is_ok()
            })
            .expect("some seed must survive cleanup");
        let names = locked.key_input_names();
        let mut cfg = MuxLinkConfig::quick();
        cfg.epochs = 4;
        cfg.max_train_links = 200;

        let trained =
            AttackSession::new(&locked.netlist, &names, cfg.clone().with_canonicalize(true))
                .extract()
                .unwrap()
                .prepare(&NoProgress)
                .unwrap()
                .train(&NoProgress)
                .unwrap();
        let auto = trained.score(&NoProgress).unwrap();

        let mut cleaned = locked.netlist.clone();
        muxlink_netlist::passes::Pipeline::cleanup()
            .run(&mut cleaned)
            .unwrap();
        let manual = AttackSession::new(&cleaned, &names, cfg)
            .run(&NoProgress)
            .unwrap();
        assert_eq!(auto.scores, manual.scores);
        assert_eq!(auto.train_report, manual.train_report);

        // verify_design re-applies the same canonicalization, so the raw
        // origin netlist still verifies.
        trained.verify_design(&locked.netlist, &names).unwrap();
    }

    #[test]
    fn trained_checkpoint_round_trips_to_identical_scores() {
        let locked = locked_design();
        let names = locked.key_input_names();
        let cfg = MuxLinkConfig::quick();
        let trained = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .extract()
            .unwrap()
            .prepare(&NoProgress)
            .unwrap()
            .train(&NoProgress)
            .unwrap();
        let direct = trained.score(&NoProgress).unwrap();
        let json = serde_json::to_string(&trained).unwrap();
        let restored: Trained = serde_json::from_str(&json).unwrap();
        let rescored = restored.score(&NoProgress).unwrap();
        assert_eq!(
            rescored.scores, direct.scores,
            "scores must be bit-identical"
        );
        assert_eq!(
            rescored.recover_key(cfg.th),
            direct.recover_key(cfg.th),
            "recovered key must be identical after a checkpoint round trip"
        );
        assert_eq!(
            serde_json::to_string(&restored).unwrap(),
            json,
            "re-encoding is exact"
        );

        // A tampered design or key bit is refused on load, naming the
        // field — never a panic in scoring.
        let tamper = |path: &[&str], value: Value| {
            let mut v: Value = serde_json::from_str(&json).unwrap();
            let slot = path.iter().fold(&mut v, |v, key| match v {
                Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Seq(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("no `{key}` in {other:?}"),
            });
            *slot = value;
            serde_json::from_str::<Trained>(&serde_json::to_string(&v).unwrap())
                .unwrap_err()
                .to_string()
        };
        let err = tamper(
            &["design", "graph", "adj", "neighbors", "0"],
            Value::Int(4_000_000_000),
        );
        assert!(err.contains("csr `neighbors` of node"), "{err}");
        let err = tamper(&["design", "muxes", "0", "key_bit"], Value::Int(99));
        assert!(err.contains("`design.muxes[0].key_bit` is 99"), "{err}");
    }
}
