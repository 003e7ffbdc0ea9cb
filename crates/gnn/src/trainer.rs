//! Minibatch training loop with best-on-validation model selection
//! (the paper trains 100 epochs with Adam at lr 1e-4 and keeps the model
//! that performs best on the 10 % validation split).
//!
//! # The batch body
//!
//! Every minibatch runs one **block-diagonal batched step**
//! ([`Dgcnn::batch_train_step`]): the batch is packed into one
//! block-diagonal CSR + stacked feature matrix
//! ([`crate::batch::Minibatch`]) and each layer runs as one fused
//! kernel over the whole batch. The step is sequential and reduces
//! gradients in sample order internally, and dropout seeds are drawn
//! sequentially from the training RNG, so the result is bit-identical
//! for any thread count. Validation ([`evaluate`]) runs the same batched
//! forward without dropout. The executable specification of the loop is
//! `reference_train` in the integration-test support crate
//! (`tests/src/lib.rs`): the per-sample forward/backward loop with
//! gradients merged in sample order and per-sample validation, which
//! the property suite pins this loop to bit for bit.

use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::batch::{BatchWorkspace, Minibatch};
use crate::dgcnn::Dgcnn;
use crate::matrix::seeded_rng;
use crate::param::{AdamConfig, AdamState};
use crate::sample::SampleStore;

/// Training-loop hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set (paper: 100).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimiser settings (paper: Adam, lr 1e-4).
    pub adam: AdamConfig,
    /// Shuffling/dropout seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            adam: AdamConfig::default(),
            seed: 0,
        }
    }
}

/// Wall-clock breakdown of one training run, accumulated over every
/// batch of every epoch: minibatch assembly, batched forward, batched
/// backward and the optimiser step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrainPhases {
    /// Packing jobs into the block-diagonal minibatch (incl. plan
    /// stacking).
    pub assembly: Duration,
    /// Batched forward passes (inputs through per-sample losses).
    pub forward: Duration,
    /// Batched backward passes (losses through summed gradients).
    pub backward: Duration,
    /// Adam updates.
    pub optimizer: Duration,
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean training cross-entropy.
    pub train_loss: f64,
    /// Mean validation cross-entropy (NaN when no validation set).
    pub val_loss: f64,
    /// Validation accuracy at threshold 0.5 (NaN when no validation set).
    pub val_accuracy: f64,
}

/// Outcome of a training run. The model is left holding the
/// best-on-validation weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Statistics for every epoch.
    pub history: Vec<EpochStats>,
    /// Epoch whose weights were kept (1-based; 0 when no validation set).
    pub best_epoch: usize,
    /// Validation accuracy of the kept weights.
    pub best_val_accuracy: f64,
}

/// Observer + cooperative-cancellation hooks for the training loop.
///
/// The trainer calls [`TrainControl::epoch_finished`] after every epoch's
/// validation pass (from the sequential part of the loop) and polls
/// [`TrainControl::cancelled`] at **batch boundaries** — before any RNG
/// draw for the batch — so observation and cancellation can never perturb
/// the training stream: a run that is not cancelled is bit-identical to
/// an unobserved run.
///
/// `()` is the no-op control used by [`train`].
pub trait TrainControl: Sync {
    /// Called after each epoch with that epoch's statistics.
    fn epoch_finished(&self, stats: &EpochStats) {
        let _ = stats;
    }

    /// Polled at batch boundaries; returning `true` stops training
    /// before the next batch (the model keeps its current weights).
    fn cancelled(&self) -> bool {
        false
    }
}

/// The no-op control: observes nothing and never cancels.
impl TrainControl for () {}

/// Training was stopped by [`TrainControl::cancelled`] before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainCancelled;

impl std::fmt::Display for TrainCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "training cancelled at a batch boundary")
    }
}

impl std::error::Error for TrainCancelled {}

/// Mean loss and accuracy of `model` over `samples` (deterministic, no
/// dropout). Samples without labels are skipped. Accepts any
/// [`SampleStore`] — owned slices/`Vec`s or arena-backed stores.
#[must_use]
pub fn evaluate<S: SampleStore + ?Sized>(model: &Dgcnn, samples: &S) -> (f64, f64) {
    // Batched forward passes over the labelled samples on the ambient
    // pool; the reduction below runs in sample order, so the reported
    // loss is independent of the thread count.
    let labelled: Vec<usize> = (0..samples.len())
        .filter(|&i| samples.view(i).label.is_some())
        .collect();
    let per_sample: Vec<(f64, bool)> = model.infer(samples, &labelled, |i, probs| {
        let label = samples.view(i).label == Some(true);
        let p = probs[usize::from(label)].max(1e-12);
        (f64::from(-p.ln()), (probs[1] >= 0.5) == label)
    });
    let mut loss = 0.0;
    let mut correct = 0usize;
    for &(l, hit) in &per_sample {
        loss += l;
        correct += usize::from(hit);
    }
    let count = per_sample.len();
    if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (loss / count as f64, correct as f64 / count as f64)
    }
}

/// Trains `model` in place and restores the epoch with the best validation
/// accuracy (ties broken by lower validation loss).
///
/// # Panics
///
/// Panics when `train` is empty or `batch_size` is zero.
pub fn train<S: SampleStore + ?Sized, V: SampleStore + ?Sized>(
    model: &mut Dgcnn,
    train: &S,
    val: &V,
    cfg: &TrainConfig,
) -> TrainReport {
    match train_controlled(model, train, val, cfg, &()) {
        Ok((report, _)) => report,
        Err(TrainCancelled) => unreachable!("the () control never cancels"),
    }
}

/// [`train`] with an observer, cooperative cancellation and a
/// wall-clock phase breakdown of the run.
///
/// Identical numerics to [`train`] — the control hooks and timers sit
/// outside every RNG draw and every reduction, so an uncancelled
/// controlled run is bit-identical to the plain one for any thread
/// count.
///
/// # Errors
///
/// [`TrainCancelled`] when `ctl.cancelled()` returned `true` at a batch
/// boundary; the model is left with the weights of the last completed
/// optimiser step.
///
/// # Panics
///
/// Panics when `train` is empty or `batch_size` is zero.
pub fn train_controlled<S: SampleStore + ?Sized, V: SampleStore + ?Sized>(
    model: &mut Dgcnn,
    train: &S,
    val: &V,
    cfg: &TrainConfig,
    ctl: &dyn TrainControl,
) -> Result<(TrainReport, TrainPhases), TrainCancelled> {
    let mut phases = TrainPhases::default();
    assert!(!train.is_empty(), "training set must not be empty");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let mut rng = seeded_rng(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f64, f64, Vec<crate::matrix::Matrix>)> = None;
    let mut step = 0usize;
    // The gradient accumulator, minibatch assembler and batch
    // workspace are reused across every batch of the run; the Adam
    // moments live only as long as the run.
    let mut acc = model.new_gradients();
    let mut adam = AdamState::new(model);
    let mut mb = Minibatch::new();
    let mut bws = BatchWorkspace::new();

    for epoch in 1..=cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            // Cooperative cancellation, checked before this batch's RNG
            // draws so an uncancelled run sees an unchanged stream.
            if ctl.cancelled() {
                return Err(TrainCancelled);
            }
            // Dropout seeds are drawn sequentially from the training RNG,
            // so the stream every sample sees is fixed by (cfg.seed,
            // epoch, batch position) alone.
            let jobs: Vec<(usize, u64)> = batch
                .iter()
                .filter(|&&i| train.view(i).label.is_some())
                .map(|&i| (i, rng.gen::<u64>()))
                .collect();
            if jobs.is_empty() {
                continue;
            }
            // Block-diagonal batched step: one fused kernel per layer
            // over the whole minibatch, gradients and per-sample losses
            // reduced in job order. Assembly builds each sample's S·X
            // plan rows for layer 0.
            let t_asm = Instant::now();
            mb.assemble(train, &jobs);
            phases.assembly += t_asm.elapsed();
            model.batch_train_step(&mb, &mut bws, &mut acc);
            phases.forward += bws.forward_time;
            phases.backward += bws.backward_time;
            for loss in &bws.losses {
                epoch_loss += loss;
            }
            step += 1;
            let t_opt = Instant::now();
            adam.step(model, &acc, &cfg.adam, step, 1.0 / jobs.len() as f32);
            phases.optimizer += t_opt.elapsed();
            seen += jobs.len();
        }
        let train_loss = if seen == 0 {
            f64::NAN
        } else {
            epoch_loss / seen as f64
        };
        let (val_loss, val_accuracy) = evaluate(model, val);
        let stats = EpochStats {
            epoch,
            train_loss,
            val_loss,
            val_accuracy,
        };
        ctl.epoch_finished(&stats);
        history.push(stats);
        if !val_accuracy.is_nan() {
            let better = match &best {
                None => true,
                Some((_, acc, loss, _)) => {
                    val_accuracy > *acc || (val_accuracy == *acc && val_loss < *loss)
                }
            };
            if better {
                best = Some((epoch, val_accuracy, val_loss, model.snapshot()));
            }
        }
    }

    let report = match best {
        Some((best_epoch, best_val_accuracy, _, snapshot)) => {
            model.restore(&snapshot);
            TrainReport {
                history,
                best_epoch,
                best_val_accuracy,
            }
        }
        None => TrainReport {
            history,
            best_epoch: 0,
            best_val_accuracy: f64::NAN,
        },
    };
    Ok((report, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgcnn::DgcnnConfig;
    use crate::sample::GraphSample;
    use muxlink_graph::OneHotFeatures;
    use rand::Rng;

    /// A separable link-prediction-like task on a 4-node path 0-1-2-3:
    /// two nodes carry a "target" gate type (column 1, the rest column
    /// 0); the label says whether the flagged pair is adjacent (1,2) or
    /// far apart (0,3). Random DRNL-label columns keep samples distinct.
    fn toy_dataset(n: usize, seed: u64) -> Vec<GraphSample> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                let label = rng.gen::<bool>();
                let adj =
                    muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]);
                let flagged: [usize; 2] = if label { [1, 2] } else { [0, 3] };
                let gate = (0..4).map(|i| u32::from(flagged.contains(&i))).collect();
                let labels = (0..4).map(|_| rng.gen_range(0..3)).collect();
                GraphSample {
                    adj,
                    features: OneHotFeatures::new(TOY_WIDTH, gate, labels),
                    label: Some(label),
                }
            })
            .collect()
    }

    /// 8 gate-type columns + DRNL labels 0..=2.
    const TOY_WIDTH: usize = 11;

    fn toy_cfg() -> DgcnnConfig {
        DgcnnConfig {
            input_dim: TOY_WIDTH,
            gc_channels: vec![4, 1],
            conv1_channels: 4,
            conv2_channels: 4,
            conv2_kernel: 2,
            dense_dim: 8,
            dropout: 0.1,
            k: 4,
            seed: 1,
        }
    }

    #[test]
    fn learns_separable_structure() {
        let data = toy_dataset(60, 2);
        let (train_set, val_set) = data.split_at(48);
        let mut model = Dgcnn::new(toy_cfg());
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 8,
            adam: AdamConfig {
                lr: 0.01,
                ..AdamConfig::default()
            },
            seed: 3,
        };
        let report = train(&mut model, train_set, val_set, &cfg);
        assert!(
            report.best_val_accuracy > 0.9,
            "val accuracy {}",
            report.best_val_accuracy
        );
        let (_, acc) = evaluate(&model, val_set);
        assert!(acc > 0.9);
    }

    #[test]
    fn history_covers_all_epochs() {
        let data = toy_dataset(12, 5);
        let mut model = Dgcnn::new(toy_cfg());
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &data[..4], &cfg);
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.history[0].epoch, 1);
    }

    #[test]
    fn no_validation_set_is_tolerated() {
        let data = toy_dataset(8, 6);
        let mut model = Dgcnn::new(toy_cfg());
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &data[..0], &cfg);
        assert_eq!(report.best_epoch, 0);
        assert!(report.best_val_accuracy.is_nan());
    }

    #[test]
    fn deterministic_training() {
        let data = toy_dataset(20, 7);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut m1 = Dgcnn::new(toy_cfg());
        let mut m2 = Dgcnn::new(toy_cfg());
        let r1 = train(&mut m1, &data[..16], &data[16..], &cfg);
        let r2 = train(&mut m2, &data[..16], &data[16..], &cfg);
        assert_eq!(r1, r2);
        assert_eq!(m1.predict_batch(&data[..1]), m2.predict_batch(&data[..1]));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let data = toy_dataset(24, 9);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut m = Dgcnn::new(toy_cfg());
                let r = train(&mut m, &data[..20], &data[20..], &cfg);
                (r, m.snapshot())
            })
        };
        let (r1, p1) = run(1);
        for threads in [2, 4] {
            let (r, p) = run(threads);
            assert_eq!(
                r1, r,
                "TrainReport must be bit-identical across thread counts"
            );
            assert_eq!(p1, p, "weights must be bit-identical across thread counts");
        }
    }

    #[test]
    #[should_panic(expected = "training set must not be empty")]
    fn empty_training_rejected() {
        let mut model = Dgcnn::new(toy_cfg());
        let empty: Vec<GraphSample> = Vec::new();
        let _ = train(&mut model, &empty, &empty, &TrainConfig::default());
    }

    #[test]
    fn controlled_run_is_observed_and_bit_identical_to_plain() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counter(AtomicUsize);
        impl TrainControl for Counter {
            fn epoch_finished(&self, stats: &EpochStats) {
                assert_eq!(stats.epoch, self.0.load(Ordering::SeqCst) + 1);
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let data = toy_dataset(20, 11);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut plain = Dgcnn::new(toy_cfg());
        let r_plain = train(&mut plain, &data[..16], &data[16..], &cfg);
        let counter = Counter(AtomicUsize::new(0));
        let mut observed = Dgcnn::new(toy_cfg());
        let (r_obs, _) =
            train_controlled(&mut observed, &data[..16], &data[16..], &cfg, &counter).unwrap();
        assert_eq!(counter.0.load(Ordering::SeqCst), 4, "one hook per epoch");
        assert_eq!(r_plain, r_obs, "observation must not perturb training");
        assert_eq!(
            plain.predict_batch(&data[..1]),
            observed.predict_batch(&data[..1])
        );
    }

    #[test]
    fn cancellation_stops_before_the_first_batch() {
        struct CancelNow;
        impl TrainControl for CancelNow {
            fn cancelled(&self) -> bool {
                true
            }
        }
        let data = toy_dataset(8, 12);
        let mut model = Dgcnn::new(toy_cfg());
        let before = model.snapshot();
        let err = train_controlled(
            &mut model,
            &data,
            &data[..0],
            &TrainConfig::default(),
            &CancelNow,
        )
        .unwrap_err();
        assert_eq!(err, TrainCancelled);
        assert_eq!(model.snapshot(), before, "no step was applied");
    }
}
