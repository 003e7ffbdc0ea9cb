//! The owned per-sample dataset build: one [`Subgraph`] per sampled link
//! in a `Vec`, kept as the executable specification of the arena-pooled
//! [`build_dataset_arena`](muxlink_graph::dataset::build_dataset_arena).
//! That build must reproduce this one sample for sample — the same
//! links, extraction, shuffle permutation, split and `max_label` — only
//! the storage differs.

use std::collections::HashSet;

use muxlink_graph::dataset::DatasetConfig;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::sampling::sample_links;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::subgraph_oracle::{enclosing_subgraph_ref, Subgraph};

/// One labelled training example: an enclosing subgraph and whether its
/// target pair is an observed wire.
#[derive(Debug, Clone)]
pub struct LinkSample {
    /// The sampled link.
    pub link: Link,
    /// True for observed (positive) links.
    pub label: bool,
    /// The enclosing subgraph around the link.
    pub subgraph: Subgraph,
}

/// A train/validation split of owned link samples.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Training samples (shuffled, balanced).
    pub train: Vec<LinkSample>,
    /// Validation samples (paper: 10 % of the sampled links).
    pub val: Vec<LinkSample>,
    /// Largest DRNL label over all samples — fixes the feature width.
    pub max_label: u32,
}

/// Builds a balanced, shuffled, split dataset of owned enclosing
/// subgraphs from the observed/unobserved links of `graph`, never
/// sampling any link in `targets` — the specification of
/// [`build_dataset_arena`](muxlink_graph::dataset::build_dataset_arena) (`cfg.chunk` is ignored: there is no
/// streaming here).
#[must_use]
pub fn build_dataset(graph: &CircuitGraph, targets: &[Link], cfg: &DatasetConfig) -> Dataset {
    let exclude: HashSet<Link> = targets.iter().copied().collect();
    let sampling = sample_links(graph, &exclude, cfg.max_train_links, cfg.seed);

    // Fixed job list first (sequential, seed-driven), then parallel
    // subgraph extraction; `collect` preserves job order.
    let jobs: Vec<(Link, bool)> = sampling
        .positives
        .iter()
        .map(|&l| (l, true))
        .chain(sampling.negatives.iter().map(|&l| (l, false)))
        .collect();
    let mut samples: Vec<LinkSample> = jobs
        .par_iter()
        .map(|&(link, label)| LinkSample {
            link,
            label,
            subgraph: enclosing_subgraph_ref(graph, link, cfg.h, cfg.max_subgraph_nodes),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9));
    samples.shuffle(&mut rng);

    let max_label = samples
        .iter()
        .map(|s| s.subgraph.max_label())
        .max()
        .unwrap_or(1);
    let val_len = ((samples.len() as f64) * cfg.val_fraction).round() as usize;
    let val = samples.split_off(samples.len().saturating_sub(val_len));
    Dataset {
        train: samples,
        val,
        max_label,
    }
}

/// Extracts the (unlabelled) enclosing subgraphs for the attack-time
/// target links, using the same `h`/cap as training.
#[must_use]
pub fn target_subgraphs(
    graph: &CircuitGraph,
    targets: &[Link],
    cfg: &DatasetConfig,
) -> Vec<Subgraph> {
    targets
        .par_iter()
        .map(|&l| enclosing_subgraph_ref(graph, l, cfg.h, cfg.max_subgraph_nodes))
        .collect()
}
