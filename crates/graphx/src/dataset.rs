//! Step ③+④ batched: dataset generation for GNN training and validation.
//!
//! Each DRNL-labelled enclosing subgraph is independent of every other,
//! so extraction fans out over the ambient rayon pool and writes straight
//! into a [`SampleArena`]; link sampling, shuffling and the split stay
//! sequential and seed-driven, making the dataset bit-identical for any
//! thread count.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::arena::{SampleArena, SampleHandle};
use crate::graph::{CircuitGraph, Link};
use crate::sampling::sample_links;

/// Dataset-generation parameters (paper defaults: `h = 3`,
/// `max_train_links = 100_000`, 10 % validation).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Enclosing-subgraph hop count.
    pub h: usize,
    /// Upper bound on sampled links (positives + negatives).
    pub max_train_links: usize,
    /// Fraction of samples held out for validation.
    pub val_fraction: f64,
    /// Optional cap on subgraph size (nearest nodes kept).
    pub max_subgraph_nodes: Option<usize>,
    /// Sampling/shuffling seed.
    pub seed: u64,
    /// Streaming granularity of the arena-pooled paths: links are
    /// extracted (and, at scoring time, resident) at most `chunk` at a
    /// time. `0` means one chunk holding every link. Chunking never
    /// changes results — samples are extracted independently and
    /// appended in link order — it only bounds peak transient memory.
    pub chunk: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            h: 3,
            max_train_links: 100_000,
            val_fraction: 0.10,
            max_subgraph_nodes: None,
            seed: 0,
            chunk: 0,
        }
    }
}

/// A balanced, shuffled, split link dataset: every sample's adjacency
/// and features live in one [`SampleArena`]; the train/validation split
/// is a pair of shuffled handle lists.
///
/// Built by [`build_dataset_arena`].
#[derive(Debug, Clone)]
pub struct ArenaDataset {
    /// Pooled sample storage.
    pub arena: SampleArena,
    /// Training samples (shuffled, balanced), as arena handles.
    pub train: Vec<SampleHandle>,
    /// Validation samples (paper: 10 % of the sampled links).
    pub val: Vec<SampleHandle>,
    /// Largest DRNL label over all samples — fixes the feature width.
    pub max_label: u32,
}

impl ArenaDataset {
    /// Total number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len()
    }

    /// True when the dataset contains no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds a balanced, shuffled, split dataset of enclosing subgraphs from
/// the observed/unobserved links of `graph`, never sampling any link in
/// `targets`.
///
/// Candidate links are streamed into the arena `cfg.chunk` at a time
/// (0 = one pass), so the build's transient memory — per-range local
/// arenas — stays bounded. Handle `i` is job `i` of the fixed job list
/// (sampled positives, then negatives); the shuffle permutes handles.
/// The integration-test support crate keeps an owned per-sample build as
/// the executable specification this one is pinned to bit for bit.
#[must_use]
pub fn build_dataset_arena(
    graph: &CircuitGraph,
    targets: &[Link],
    cfg: &DatasetConfig,
) -> ArenaDataset {
    let exclude: HashSet<Link> = targets.iter().copied().collect();
    let sampling = sample_links(graph, &exclude, cfg.max_train_links, cfg.seed);

    // Fixed job list first (sequential, seed-driven), streamed into the
    // arena in bounded chunks (order preserved, so handle `i` is job `i`).
    let jobs: Vec<(Link, Option<bool>)> = sampling
        .positives
        .iter()
        .map(|&l| (l, Some(true)))
        .chain(sampling.negatives.iter().map(|&l| (l, Some(false))))
        .collect();
    let chunk = if cfg.chunk == 0 {
        jobs.len().max(1)
    } else {
        cfg.chunk
    };
    let mut arena = SampleArena::new();
    for part in jobs.chunks(chunk) {
        arena.extend_extract(graph, part, cfg.h, cfg.max_subgraph_nodes);
    }

    // Shuffle handles, then split: the tail is the validation set.
    let mut handles: Vec<SampleHandle> = (0..arena.len()).map(|i| arena.nth_handle(i)).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9));
    handles.shuffle(&mut rng);

    let max_label = if arena.is_empty() {
        1
    } else {
        arena.max_label()
    };
    let val_len = ((handles.len() as f64) * cfg.val_fraction).round() as usize;
    let val = handles.split_off(handles.len().saturating_sub(val_len));
    ArenaDataset {
        arena,
        train: handles,
        val,
        max_label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_netlist::{GateId, GateType};

    fn ring(n: usize) -> CircuitGraph {
        let edges: Vec<Link> = (0..n)
            .map(|i| Link::new(i as u32, ((i + 1) % n) as u32))
            .collect();
        CircuitGraph::from_edges(
            (0..n).map(GateId::from_index).collect(),
            vec![GateType::Nor; n],
            &edges,
        )
    }

    fn cfg(max_links: usize) -> DatasetConfig {
        DatasetConfig {
            h: 2,
            max_train_links: max_links,
            val_fraction: 0.10,
            max_subgraph_nodes: None,
            seed: 5,
            chunk: 0,
        }
    }

    /// The link, class label and a fresh one-sample extraction behind
    /// each handle of `hs`. Handle `i` is job `i` of the build's job list
    /// (sampled positives, then negatives), re-derived here from the
    /// same sampling; every stored sample is checked against the fresh
    /// extraction of its link, so the links returned are the ones the
    /// samples were built from.
    fn links_of(
        g: &CircuitGraph,
        targets: &[Link],
        c: &DatasetConfig,
        ds: &ArenaDataset,
        hs: &[SampleHandle],
    ) -> Vec<(Link, bool, SampleArena)> {
        let exclude: HashSet<Link> = targets.iter().copied().collect();
        let sampling = sample_links(g, &exclude, c.max_train_links, c.seed);
        let jobs: Vec<(Link, bool)> = sampling
            .positives
            .iter()
            .map(|&l| (l, true))
            .chain(sampling.negatives.iter().map(|&l| (l, false)))
            .collect();
        assert_eq!(ds.len(), jobs.len());
        hs.iter()
            .map(|&h| {
                let (link, label) = jobs[h.index()];
                let mut fresh = SampleArena::new();
                let f = fresh.extract_sample(g, link, c.h, c.max_subgraph_nodes, Some(label));
                assert_eq!(ds.arena.label(h), Some(label));
                assert_eq!(ds.arena.adj(h).to_owned_csr(), fresh.adj(f).to_owned_csr());
                assert_eq!(
                    ds.arena.one_hot(h, ds.max_label).to_owned_features(),
                    fresh.one_hot(f, ds.max_label).to_owned_features()
                );
                (link, label, fresh)
            })
            .collect()
    }

    /// Every handle of `ds`, training split first.
    fn all(ds: &ArenaDataset) -> Vec<SampleHandle> {
        ds.train.iter().chain(&ds.val).copied().collect()
    }

    #[test]
    fn arena_build_is_chunk_invariant() {
        let g = ring(90);
        let base = build_dataset_arena(&g, &[], &cfg(70));
        for chunk in [1usize, 7, 32, 1000] {
            let c = DatasetConfig { chunk, ..cfg(70) };
            let chunked = build_dataset_arena(&g, &[], &c);
            assert_eq!(chunked.max_label, base.max_label);
            assert_eq!(chunked.train.len(), base.train.len());
            for (a, b) in base
                .train
                .iter()
                .chain(&base.val)
                .zip(chunked.train.iter().chain(&chunked.val))
            {
                assert_eq!(
                    base.arena.adj(*a).to_owned_csr(),
                    chunked.arena.adj(*b).to_owned_csr(),
                    "chunk {chunk}"
                );
                assert_eq!(base.arena.label(*a), chunked.arena.label(*b));
            }
        }
    }

    #[test]
    fn dataset_is_balanced_and_split() {
        let g = ring(100);
        let ds = build_dataset_arena(&g, &[], &cfg(80));
        assert_eq!(ds.len(), 80);
        assert_eq!(ds.val.len(), 8);
        let pos = all(&ds)
            .into_iter()
            .filter(|&h| ds.arena.label(h) == Some(true))
            .count();
        assert_eq!(pos, 40);
    }

    #[test]
    fn positive_subgraphs_do_not_contain_their_link() {
        let g = ring(60);
        let ds = build_dataset_arena(&g, &[], &cfg(40));
        let hs = all(&ds);
        for (&h, (link, _, _)) in hs.iter().zip(links_of(&g, &[], &cfg(40), &ds, &hs)) {
            // The targets are the first two members, in link order.
            assert!(link.a < link.b);
            assert!(
                !ds.arena.adj(h).to_owned_csr().contains_edge(0, 1),
                "target edge leaked into subgraph"
            );
        }
    }

    #[test]
    fn targets_never_sampled() {
        let g = ring(50);
        let targets = vec![Link::new(0, 1), Link::new(10, 30)];
        let ds = build_dataset_arena(&g, &targets, &cfg(1000));
        for (link, _, _) in links_of(&g, &targets, &cfg(1000), &ds, &all(&ds)) {
            assert!(!targets.contains(&link));
        }
    }

    #[test]
    fn max_label_covers_all_samples() {
        let g = ring(80);
        let ds = build_dataset_arena(&g, &[], &cfg(60));
        for (_, _, fresh) in links_of(&g, &[], &cfg(60), &ds, &all(&ds)) {
            assert!(fresh.max_label() <= ds.max_label);
        }
    }

    #[test]
    fn deterministic_dataset() {
        let g = ring(64);
        let a = build_dataset_arena(&g, &[], &cfg(50));
        let b = build_dataset_arena(&g, &[], &cfg(50));
        let links = |ds: &ArenaDataset| -> Vec<(Link, bool)> {
            links_of(&g, &[], &cfg(50), ds, &ds.train)
                .into_iter()
                .map(|(link, label, _)| (link, label))
                .collect()
        };
        assert_eq!(links(&a), links(&b));
    }

    /// One full sample-by-sample comparison between a 1-thread and a
    /// 4-thread build: links, labels, subgraphs and the split must all be
    /// identical.
    #[test]
    fn parallel_build_matches_sequential() {
        let g = ring(120);
        let targets = [Link::new(0, 3)];
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| build_dataset_arena(&g, &targets, &cfg(90)))
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.max_label, par.max_label);
        for (a, b) in [(&seq.train, &par.train), (&seq.val, &par.val)] {
            assert_eq!(a.len(), b.len());
            let xs = links_of(&g, &targets, &cfg(90), &seq, a);
            let ys = links_of(&g, &targets, &cfg(90), &par, b);
            for ((x, y), (&ha, &hb)) in xs.iter().zip(&ys).zip(a.iter().zip(b.iter())) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1, y.1);
                assert_eq!(
                    x.2.adj(x.2.nth_handle(0)).to_owned_csr(),
                    y.2.adj(y.2.nth_handle(0)).to_owned_csr()
                );
                assert_eq!(
                    seq.arena.adj(ha).to_owned_csr(),
                    par.arena.adj(hb).to_owned_csr()
                );
                assert_eq!(
                    seq.arena.one_hot(ha, seq.max_label).to_owned_features(),
                    par.arena.one_hot(hb, par.max_label).to_owned_features()
                );
            }
        }
    }
}
