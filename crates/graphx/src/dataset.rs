//! Step ③+④ batched: dataset generation for GNN training and validation.
//!
//! Each DRNL-labelled enclosing subgraph is independent of every other,
//! so extraction fans out over the ambient rayon pool; link sampling,
//! shuffling and the split stay sequential and seed-driven, making the
//! dataset bit-identical for any thread count.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::arena::{SampleArena, SampleHandle};
use crate::graph::{CircuitGraph, Link};
use crate::sampling::sample_links;
use crate::subgraph::{enclosing_subgraph, Subgraph};

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

/// A train/validation split of link samples.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Training samples (shuffled, balanced).
    pub train: Vec<LinkSample>,
    /// Validation samples (paper: 10 % of the sampled links).
    pub val: Vec<LinkSample>,
    /// Largest DRNL label over all samples — fixes the feature width.
    pub max_label: u32,
}

impl Dataset {
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

/// Dataset-generation parameters (paper defaults: `h = 3`,
/// `max_train_links = 100_000`, 10 % validation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Builds a balanced, shuffled, split dataset of enclosing subgraphs from
/// the observed/unobserved links of `graph`, never sampling any link in
/// `targets`.
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
            subgraph: enclosing_subgraph(graph, link, cfg.h, cfg.max_subgraph_nodes),
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

/// The arena-pooled twin of [`Dataset`]: every sample's adjacency and
/// features live in one [`SampleArena`]; the train/validation split is a
/// pair of shuffled handle lists.
///
/// Built by [`build_dataset_arena`], which is **bit-identical** to
/// [`build_dataset`] sample for sample: the same links, the same
/// extraction, the same shuffle permutation and split — only the storage
/// differs (five shared slabs instead of three-plus heap allocations per
/// sample). Serializable, like every stage artifact that carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// [`build_dataset`] into pooled arena storage: identical samples, split
/// and `max_label` (property-tested bitwise), with candidate links
/// streamed into the arena `cfg.chunk` at a time (0 = one pass) so the
/// build's transient memory — per-range local arenas — stays bounded
/// while the per-sample `Vec`s of the owned path disappear entirely.
#[must_use]
pub fn build_dataset_arena(
    graph: &CircuitGraph,
    targets: &[Link],
    cfg: &DatasetConfig,
) -> ArenaDataset {
    let exclude: HashSet<Link> = targets.iter().copied().collect();
    let sampling = sample_links(graph, &exclude, cfg.max_train_links, cfg.seed);

    // The same fixed job list as `build_dataset`, streamed into the
    // arena in bounded chunks (order preserved, so handle `i` is the
    // owned path's sample `i`).
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

    // Shuffle handles with the same RNG stream the owned path shuffles
    // samples with — identical permutation, identical split.
    let mut handles: Vec<SampleHandle> = (0..arena.len()).map(|i| arena.nth_handle(i)).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9));
    handles.shuffle(&mut rng);

    let max_label = if arena.is_empty() {
        1
    } else {
        arena.max_label()
    };
    // The dataset-wide label budget is now fixed, so the epoch-invariant
    // layer-0 plans (`S·X` per sample) can be cached once right here —
    // training consumes them instead of rebuilding histograms per epoch.
    arena.build_layer0_plans(max_label);
    let val_len = ((handles.len() as f64) * cfg.val_fraction).round() as usize;
    let val = handles.split_off(handles.len().saturating_sub(val_len));
    ArenaDataset {
        arena,
        train: handles,
        val,
        max_label,
    }
}

/// Extracts the (unlabelled) enclosing subgraphs for the attack-time target
/// links, using the same `h`/cap as training.
#[must_use]
pub fn target_subgraphs(
    graph: &CircuitGraph,
    targets: &[Link],
    cfg: &DatasetConfig,
) -> Vec<Subgraph> {
    targets
        .par_iter()
        .map(|&l| enclosing_subgraph(graph, l, cfg.h, cfg.max_subgraph_nodes))
        .collect()
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

    /// Asserts an arena-backed dataset carries exactly the owned
    /// dataset's samples: same split sizes, same per-position adjacency,
    /// features and labels, same `max_label`.
    fn assert_matches_owned(owned: &Dataset, pooled: &ArenaDataset) {
        assert_eq!(owned.max_label, pooled.max_label);
        assert_eq!(owned.train.len(), pooled.train.len());
        assert_eq!(owned.val.len(), pooled.val.len());
        for (samples, handles) in [(&owned.train, &pooled.train), (&owned.val, &pooled.val)] {
            for (s, &h) in samples.iter().zip(handles.iter()) {
                assert_eq!(pooled.arena.label(h), Some(s.label));
                assert_eq!(pooled.arena.adj(h).to_owned_csr(), s.subgraph.adj);
                assert_eq!(
                    pooled.arena.one_hot(h, owned.max_label).to_owned_features(),
                    crate::features::one_hot_features(&s.subgraph, owned.max_label)
                );
            }
        }
    }

    #[test]
    fn arena_build_matches_owned_build_bitwise() {
        let g = ring(100);
        let targets = vec![Link::new(0, 3), Link::new(10, 40)];
        let owned = build_dataset(&g, &targets, &cfg(80));
        let pooled = build_dataset_arena(&g, &targets, &cfg(80));
        assert_matches_owned(&owned, &pooled);
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
    fn arena_build_serde_round_trips() {
        let g = ring(60);
        let ds = build_dataset_arena(&g, &[], &cfg(30));
        let json = serde_json::to_string(&ds).unwrap();
        let back: ArenaDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.max_label, ds.max_label);
        assert_eq!(back.train.len(), ds.train.len());
        for (&a, &b) in ds.train.iter().zip(&back.train) {
            assert_eq!(a, b, "handles must survive serde");
            assert_eq!(
                ds.arena.adj(a).to_owned_csr(),
                back.arena.adj(b).to_owned_csr()
            );
        }
    }

    #[test]
    fn dataset_is_balanced_and_split() {
        let g = ring(100);
        let ds = build_dataset(&g, &[], &cfg(80));
        assert_eq!(ds.len(), 80);
        assert_eq!(ds.val.len(), 8);
        let pos = ds.train.iter().chain(&ds.val).filter(|s| s.label).count();
        assert_eq!(pos, 40);
    }

    #[test]
    fn positive_subgraphs_do_not_contain_their_link() {
        let g = ring(60);
        let ds = build_dataset(&g, &[], &cfg(40));
        for s in ds.train.iter().chain(&ds.val) {
            let (lf, lg) = s.subgraph.target;
            assert!(
                !s.subgraph.adj.contains_edge(lf, lg),
                "target edge leaked into subgraph"
            );
        }
    }

    #[test]
    fn targets_never_sampled() {
        let g = ring(50);
        let targets = vec![Link::new(0, 1), Link::new(10, 30)];
        let ds = build_dataset(&g, &targets, &cfg(1000));
        for s in ds.train.iter().chain(&ds.val) {
            assert!(!targets.contains(&s.link));
        }
    }

    #[test]
    fn max_label_covers_all_samples() {
        let g = ring(80);
        let ds = build_dataset(&g, &[], &cfg(60));
        for s in ds.train.iter().chain(&ds.val) {
            assert!(s.subgraph.max_label() <= ds.max_label);
        }
    }

    #[test]
    fn target_subgraphs_align_with_targets() {
        let g = ring(40);
        let targets = vec![Link::new(3, 17), Link::new(5, 6)];
        let sgs = target_subgraphs(&g, &targets, &cfg(10));
        assert_eq!(sgs.len(), 2);
        for (sg, t) in sgs.iter().zip(&targets) {
            let (lf, lg) = sg.target;
            assert_eq!(sg.nodes[lf as usize], t.a);
            assert_eq!(sg.nodes[lg as usize], t.b);
        }
    }

    #[test]
    fn deterministic_dataset() {
        let g = ring(64);
        let a = build_dataset(&g, &[], &cfg(50));
        let b = build_dataset(&g, &[], &cfg(50));
        let la: Vec<_> = a.train.iter().map(|s| (s.link, s.label)).collect();
        let lb: Vec<_> = b.train.iter().map(|s| (s.link, s.label)).collect();
        assert_eq!(la, lb);
    }

    /// One full sample-by-sample comparison between a 1-thread and a
    /// 4-thread build: links, labels, subgraphs and the split must all be
    /// identical.
    #[test]
    fn parallel_build_matches_sequential() {
        let g = ring(120);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| build_dataset(&g, &[Link::new(0, 3)], &cfg(90)))
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.max_label, par.max_label);
        for (a, b) in [(&seq.train, &par.train), (&seq.val, &par.val)] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.link, y.link);
                assert_eq!(x.label, y.label);
                assert_eq!(x.subgraph.nodes, y.subgraph.nodes);
                assert_eq!(x.subgraph.adj, y.subgraph.adj);
                assert_eq!(x.subgraph.labels, y.subgraph.labels);
            }
        }
    }

    #[test]
    fn parallel_target_subgraphs_match_sequential() {
        let g = ring(60);
        let targets: Vec<Link> = (0..20).map(|i| Link::new(i, (i + 7) % 60)).collect();
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| target_subgraphs(&g, &targets, &cfg(10)))
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.adj, b.adj);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.target, b.target);
        }
    }
}
