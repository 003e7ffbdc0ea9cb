//! Arena-pooled sample storage: every enclosing subgraph of a dataset in
//! a handful of flat slabs instead of three-plus heap allocations per
//! sample.
//!
//! After the sparse-feature PR the dominant resident objects of a large
//! attack are the per-sample CSR buffers (`offsets`/`neighbors`/`scales`
//! vectors, one set per extracted subgraph). A [`SampleArena`] owns those
//! buffers **once**, concatenated: each sample is a contiguous run inside
//! five shared slabs, and a [`SampleHandle`] is a small index into the
//! per-sample record table. Consumers read samples through borrowed
//! views ([`CsrView`], [`OneHotView`]) — the same types the GNN kernels
//! take for owned samples, which is what keeps the pooled path
//! bit-identical to the per-sample-`Vec` path.
//!
//! Two properties make the arena the streaming substrate for
//! million-link datasets:
//!
//! * **Extraction writes directly into the slabs.** The arena is the
//!   only code that turns a graph neighbourhood into a sample.
//!   [`SampleArena::extract_sample`] (around a link, DRNL-labelled) and
//!   [`SampleArena::extract_node_sample`] (around one node,
//!   distance-labelled) collect their members on hash-free,
//!   epoch-stamped scratch and share one slab writer that emits the CSR
//!   rows, propagation scales, gate columns and labels straight into the
//!   arena — zero per-sample allocation once the slabs have grown.
//! * **Reset is O(1) amortised.** [`SampleArena::clear`] keeps slab
//!   capacity, so a scoring loop can stream an unbounded candidate-link
//!   list through one arena in fixed-size chunks: peak resident sample
//!   bytes are bounded by the chunk size, not the dataset size.
//!
//! # Label storage
//!
//! DRNL labels land in the slab **raw** (unclamped): the dataset-wide
//! label budget (`max_label`) is only known after every sample has been
//! extracted, and at scoring time it comes from training. Views clamp on
//! read ([`OneHotView::columns`]) into the last label bucket, so the same
//! slab serves any budget.
//!
//! # Layer-0 plans
//!
//! The first GC layer consumes `S·X`, whose sparse rows depend only on a
//! sample's adjacency and two-hot features. The arena stores no plans:
//! [`Layer0Plans::push_sample`] is the one function that computes them,
//! and the batched trainer calls it over each sample's views every time
//! it packs a minibatch (read back through [`Layer0PlanView`]).
//!
//! # Determinism contract
//!
//! A sample's slab content is a pure function of `(graph, link, h,
//! max_nodes)` (or `center` for a node sample) — the same normalised
//! neighbour runs, scales and labels as the hash-map extraction oracles
//! in the integration-test crate, property-tested bit-identical
//! (`tests/tests/sparse_features.rs`, `tests/tests/arena_dataset.rs`).
//! Parallel fills ([`SampleArena::extend_extract`]) split the job list
//! into fixed sub-ranges, extract each into a thread-local arena and
//! append the results in job order, so the final slab layout is
//! independent of the thread count.

use rayon::prelude::*;

use crate::csr::CsrView;
use crate::drnl;
use crate::features::{feature_cols, OneHotView};
use crate::graph::{CircuitGraph, Link};
use crate::scratch::ExtractScratch;
use crate::subgraph;

/// Address of one sample inside a [`SampleArena`] (8-byte samples-side
/// cost; the adjacency and features live in the arena slabs).
///
/// A handle also carries the arena **generation** it was issued under:
/// [`SampleArena::clear`] bumps the generation, so a handle held across
/// a clear fails loudly on its next use instead of silently resolving
/// to whatever sample now occupies its index (the streaming pattern —
/// clear + refill per chunk — would otherwise make that an easy,
/// undetectable aliasing bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleHandle {
    idx: u32,
    gen: u32,
}

impl SampleHandle {
    /// Position of the sample in arena push order.
    #[must_use]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// Borrowed sparse-CSR view of layer-0 plan rows: the rows of the
/// propagated-feature matrix `S·X` under a fixed dataset label budget.
///
/// Row `i` holds at most `2·(1 + deg(i))` `(column, value)` entries with
/// the columns strictly ascending, where every value is
/// `count · scaleᵢ` for an integer hit `count` of that feature column
/// over the closed neighbourhood `{i} ∪ N(i)`. Integer-valued `f32`
/// counts are exact, so each value is bit-equal to the entry of the
/// dense `propagate(S, X)`, and the ascending columns are the order a
/// dense skip-zero product visits them: a kernel consuming a plan row
/// reproduces the dense `(S·X)·W` bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Layer0PlanView<'a> {
    /// `node_count + 1` entry offsets, absolute into `cols`/`vals`.
    offsets: &'a [u32],
    /// Entry columns (feature-space indices), ascending within a row.
    cols: &'a [u32],
    /// Entry values (`count · scale`, exact by construction).
    vals: &'a [f32],
}

impl<'a> Layer0PlanView<'a> {
    /// Assembles a view from raw slabs.
    ///
    /// Invariants the caller must uphold: `offsets` holds
    /// `node_count + 1` non-decreasing entry offsets, each in bounds
    /// for `cols`/`vals` (which must have equal lengths over the
    /// addressed span), and each row's columns are strictly ascending.
    /// Production plans come from [`Layer0Plans::view`]; raw assembly
    /// is for kernel tests over hand-made plans.
    #[must_use]
    pub fn from_raw_parts(offsets: &'a [u32], cols: &'a [u32], vals: &'a [f32]) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(*offsets.last().unwrap() as usize <= cols.len());
        debug_assert!(*offsets.last().unwrap() as usize <= vals.len());
        Self {
            offsets,
            cols,
            vals,
        }
    }

    /// Number of node rows.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(columns, values)` entry slices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> (&'a [u32], &'a [f32]) {
        let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (&self.cols[s..e], &self.vals[s..e])
    }

    /// The view's entry offsets (absolute into the entry slices of
    /// [`Layer0PlanView::entries`]'s underlying slabs).
    #[must_use]
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// The whole contiguous `(columns, values)` span covered by this
    /// view.
    #[must_use]
    pub fn entries(&self) -> (&'a [u32], &'a [f32]) {
        let (s, e) = (
            self.offsets[0] as usize,
            *self.offsets.last().unwrap() as usize,
        );
        (&self.cols[s..e], &self.vals[s..e])
    }
}

/// Owned, growable layer-0 plan slabs: one CSR of `S·X` rows (see
/// [`Layer0PlanView`]) over the nodes of a sequence of samples, appended
/// sample by sample by [`Layer0Plans::push_sample`], the one function
/// that computes the plan histogram. It holds a minibatch's plan in the
/// batched trainer.
#[derive(Debug, Clone)]
pub struct Layer0Plans {
    /// `node_count + 1` entry offsets, absolute into `cols`/`vals`.
    offsets: Vec<u32>,
    /// Entry feature columns, ascending per row.
    cols: Vec<u32>,
    /// Entry values (`count · scale`).
    vals: Vec<f32>,
    /// Per-column hit counts of the row being built (all zero between
    /// rows; only touched entries are reset).
    counts: Vec<u32>,
    /// Columns the row being built hits, sorted before emission.
    touched: Vec<u32>,
}

impl Default for Layer0Plans {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer0Plans {
    /// Empty plans; slabs grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Drops every row while keeping slab capacity.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.cols.clear();
        self.vals.clear();
    }

    /// Appends one sample's rows of `S·X`, computed from its adjacency
    /// and two-hot features: per node, the hit counts of the two-hot
    /// columns over the closed neighbourhood (labels clamped on read
    /// like [`OneHotView::columns`]), touched columns sorted ascending,
    /// each value `(count as f32) * scale`.
    ///
    /// # Panics
    ///
    /// Panics when the features and the adjacency disagree on the node
    /// count, or the entry slab would exceed `u32` addressing.
    pub fn push_sample(&mut self, adj: CsrView<'_>, x: OneHotView<'_>) {
        assert_eq!(
            x.rows(),
            adj.node_count(),
            "feature rows disagree with adjacency"
        );
        if self.counts.len() < x.cols() {
            self.counts.resize(x.cols(), 0);
        }
        for i in 0..adj.node_count() {
            let (counts, touched) = (&mut self.counts, &mut self.touched);
            touched.clear();
            let mut hit = |col: usize| {
                if counts[col] == 0 {
                    touched.push(col as u32);
                }
                counts[col] += 1;
            };
            let (g, l) = x.columns(i);
            hit(g);
            hit(l);
            for &j in adj.neighbors(i) {
                let (g, l) = x.columns(j as usize);
                hit(g);
                hit(l);
            }
            touched.sort_unstable();
            let scale = adj.scale(i);
            for &c in touched.iter() {
                self.cols.push(c);
                self.vals.push((counts[c as usize] as f32) * scale);
                counts[c as usize] = 0;
            }
            self.offsets.push(to_u32(self.cols.len()));
        }
    }

    /// Borrowed view of every row.
    #[must_use]
    pub fn view(&self) -> Layer0PlanView<'_> {
        Layer0PlanView::from_raw_parts(&self.offsets, &self.cols, &self.vals)
    }
}

/// A plan entry offset, which must stay addressable as `u32`.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("layer-0 plan slab exceeds u32 addressing")
}

/// Per-sample record: where the sample's runs start inside the slabs.
#[derive(Debug, Clone, Copy)]
struct SampleRec {
    /// Start of the `node_count + 1` relative row offsets in `offsets`.
    off_start: u32,
    /// Start of the node-indexed runs in `scales`/`gate`/`labels`.
    node_start: u32,
    /// Start of the neighbour run in `neighbors`.
    nbr_start: u32,
    /// Number of nodes.
    node_count: u32,
    /// Class label (`true` = positive link) when known.
    label: Option<bool>,
}

/// How [`SampleArena::push_members`] labels a sample's nodes, by their
/// local indices.
#[derive(Debug, Clone, Copy)]
enum Labelling {
    /// DRNL against the two targets of a link sample.
    Drnl(u32, u32),
    /// `1 + distance` from the centre of a node sample.
    Distance(u32),
}

/// Pooled storage for the adjacency and two-hot features of many
/// enclosing-subgraph samples — see the [module docs](self) for layout,
/// streaming and determinism.
#[derive(Debug, Clone, Default)]
pub struct SampleArena {
    /// Concatenated per-sample row offsets (`node_count + 1` entries per
    /// sample, relative to the sample's `nbr_start`).
    offsets: Vec<u32>,
    /// Concatenated normalised (sorted, deduplicated) neighbour runs of
    /// local node indices.
    neighbors: Vec<u32>,
    /// Concatenated per-node propagation scales `1/(1 + deg)`.
    scales: Vec<f32>,
    /// Concatenated per-node gate-type columns.
    gate: Vec<u32>,
    /// Concatenated per-node **raw** DRNL labels (clamped on read).
    labels: Vec<u32>,
    /// One record per sample, in push order.
    recs: Vec<SampleRec>,
    /// Largest raw DRNL label over every stored sample.
    max_label: u32,
    /// Bumped by [`SampleArena::clear`]; handles remember the generation
    /// they were issued under and are rejected afterwards.
    generation: u32,
}

impl SampleArena {
    /// An empty arena; slabs grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Largest raw DRNL label over all stored samples (0 when empty).
    #[must_use]
    pub fn max_label(&self) -> u32 {
        self.max_label
    }

    /// Handle of the `i`-th sample in push order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    #[must_use]
    pub fn nth_handle(&self, i: usize) -> SampleHandle {
        assert!(i < self.recs.len(), "sample index out of range");
        SampleHandle {
            idx: i as u32,
            gen: self.generation,
        }
    }

    /// Record lookup with the staleness check every accessor funnels
    /// through.
    fn rec(&self, h: SampleHandle) -> &SampleRec {
        assert_eq!(
            h.gen, self.generation,
            "stale SampleHandle: the arena was cleared since it was issued"
        );
        &self.recs[h.index()]
    }

    /// Drops every sample while keeping slab capacity — the streaming
    /// reset: refilling after `clear` performs no allocation until a
    /// chunk outgrows the largest chunk seen. Handles issued before the
    /// clear become stale and panic on use (see [`SampleHandle`]).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.neighbors.clear();
        self.scales.clear();
        self.gate.clear();
        self.labels.clear();
        self.recs.clear();
        self.max_label = 0;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Bytes of sample data currently resident (length-based, excluding
    /// unused slab capacity).
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        (self.offsets.len() + self.neighbors.len() + self.gate.len() + self.labels.len()) * 4
            + self.scales.len() * 4
            + self.recs.len() * std::mem::size_of::<SampleRec>()
    }

    /// Number of nodes of a stored sample.
    ///
    /// # Panics
    ///
    /// Panics when `h` is out of range.
    #[must_use]
    pub fn node_count(&self, h: SampleHandle) -> usize {
        self.rec(h).node_count as usize
    }

    /// Class label of a stored sample.
    ///
    /// # Panics
    ///
    /// Panics when `h` is out of range.
    #[must_use]
    pub fn label(&self, h: SampleHandle) -> Option<bool> {
        self.rec(h).label
    }

    /// Borrowed CSR adjacency of a stored sample — the same view type an
    /// owned [`Csr`](crate::csr::Csr) yields, consumed by every GNN
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics when `h` is out of range.
    #[must_use]
    pub fn adj(&self, h: SampleHandle) -> CsrView<'_> {
        let r = self.rec(h);
        let (off, node, nbr, n) = (
            r.off_start as usize,
            r.node_start as usize,
            r.nbr_start as usize,
            r.node_count as usize,
        );
        let offsets = &self.offsets[off..=off + n];
        let nbr_len = offsets[n] as usize;
        CsrView::from_raw_parts(
            offsets,
            &self.neighbors[nbr..nbr + nbr_len],
            &self.scales[node..node + n],
        )
    }

    /// Borrowed two-hot features of a stored sample under the given
    /// dataset label budget (labels beyond it clamp into the last
    /// bucket, as at attack time).
    ///
    /// # Panics
    ///
    /// Panics when `h` is out of range.
    #[must_use]
    pub fn one_hot(&self, h: SampleHandle, max_label: u32) -> OneHotView<'_> {
        let r = self.rec(h);
        let (node, n) = (r.node_start as usize, r.node_count as usize);
        OneHotView::from_raw_parts(
            feature_cols(max_label),
            &self.gate[node..node + n],
            &self.labels[node..node + n],
        )
    }

    /// Extracts the enclosing subgraph of `link` **directly into the
    /// slabs**. Per the paper, the members are the nodes within `h` hops
    /// of either end — targets first, then by distance, truncated to
    /// `max_nodes` (the two targets always survive) — the direct target
    /// edge is dropped (the GNN must never see the answer), and every
    /// node carries its DRNL label. Nothing is allocated per sample
    /// once the slabs have grown.
    ///
    /// # Panics
    ///
    /// Panics when a graph node carries a non-encodable gate type.
    pub fn extract_sample(
        &mut self,
        graph: &CircuitGraph,
        link: Link,
        h: usize,
        max_nodes: Option<usize>,
        label: Option<bool>,
    ) -> SampleHandle {
        subgraph::with_extract_scratch(|scr| {
            let (lf, lg) = subgraph::collect_link_members(scr, graph, link, h, max_nodes);
            self.push_members(scr, graph, link, Labelling::Drnl(lf, lg), label)
        })
    }

    /// Extracts the h-hop neighbourhood of the single node `center`
    /// **directly into the slabs** (key-gate-centric extraction, as used
    /// by OMLA-style attacks on XOR locking): members in (distance,
    /// index) order, truncated to `max_nodes` (the centre always
    /// survives), no edge dropped, each node labelled `1 + distance`
    /// from the centre within the sample (the centre is 1, an
    /// unreachable node 0).
    ///
    /// # Panics
    ///
    /// Panics when a graph node carries a non-encodable gate type.
    pub fn extract_node_sample(
        &mut self,
        graph: &CircuitGraph,
        center: u32,
        h: usize,
        max_nodes: Option<usize>,
        label: Option<bool>,
    ) -> SampleHandle {
        subgraph::with_extract_scratch(|scr| {
            let lc = subgraph::collect_node_members(scr, graph, center, h, max_nodes);
            self.push_members(
                scr,
                graph,
                subgraph::NO_LINK,
                Labelling::Distance(lc),
                label,
            )
        })
    }

    /// The one slab writer behind both extractors: appends the sample
    /// whose members `scr.members` (relabelled by `scr.local_of`) were
    /// just collected — CSR rows without the edge `dropped`, the
    /// `1/(1 + deg)` scales, gate columns and labels — and records it.
    fn push_members(
        &mut self,
        scr: &mut ExtractScratch,
        graph: &CircuitGraph,
        dropped: Link,
        labelling: Labelling,
        label: Option<bool>,
    ) -> SampleHandle {
        let (f, g) = (dropped.a, dropped.b);
        let ExtractScratch {
            dist_f,
            dist_g,
            local_of,
            queue,
            members,
            ..
        } = scr;

        let off_start = self.offsets.len();
        let node_start = self.scales.len();
        let nbr_start = self.neighbors.len();

        // CSR rows, normalised exactly like `CsrBuilder::push_node`
        // (sort + in-place dedup of each freshly written run).
        self.offsets.push(0);
        for &j in members.iter() {
            let row_start = self.neighbors.len();
            self.neighbors.extend(
                graph
                    .adj
                    .neighbors(j as usize)
                    .iter()
                    .filter_map(|&nb| subgraph::local_neighbor(local_of, f, g, j, nb)),
            );
            crate::csr::normalize_run(&mut self.neighbors, row_start);
            self.offsets.push((self.neighbors.len() - nbr_start) as u32);
        }
        self.scales.extend(
            self.offsets[off_start..]
                .windows(2)
                .map(|w| 1.0 / (1.0 + (w[1] - w[0]) as f32)),
        );

        // Features: gate columns now, labels straight into the slab via a
        // view over the rows just written (the distance maps are free
        // again after member collection).
        self.gate.extend(members.iter().map(|&j| {
            graph.gate_types[j as usize]
                .encoding_index()
                .expect("graph nodes are plain encoded gates") as u32
        }));
        let label_start = self.labels.len();
        let adj = CsrView::from_raw_parts(
            &self.offsets[off_start..],
            &self.neighbors[nbr_start..],
            &self.scales[node_start..],
        );
        match labelling {
            Labelling::Drnl(lf, lg) => {
                drnl::drnl_labels_into(adj, lf, lg, dist_f, dist_g, queue, &mut self.labels);
            }
            Labelling::Distance(lc) => {
                drnl::distances_without(adj, lc, u32::MAX, dist_f, queue);
                self.labels.extend(
                    (0..adj.node_count() as u32).map(|j| dist_f.get(j).map_or(0, |d| d + 1)),
                );
            }
        }
        let new_max = self.labels[label_start..].iter().copied().max();
        self.max_label = self.max_label.max(new_max.unwrap_or(0));

        self.assert_addressable();
        self.recs.push(SampleRec {
            off_start: off_start as u32,
            node_start: node_start as u32,
            nbr_start: nbr_start as u32,
            node_count: members.len() as u32,
            label,
        });
        self.nth_handle(self.recs.len() - 1)
    }

    /// Slab positions must stay addressable by the `u32` record fields;
    /// fail loudly at the write, not silently at a later read.
    fn assert_addressable(&self) {
        assert!(
            self.offsets.len() <= u32::MAX as usize
                && self.neighbors.len() <= u32::MAX as usize
                && self.scales.len() <= u32::MAX as usize,
            "arena slab exceeds u32 addressing"
        );
    }

    /// Appends every sample of `other`, preserving order — a flat slab
    /// copy plus per-record base fix-ups. Parallel fills build small
    /// per-range arenas and merge them through this.
    ///
    /// # Panics
    ///
    /// Panics when the merged slabs would exceed `u32` addressing.
    pub fn append(&mut self, other: &SampleArena) {
        let off_base = self.offsets.len() as u32;
        let node_base = self.scales.len() as u32;
        let nbr_base = self.neighbors.len() as u32;
        self.offsets.extend_from_slice(&other.offsets);
        self.neighbors.extend_from_slice(&other.neighbors);
        self.scales.extend_from_slice(&other.scales);
        self.gate.extend_from_slice(&other.gate);
        self.labels.extend_from_slice(&other.labels);
        self.assert_addressable();
        self.recs.extend(other.recs.iter().map(|r| SampleRec {
            off_start: r.off_start + off_base,
            node_start: r.node_start + node_base,
            nbr_start: r.nbr_start + nbr_base,
            ..*r
        }));
        self.max_label = self.max_label.max(other.max_label);
    }

    /// Extracts one sample per job into the arena, **in job order**,
    /// parallelising over fixed sub-ranges of the job list: each
    /// sub-range fills its own local arena (direct slab writes, no
    /// per-sample `Vec`s) and the locals are appended in order. The
    /// resulting slab content is bit-identical to a sequential fill for
    /// any thread count.
    pub fn extend_extract(
        &mut self,
        graph: &CircuitGraph,
        jobs: &[(Link, Option<bool>)],
        h: usize,
        max_nodes: Option<usize>,
    ) {
        /// Jobs per parallel sub-range: large enough to amortise the
        /// local arena's slab allocations, small enough to keep a
        /// typical chunk work-stealable.
        const SUB_RANGE: usize = 64;
        if jobs.len() <= SUB_RANGE {
            for &(link, label) in jobs {
                self.extract_sample(graph, link, h, max_nodes, label);
            }
            return;
        }
        let subs: Vec<&[(Link, Option<bool>)]> = jobs.chunks(SUB_RANGE).collect();
        let locals: Vec<SampleArena> = subs
            .par_iter()
            .map(|sub| {
                let mut local = SampleArena::new();
                for &(link, label) in *sub {
                    local.extract_sample(graph, link, h, max_nodes, label);
                }
                local
            })
            .collect();
        // By value on purpose: each local is dropped right after its
        // slab copy, so transient memory never holds two full copies of
        // the whole fill at once.
        for local in locals {
            self.append(&local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_netlist::{GateId, GateType};

    /// Ring of `n` NOR gates with a few chords for label variety.
    fn ring(n: usize) -> CircuitGraph {
        let mut edges: Vec<Link> = (0..n)
            .map(|i| Link::new(i as u32, ((i + 1) % n) as u32))
            .collect();
        edges.push(Link::new(0, (n / 2) as u32));
        edges.push(Link::new(1, (n / 3) as u32));
        CircuitGraph::from_edges(
            (0..n).map(GateId::from_index).collect(),
            vec![GateType::Nor; n],
            &edges,
        )
    }

    #[test]
    fn append_preserves_samples_and_order() {
        let g = ring(36);
        let all: Vec<(Link, Option<bool>)> = (0..10u32)
            .map(|i| (Link::new(i, (i + 9) % 36), Some(i % 2 == 0)))
            .collect();
        let mut whole = SampleArena::new();
        for &(l, lab) in &all {
            whole.extract_sample(&g, l, 2, None, lab);
        }
        let mut merged = SampleArena::new();
        for part in all.chunks(3) {
            let mut local = SampleArena::new();
            for &(l, lab) in part {
                local.extract_sample(&g, l, 2, None, lab);
            }
            merged.append(&local);
        }
        assert_eq!(whole.len(), merged.len());
        assert_eq!(whole.max_label(), merged.max_label());
        for i in 0..whole.len() {
            let (a, b) = (whole.nth_handle(i), merged.nth_handle(i));
            assert_eq!(whole.adj(a).to_owned_csr(), merged.adj(b).to_owned_csr());
            assert_eq!(
                whole.one_hot(a, 4).to_owned_features(),
                merged.one_hot(b, 4).to_owned_features()
            );
            assert_eq!(whole.label(a), merged.label(b));
        }
    }

    #[test]
    fn extend_extract_is_thread_count_invariant() {
        let g = ring(48);
        let jobs: Vec<(Link, Option<bool>)> = (0..150u32)
            .map(|i| (Link::new(i % 48, (i * 7 + 5) % 48), Some(i % 3 == 0)))
            .filter(|(l, _)| l.a != l.b)
            .collect();
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let mut arena = SampleArena::new();
                    arena.extend_extract(&g, &jobs, 2, Some(20));
                    arena
                })
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.len(), jobs.len());
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.max_label(), par.max_label());
        for i in 0..seq.len() {
            let (a, b) = (seq.nth_handle(i), par.nth_handle(i));
            assert_eq!(seq.adj(a).to_owned_csr(), par.adj(b).to_owned_csr());
            assert_eq!(
                seq.one_hot(a, 6).to_owned_features(),
                par.one_hot(b, 6).to_owned_features()
            );
        }
    }

    #[test]
    fn clear_keeps_capacity_and_resets_content() {
        let g = ring(24);
        let mut arena = SampleArena::new();
        arena.extract_sample(&g, Link::new(0, 7), 3, None, None);
        let bytes = arena.resident_bytes();
        assert!(bytes > 0);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.max_label(), 0);
        assert_eq!(arena.resident_bytes(), 0);
        // Refill after clear: identical content to a fresh arena.
        let h1 = arena.extract_sample(&g, Link::new(0, 7), 3, None, None);
        let mut fresh = SampleArena::new();
        let h2 = fresh.extract_sample(&g, Link::new(0, 7), 3, None, None);
        assert_eq!(arena.adj(h1).to_owned_csr(), fresh.adj(h2).to_owned_csr());
    }

    #[test]
    #[should_panic(expected = "stale SampleHandle")]
    fn stale_handles_panic_after_clear() {
        let g = ring(20);
        let mut arena = SampleArena::new();
        let h = arena.extract_sample(&g, Link::new(0, 5), 2, None, None);
        arena.clear();
        arena.extract_sample(&g, Link::new(1, 6), 2, None, None);
        // Same in-range index, older generation: must panic, not alias.
        let _ = arena.adj(h);
    }

    /// In-test reference for one plan row: the dense row of `S·X`
    /// derived naively from the sample views, with the histogram's
    /// exact `(count as f32) * scale` arithmetic.
    fn reference_plan_row(
        arena: &SampleArena,
        h: SampleHandle,
        max_label: u32,
        i: usize,
    ) -> Vec<(u32, f32)> {
        let adj = arena.adj(h);
        let x = arena.one_hot(h, max_label);
        let mut counts = vec![0u32; feature_cols(max_label)];
        let (g, l) = x.columns(i);
        counts[g] += 1;
        counts[l] += 1;
        for &j in adj.neighbors(i) {
            let (g, l) = x.columns(j as usize);
            counts[g] += 1;
            counts[l] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(c, &n)| (c as u32, (n as f32) * adj.scale(i)))
            .collect()
    }

    #[test]
    fn layer0_plans_match_histogram_reference_bitwise() {
        let g = ring(40);
        let mut arena = SampleArena::new();
        for i in 0..8u32 {
            arena.extract_sample(
                &g,
                Link::new(i, (i + 13) % 40),
                2,
                Some(25),
                Some(i % 2 == 0),
            );
        }
        for budget in [arena.max_label(), 1] {
            for s in 0..arena.len() {
                let h = arena.nth_handle(s);
                let mut plans = Layer0Plans::new();
                plans.push_sample(arena.adj(h), arena.one_hot(h, budget));
                let plan = plans.view();
                assert_eq!(plan.node_count(), arena.node_count(h));
                for i in 0..plan.node_count() {
                    let (cols, vals) = plan.row(i);
                    let expect = reference_plan_row(&arena, h, budget, i);
                    assert_eq!(cols.len(), expect.len(), "sample {s} row {i}");
                    for (k, &(c, v)) in expect.iter().enumerate() {
                        assert_eq!(cols[k], c, "sample {s} row {i}");
                        assert_eq!(vals[k].to_bits(), v.to_bits(), "sample {s} row {i}");
                    }
                }
            }
        }
    }
}
