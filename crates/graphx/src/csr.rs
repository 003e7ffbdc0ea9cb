//! Flat compressed-sparse-row (CSR) adjacency — the shared graph layout of
//! the whole pipeline.
//!
//! Every graph in the attack (the full circuit graph, every enclosing
//! subgraph, every GNN input sample) stores its adjacency as two flat
//! vectors: `offsets[i]..offsets[i + 1]` indexes node `i`'s neighbour run
//! inside `neighbors`. Compared to `Vec<Vec<u32>>` this removes one heap
//! allocation *per node* and one pointer chase per row — on the
//! single-core scoring path, where thousands of subgraphs stream through
//! the DGCNN per attack, allocation pressure and cache misses are the
//! dominant cost.
//!
//! The per-node propagation scale `1/(1 + deg)` of the DGCNN operator
//! `S = D̃⁻¹(A + I)` is precomputed at construction so the hot kernels
//! never recompute degrees. It is derived state: serialisation writes
//! only `offsets` and `neighbors`, and deserialisation recomputes it.
//!
//! # Determinism contract
//!
//! A [`Csr`] stores each neighbour run **sorted ascending and
//! deduplicated**; [`CsrBuilder::push_node`] and [`Csr::from_lists`]
//! normalise their input. Iteration order over neighbours is therefore a
//! pure function of the graph, never of construction order, thread count
//! or hash state — the GNN kernels sum in this order, which is what keeps
//! scores bit-identical across runs and thread counts.

use serde::{map_get, DeError, Deserialize, Serialize, Value};

/// Flat CSR adjacency with precomputed `1/(1 + deg)` propagation scales.
///
/// See the [module docs](self) for the layout and determinism contract.
/// Deserialising checks every invariant the kernels rely on and fails
/// with a [`DeError`] naming the field, so a tampered checkpoint is
/// refused on load instead of panicking (or scoring wrongly) later.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `node_count() + 1` row offsets into `neighbors`.
    offsets: Vec<u32>,
    /// Concatenated neighbour runs, each sorted ascending, deduplicated.
    neighbors: Vec<u32>,
    /// Per-node `1/(1 + degree)` — the DGCNN propagation scale.
    scales: Vec<f32>,
}

/// Writes `offsets` and `neighbors`; the scales are derived from the
/// offsets on decode.
impl Serialize for Csr {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("offsets".to_owned(), self.offsets.to_value()),
            ("neighbors".to_owned(), self.neighbors.to_value()),
        ])
    }
}

/// Reads `offsets` and `neighbors` and recomputes the scales. A
/// `scales` array — written by earlier versions — must hold exactly the
/// recomputed bits.
impl Deserialize for Csr {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let offsets: Vec<u32> = Vec::from_value(map_get(v, "offsets")?)?;
        let neighbors: Vec<u32> = Vec::from_value(map_get(v, "neighbors")?)?;
        check_layout(&offsets, &neighbors).map_err(|e| DeError(format!("csr {e}")))?;
        let csr = Self {
            scales: scales_of(&offsets),
            offsets,
            neighbors,
        };
        if let Ok(stored) = map_get(v, "scales") {
            csr.check_stored_scales(&Vec::from_value(stored)?)
                .map_err(|e| DeError(format!("csr {e}")))?;
        }
        Ok(csr)
    }
}

/// The layout invariants: `offsets` start at 0, never decrease and end
/// at `neighbors.len()`; every neighbour run is sorted, deduplicated and
/// below the node count.
fn check_layout(offsets: &[u32], neighbors: &[u32]) -> Result<(), String> {
    if offsets.first() != Some(&0) {
        return Err("`offsets` must start at 0".into());
    }
    let n = offsets.len() - 1;
    let last = offsets[n];
    if last as usize != neighbors.len() {
        return Err(format!(
            "`offsets` end at {last}, but `neighbors` holds {}",
            neighbors.len()
        ));
    }
    if let Some(i) = offsets.windows(2).position(|w| w[1] < w[0]) {
        return Err(format!("`offsets` decrease after entry {i}"));
    }
    for (i, w) in offsets.windows(2).enumerate() {
        let run = &neighbors[w[0] as usize..w[1] as usize];
        if let Some(&j) = run.iter().find(|&&j| j as usize >= n) {
            return Err(format!(
                "`neighbors` of node {i} hold {j}, not below the node count {n}"
            ));
        }
        if run.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!(
                "`neighbors` of node {i} are not sorted and deduplicated"
            ));
        }
    }
    Ok(())
}

/// The propagation scale `1/(1 + degree)` of every node of `offsets`.
fn scales_of(offsets: &[u32]) -> Vec<f32> {
    offsets
        .windows(2)
        .map(|w| 1.0 / (1.0 + (w[1] - w[0]) as f32))
        .collect()
}

impl Csr {
    /// A stored `scales` array must hold one entry per node, each with
    /// the bits of `1 / (1 + degree)`.
    fn check_stored_scales(&self, stored: &[f32]) -> Result<(), String> {
        let n = self.node_count();
        if stored.len() != n {
            return Err(format!(
                "`scales` holds {} entries for {n} nodes",
                stored.len()
            ));
        }
        match stored
            .iter()
            .zip(&self.scales)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            Some(i) => Err(format!(
                "`scales[{i}]` is {}, not 1 / (1 + degree {})",
                stored[i],
                self.degree(i)
            )),
            None => Ok(()),
        }
    }
}

impl Default for Csr {
    fn default() -> Self {
        Self::empty()
    }
}

impl Csr {
    /// The zero-node graph.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            offsets: vec![0],
            neighbors: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each stored in both directions).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Total stored neighbour entries (`Σ degree`).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Sorted neighbour run of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Precomputed propagation scale `1/(1 + degree(i))`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn scale(&self, i: usize) -> f32 {
        self.scales[i]
    }

    /// Whether the edge `(a, b)` is present (binary search on the sorted
    /// run).
    ///
    /// # Panics
    ///
    /// Panics when `a` is out of range.
    #[must_use]
    pub fn contains_edge(&self, a: u32, b: u32) -> bool {
        self.neighbors(a as usize).binary_search(&b).is_ok()
    }

    /// Borrowed view of the whole graph — the form every GNN kernel
    /// consumes (see [`CsrView`]).
    #[must_use]
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            neighbors: &self.neighbors,
            scales: &self.scales,
        }
    }

    /// Iterator over the neighbour run of every node, in node order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.neighbors[w[0] as usize..w[1] as usize])
    }

    /// Builds from per-node adjacency lists, normalising each list
    /// (sort + dedup) per the determinism contract.
    ///
    /// # Panics
    ///
    /// Panics when a neighbour index is out of range.
    #[must_use]
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut b = CsrBuilder::with_capacity(lists.len(), lists.iter().map(Vec::len).sum());
        for row in lists {
            b.push_node(row.iter().copied());
        }
        b.finish()
    }

    /// Expands back into per-node adjacency lists (test/debug helper; the
    /// inverse of [`Csr::from_lists`] for already-normalised input).
    #[must_use]
    pub fn to_lists(&self) -> Vec<Vec<u32>> {
        self.iter().map(<[u32]>::to_vec).collect()
    }
}

/// Normalises the freshly appended run `buf[start..]` in place — sort
/// ascending, dedup, truncate. The **one** implementation of the
/// determinism contract's run normalisation, shared by
/// [`CsrBuilder::push_node`] and the sample arena's direct slab writes
/// so the two storage paths cannot drift apart.
pub(crate) fn normalize_run(buf: &mut Vec<u32>, start: usize) {
    let seg = &mut buf[start..];
    seg.sort_unstable();
    // In-place dedup of the new segment.
    let mut keep = 0usize;
    for i in 0..seg.len() {
        if i == 0 || seg[i] != seg[keep - 1] {
            seg[keep] = seg[i];
            keep += 1;
        }
    }
    buf.truncate(start + keep);
}

/// A borrowed CSR adjacency: the same three flat arrays as [`Csr`], but
/// as slices — either a whole owned [`Csr`] (via [`Csr::view`]) or one
/// sample's rows inside a pooled [`crate::arena::SampleArena`] slab.
///
/// Offsets are relative to the start of `neighbors` (the first offset is
/// always 0), so a view over an arena sample reads exactly like a view
/// over an owned graph. All GNN kernels consume this type; the values a
/// view yields are identical whether it borrows an owned `Csr` or an
/// arena slab, which is what keeps the two storage paths bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrView<'a> {
    offsets: &'a [u32],
    neighbors: &'a [u32],
    scales: &'a [f32],
}

impl<'a> CsrView<'a> {
    /// Assembles a view from raw slab slices (crate-internal: only the
    /// owned [`Csr`] and the sample arena know the layout invariants).
    ///
    /// `offsets` must hold `n + 1` non-decreasing values starting at 0,
    /// `neighbors` the concatenated sorted runs they index, and `scales`
    /// one `1/(1 + deg)` entry per node.
    pub(crate) fn from_raw_parts(
        offsets: &'a [u32],
        neighbors: &'a [u32],
        scales: &'a [f32],
    ) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(offsets.len(), scales.len() + 1);
        Self {
            offsets,
            neighbors,
            scales,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Sorted neighbour run of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &'a [u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Precomputed propagation scale `1/(1 + degree(i))`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn scale(&self, i: usize) -> f32 {
        self.scales[i]
    }

    /// Total stored neighbour entries (`Σ degree`).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Copies the view into an owned [`Csr`] (test/debug helper).
    #[must_use]
    pub fn to_owned_csr(&self) -> Csr {
        Csr {
            offsets: self.offsets.to_vec(),
            neighbors: self.neighbors.to_vec(),
            scales: self.scales.to_vec(),
        }
    }
}

impl<'a> From<&'a Csr> for CsrView<'a> {
    fn from(csr: &'a Csr) -> Self {
        csr.view()
    }
}

/// Incremental [`Csr`] construction, one node at a time.
///
/// Rows are appended in node order into the flat buffers — no per-node
/// heap allocation. Each pushed run is normalised in place (sorted,
/// deduplicated), so the finished CSR honours the determinism contract
/// regardless of the order neighbours were discovered in.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl CsrBuilder {
    /// Builder pre-sized for `nodes` nodes and `entries` neighbour
    /// entries.
    #[must_use]
    pub fn with_capacity(nodes: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Self {
            offsets,
            neighbors: Vec::with_capacity(entries),
        }
    }

    /// Number of nodes pushed so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends the next node's neighbours (any order, duplicates allowed;
    /// normalised here).
    pub fn push_node(&mut self, nbrs: impl IntoIterator<Item = u32>) {
        let start = *self.offsets.last().expect("offsets never empty") as usize;
        self.neighbors.extend(nbrs);
        normalize_run(&mut self.neighbors, start);
        self.offsets.push(self.neighbors.len() as u32);
    }

    /// Finalises the CSR, computing the propagation scales.
    ///
    /// # Panics
    ///
    /// Panics when any neighbour index is `>=` the number of pushed nodes.
    #[must_use]
    pub fn finish(self) -> Csr {
        let n = self.offsets.len() - 1;
        assert!(
            self.neighbors.iter().all(|&j| (j as usize) < n),
            "neighbour index out of range"
        );
        Csr {
            scales: scales_of(&self.offsets),
            offsets: self.offsets,
            neighbors: self.neighbors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_round_trips() {
        let lists = vec![vec![1, 2], vec![0], vec![0, 3], vec![2]];
        let csr = Csr::from_lists(&lists);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.to_lists(), lists);
    }

    #[test]
    fn builder_normalises_rows() {
        let mut b = CsrBuilder::with_capacity(2, 4);
        b.push_node([1, 1, 1]);
        b.push_node([0, 0]);
        let csr = b.finish();
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0]);
        assert_eq!(csr.degree(0), 1);
    }

    #[test]
    fn scales_are_inverse_one_plus_degree() {
        let csr = Csr::from_lists(&[vec![1, 2], vec![0], vec![0], vec![]]);
        assert_eq!(csr.scale(0), 1.0 / 3.0);
        assert_eq!(csr.scale(1), 0.5);
        assert_eq!(csr.scale(3), 1.0);
    }

    #[test]
    fn contains_edge_uses_sorted_runs() {
        let csr = Csr::from_lists(&[vec![2, 1], vec![0], vec![0]]);
        assert!(csr.contains_edge(0, 1));
        assert!(csr.contains_edge(0, 2));
        assert!(!csr.contains_edge(1, 2));
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::empty();
        assert!(csr.is_empty());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(Csr::default(), csr);
    }

    #[test]
    fn iter_yields_rows_in_node_order() {
        let csr = Csr::from_lists(&[vec![1], vec![0, 2], vec![1]]);
        let rows: Vec<&[u32]> = csr.iter().collect();
        assert_eq!(rows, vec![&[1][..], &[0, 2][..], &[1][..]]);
    }

    #[test]
    fn serde_round_trip() {
        let csr = Csr::from_lists(&[vec![1], vec![0]]);
        let json = serde_json::to_string(&csr).unwrap();
        let back: Csr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, csr);
    }

    #[test]
    #[should_panic(expected = "neighbour index out of range")]
    fn out_of_range_neighbour_rejected() {
        let _ = Csr::from_lists(&[vec![5]]);
    }
}
