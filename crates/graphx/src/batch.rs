//! Block-diagonal minibatch assembly: many samples, one CSR.
//!
//! The DGCNN propagation operator never mixes rows of different samples,
//! so a minibatch of subgraphs can be packed into **one** graph whose
//! adjacency is block-diagonal: sample `s`'s local node `i` becomes
//! global node `node_starts[s] + i`, every neighbour run is rebased by
//! the same constant, and the per-node propagation scales are copied
//! verbatim. The result is a perfectly ordinary CSR — the GNN kernels
//! run over it unchanged, one call per layer per batch instead of one
//! per layer per sample — and, because each kernel is row-wise, every
//! output row carries exactly the bits the per-sample call would have
//! produced.
//!
//! [`BlockDiagBatch`] is the reusable assembler: [`BlockDiagBatch::push`]
//! appends one sample's borrowed adjacency (owned or arena-backed — both
//! arrive as [`CsrView`], so both storage paths batch identically),
//! [`BlockDiagBatch::clear`] resets while keeping slab capacity, and
//! [`BlockDiagBatch::adj`] yields the whole-batch view. Per-sample row
//! boundaries are retained ([`BlockDiagBatch::node_range`]) for the
//! stages that *are* sample-aware: SortPooling and the segmented
//! gradient reductions. (The first GC layer reads no features from the
//! batch: it runs on the batch's layer-0 plan rows, stacked alongside by
//! the GNN's minibatch.)
//!
//! # Determinism contract
//!
//! Rebasing adds a constant to every neighbour index of a sample, so
//! each run stays sorted and deduplicated — the batch CSR honours the
//! same contract as [`crate::csr::Csr`], and neighbour iteration order
//! within any sample's rows is exactly the per-sample order. Scales are
//! copied bit-for-bit, never recomputed.

use crate::csr::CsrView;

/// Reusable block-diagonal concatenation of a minibatch's samples — see
/// the [module docs](self) for layout and determinism.
#[derive(Debug, Clone)]
pub struct BlockDiagBatch {
    /// Global row offsets (`total_nodes + 1`, cumulative over samples).
    offsets: Vec<u32>,
    /// Concatenated neighbour runs, rebased to global node indices.
    neighbors: Vec<u32>,
    /// Concatenated per-node propagation scales, copied verbatim.
    scales: Vec<f32>,
    /// First global node of each sample (`sample_count + 1` entries).
    node_starts: Vec<u32>,
}

impl Default for BlockDiagBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDiagBatch {
    /// An empty batch; slabs grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            neighbors: Vec::new(),
            scales: Vec::new(),
            node_starts: vec![0],
        }
    }

    /// Drops every sample while keeping slab capacity (the per-batch
    /// reset of the training loop: steady-state refills allocate
    /// nothing).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.neighbors.clear();
        self.scales.clear();
        self.node_starts.clear();
        self.node_starts.push(0);
    }

    /// Number of samples in the batch.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// Total node count over all samples.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no samples have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sample_count() == 0
    }

    /// Global node range `[start, end)` of sample `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn node_range(&self, s: usize) -> std::ops::Range<usize> {
        self.node_starts[s] as usize..self.node_starts[s + 1] as usize
    }

    /// First-global-node table (`sample_count + 1` entries, cumulative).
    #[must_use]
    pub fn node_starts(&self) -> &[u32] {
        &self.node_starts
    }

    /// Appends one sample's adjacency block: neighbour indices rebased
    /// to global node ids, scales verbatim.
    ///
    /// # Panics
    ///
    /// Panics when the neighbour slab would exceed `u32` addressing.
    pub fn push(&mut self, adj: CsrView<'_>) {
        let base = self.node_count() as u32;
        for i in 0..adj.node_count() {
            self.neighbors
                .extend(adj.neighbors(i).iter().map(|&j| base + j));
            self.neighbors
                .len()
                .try_into()
                .map(|len| self.offsets.push(len))
                .expect("batch neighbour slab exceeds u32 addressing");
            self.scales.push(adj.scale(i));
        }
        self.node_starts.push(self.node_count() as u32);
    }

    /// Borrowed CSR adjacency of the whole batch — a valid block-diagonal
    /// graph every GNN kernel consumes unchanged.
    #[must_use]
    pub fn adj(&self) -> CsrView<'_> {
        CsrView::from_raw_parts(&self.offsets, &self.neighbors, &self.scales)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn samples() -> Vec<Csr> {
        vec![
            Csr::from_lists(&[vec![1, 2], vec![0], vec![0]]),
            Csr::from_lists(&[vec![1], vec![0, 2, 3], vec![1], vec![1]]),
            Csr::from_lists(&[vec![], vec![]]),
        ]
    }

    #[test]
    fn blocks_reproduce_per_sample_rows_and_scales() {
        let samples = samples();
        let mut batch = BlockDiagBatch::new();
        for adj in &samples {
            batch.push(adj.view());
        }
        assert_eq!(batch.sample_count(), 3);
        assert_eq!(batch.node_count(), 9);
        let view = batch.adj();
        for (s, adj) in samples.iter().enumerate() {
            let range = batch.node_range(s);
            assert_eq!(range.len(), adj.node_count());
            let base = range.start;
            for i in 0..adj.node_count() {
                let expect: Vec<u32> = adj.neighbors(i).iter().map(|&j| j + base as u32).collect();
                assert_eq!(view.neighbors(base + i), &expect[..]);
                assert_eq!(view.scale(base + i).to_bits(), adj.scale(i).to_bits());
            }
        }
    }

    #[test]
    fn batch_of_one_equals_the_sample() {
        let adj = samples().remove(1);
        let mut batch = BlockDiagBatch::new();
        batch.push(adj.view());
        assert_eq!(batch.adj().to_owned_csr(), adj);
    }

    #[test]
    fn clear_resets_for_reuse() {
        let samples = samples();
        let mut batch = BlockDiagBatch::new();
        for adj in &samples {
            batch.push(adj.view());
        }
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.node_count(), 0);
        // Refill with a different subset: identical to a fresh batch.
        let mut fresh = BlockDiagBatch::new();
        for adj in samples.iter().rev() {
            batch.push(adj.view());
            fresh.push(adj.view());
        }
        assert_eq!(batch.adj().to_owned_csr(), fresh.adj().to_owned_csr());
        assert_eq!(batch.node_starts(), fresh.node_starts());
    }

    #[test]
    fn adjacency_only_batches_supported() {
        let samples = samples();
        let mut batch = BlockDiagBatch::new();
        for adj in &samples {
            batch.push(adj.view());
        }
        assert_eq!(batch.node_count(), 9);
        assert_eq!(batch.adj().node_count(), 9);
    }
}
