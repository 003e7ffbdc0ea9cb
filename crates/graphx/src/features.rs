//! Step ④: node information matrix construction.
//!
//! Each subgraph node gets an 8-bit one-hot of its Boolean function
//! concatenated with a one-hot of its DRNL label. The label dimension is a
//! dataset-wide constant (the largest label observed), exactly as in the
//! paper ("the dimension of X depends on the largest assigned label in a
//! given dataset").
//!
//! X is therefore **two-hot by construction**: exactly one gate-type bit
//! and one label bit per row. [`OneHotFeatures`] is the first-class sparse
//! representation — 8 bytes per node instead of `4 · cols` — and the
//! dense [`FeatureMatrix`] is derived from it ([`OneHotFeatures::to_dense`]
//! is the single source of truth for the dense layout). Extraction writes
//! the two columns of every node straight into a
//! [`SampleArena`](crate::arena::SampleArena), labels raw;
//! [`OneHotView`] reads them under a dataset's label budget.

use muxlink_netlist::GATE_TYPE_COUNT;

/// Row-major dense feature matrix (`rows × cols`) of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    /// Number of rows (subgraph nodes).
    pub rows: usize,
    /// Number of columns (8 + max_label + 1).
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl FeatureMatrix {
    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }
}

/// Number of feature columns for a dataset whose largest DRNL label is
/// `max_label`: the 8 gate-type bits plus labels `0..=max_label`.
#[must_use]
pub fn feature_cols(max_label: u32) -> usize {
    GATE_TYPE_COUNT + max_label as usize + 1
}

/// Compact sparse form of the node information matrix X.
///
/// Row `i` of the dense X has exactly two nonzero entries, both `1.0`:
/// column `gate[i]` (the gate-type one-hot, `< GATE_TYPE_COUNT`) and
/// column `GATE_TYPE_COUNT + label[i]` (the DRNL-label one-hot, already
/// clamped into the dataset's label budget). Storing the two column
/// indices costs 8 bytes per node, independent of the dataset's feature
/// width — versus `4 · cols` bytes per dense row — and lets the first GNN
/// layer compute `X·W` as a two-row gather instead of a dense matmul.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotFeatures {
    /// Width of the equivalent dense matrix (`8 + max_label + 1`).
    pub cols: usize,
    /// Per-node gate-type column (`< GATE_TYPE_COUNT`).
    pub gate: Vec<u32>,
    /// Per-node label column offset (clamped; dense column is
    /// `GATE_TYPE_COUNT + label[i]`).
    pub label: Vec<u32>,
}

impl OneHotFeatures {
    /// Builds from explicit per-node column indices.
    ///
    /// # Panics
    ///
    /// Panics when the vectors disagree in length, a gate index is not a
    /// valid gate-type column, or a label column falls outside `cols`.
    #[must_use]
    pub fn new(cols: usize, gate: Vec<u32>, label: Vec<u32>) -> Self {
        assert_eq!(gate.len(), label.len(), "row count mismatch");
        assert!(
            gate.iter().all(|&g| (g as usize) < GATE_TYPE_COUNT),
            "gate column out of range"
        );
        assert!(
            label.iter().all(|&l| GATE_TYPE_COUNT + (l as usize) < cols),
            "label column out of range"
        );
        Self { cols, gate, label }
    }

    /// Number of rows (subgraph nodes).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.gate.len()
    }

    /// The two dense column indices of row `i` — equivalently, the two
    /// rows of a weight matrix `W` whose sum is row `i` of `X·W`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn columns(&self, i: usize) -> (usize, usize) {
        (
            self.gate[i] as usize,
            GATE_TYPE_COUNT + self.label[i] as usize,
        )
    }

    /// Borrowed view of these features — the form the GNN kernels
    /// consume (see [`OneHotView`]).
    #[must_use]
    pub fn view(&self) -> OneHotView<'_> {
        OneHotView {
            cols: self.cols,
            gate: &self.gate,
            label: &self.label,
        }
    }

    /// Expands into the equivalent dense [`FeatureMatrix`] — the single
    /// source of truth for the dense layout.
    #[must_use]
    pub fn to_dense(&self) -> FeatureMatrix {
        let cols = self.cols;
        let mut data = vec![0.0f32; self.rows() * cols];
        for (i, row) in data.chunks_exact_mut(cols).enumerate() {
            let (g, l) = self.columns(i);
            row[g] = 1.0;
            row[l] = 1.0;
        }
        FeatureMatrix {
            rows: self.rows(),
            cols,
            data,
        }
    }
}

/// A borrowed two-hot feature matrix: per-node gate and DRNL-label
/// columns as slices, either from an owned [`OneHotFeatures`] (via
/// [`OneHotFeatures::view`]) or from one sample's rows inside a pooled
/// [`crate::arena::SampleArena`] slab.
///
/// The label slice may hold **raw** (unclamped) DRNL labels — the arena
/// stores them that way so one slab serves any label budget —
/// so [`OneHotView::columns`] clamps labels beyond the budget into the
/// last label bucket. For a view over an owned `OneHotFeatures` (already
/// clamped) the clamp is a no-op, so both storage paths yield identical
/// column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneHotView<'a> {
    cols: usize,
    gate: &'a [u32],
    label: &'a [u32],
}

impl<'a> OneHotView<'a> {
    /// Assembles a view from raw slices (crate-internal: the owned type
    /// and the sample arena know the layout invariants). `cols` must be
    /// at least `GATE_TYPE_COUNT + 1` and every gate column must be a
    /// valid gate-type index.
    pub(crate) fn from_raw_parts(cols: usize, gate: &'a [u32], label: &'a [u32]) -> Self {
        debug_assert_eq!(gate.len(), label.len());
        debug_assert!(cols > GATE_TYPE_COUNT);
        Self { cols, gate, label }
    }

    /// Number of rows (subgraph nodes).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.gate.len()
    }

    /// Width of the equivalent dense matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The two dense column indices of row `i` (labels beyond the budget
    /// clamp into the last bucket, as at attack time).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn columns(&self, i: usize) -> (usize, usize) {
        let budget = self.cols - GATE_TYPE_COUNT - 1;
        (
            self.gate[i] as usize,
            GATE_TYPE_COUNT + (self.label[i] as usize).min(budget),
        )
    }

    /// Copies the view into an owned [`OneHotFeatures`] (labels clamped).
    #[must_use]
    pub fn to_owned_features(&self) -> OneHotFeatures {
        let budget = (self.cols - GATE_TYPE_COUNT - 1) as u32;
        OneHotFeatures {
            cols: self.cols,
            gate: self.gate.to_vec(),
            label: self.label.iter().map(|&l| l.min(budget)).collect(),
        }
    }
}

impl<'a> From<&'a OneHotFeatures> for OneHotView<'a> {
    fn from(x: &'a OneHotFeatures) -> Self {
        x.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_follow_max_label() {
        assert_eq!(feature_cols(0), 9);
        assert_eq!(feature_cols(7), 16);
    }

    #[test]
    fn constructor_validates_columns() {
        let ok = OneHotFeatures::new(10, vec![0, 7], vec![1, 0]);
        assert_eq!(ok.rows(), 2);
        assert_eq!(ok.columns(0), (0, 9));
    }

    #[test]
    #[should_panic(expected = "label column out of range")]
    fn constructor_rejects_wide_label() {
        let _ = OneHotFeatures::new(9, vec![0], vec![1]);
    }
}
