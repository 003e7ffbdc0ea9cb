//! Per-worker, epoch-stamped dense scratch for the extraction hot loop.
//!
//! Subgraph extraction runs thousands of times per attack (every sampled
//! training link, every candidate link at scoring time). The per-call
//! `HashMap` node relabelling and freshly allocated BFS distance vectors
//! it used to perform were the last hash lookups and heap allocations in
//! that loop. A [`StampedMap`] replaces both: a dense `Vec<u32>` of
//! values plus a parallel `Vec<u32>` of epoch stamps. "Clearing" the map
//! is one epoch increment — O(1), no memset — and lookups are two array
//! reads with no hashing.
//!
//! One [`ExtractScratch`] lives per worker thread (a `thread_local!` in
//! [`crate::subgraph`]); buffers grow to the largest graph seen and are
//! reused for every subsequent extraction. Results are a pure function of
//! the inputs — the scratch never leaks state between extractions — so
//! output stays bit-identical to the hash-map extraction oracles of the
//! integration-test crate (property-tested).

use std::collections::VecDeque;

/// A dense `u32 → u32` map over node indices with O(1) epoch-based reset.
///
/// An entry is present iff its stamp equals the current epoch;
/// [`StampedMap::begin`] bumps the epoch, invalidating every entry
/// without touching memory (the rare `u32` wrap-around zero-fills the
/// stamps once to keep stale epochs from matching).
#[derive(Debug, Default)]
pub(crate) struct StampedMap {
    epoch: u32,
    stamp: Vec<u32>,
    value: Vec<u32>,
}

impl StampedMap {
    /// Starts a fresh map over the domain `0..n`: grows the backing
    /// arrays if needed and invalidates all previous entries.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.value.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could equal the new epoch; clear once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, key: u32, value: u32) {
        self.stamp[key as usize] = self.epoch;
        self.value[key as usize] = value;
    }

    #[inline]
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.stamp[key as usize] == self.epoch
    }

    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        if self.contains(key) {
            Some(self.value[key as usize])
        } else {
            None
        }
    }
}

/// Everything one worker needs to extract subgraphs without hashing or
/// per-call allocation: two stamped distance maps (one per BFS source),
/// the global→local relabelling map, the shared BFS queue and the two
/// visit-order lists.
#[derive(Debug, Default)]
pub(crate) struct ExtractScratch {
    /// BFS distances from the first target (also reused for the local
    /// DRNL BFS from `f`).
    pub(crate) dist_f: StampedMap,
    /// BFS distances from the second target (reused for DRNL from `g`).
    pub(crate) dist_g: StampedMap,
    /// Global node index → local subgraph index.
    pub(crate) local_of: StampedMap,
    /// Shared BFS frontier.
    pub(crate) queue: VecDeque<u32>,
    /// Nodes reached by the first BFS, in visit order.
    pub(crate) visited_f: Vec<u32>,
    /// Nodes reached by the second BFS, in visit order.
    pub(crate) visited_g: Vec<u32>,
    /// Member nodes of the subgraph under extraction, in local-index
    /// order (filled by `subgraph::collect_link_members` or
    /// `subgraph::collect_node_members`).
    pub(crate) members: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_invalidates_without_clearing() {
        let mut m = StampedMap::default();
        m.begin(4);
        m.insert(2, 7);
        assert_eq!(m.get(2), Some(7));
        assert!(!m.contains(0));
        m.begin(4);
        assert_eq!(m.get(2), None, "epoch bump must invalidate");
        m.insert(2, 9);
        assert_eq!(m.get(2), Some(9));
    }

    #[test]
    fn begin_grows_domain() {
        let mut m = StampedMap::default();
        m.begin(2);
        m.insert(1, 1);
        m.begin(10);
        assert!(!m.contains(9));
        m.insert(9, 3);
        assert_eq!(m.get(9), Some(3));
    }
}
