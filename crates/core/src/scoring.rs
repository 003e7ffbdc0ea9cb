//! Bridging the graph substrate to the GNN: SortPool-`k` selection and
//! streamed target scoring.

use muxlink_gnn::{ArenaSamples, Dgcnn};
use muxlink_graph::dataset::DatasetConfig;
use muxlink_graph::graph::Link;
use muxlink_graph::{ExtractedDesign, SampleArena};

use crate::postprocess::MuxScores;
use crate::progress::Progress;
use crate::AttackError;

/// Scores both candidate links of every key MUX with the trained model.
///
/// D-MUX pairs share wires across MUXes, so the flattened candidate list
/// usually contains repeats; each **distinct** link is extracted and
/// scored exactly once (the model is deterministic, so a repeat would
/// reproduce the same probability bit-for-bit) and the result is
/// broadcast back in order.
///
/// The unique links **stream** through one recycled [`SampleArena`],
/// `ds_cfg.chunk` at a time (`0` = one chunk holding every link): each
/// chunk is extracted directly into the arena slabs, scored through
/// [`Dgcnn::predict_batch`] via handle views, and the arena is cleared —
/// peak resident sample bytes are bounded by the chunk size however
/// many candidate links the design has. Every stage preserves order, so
/// the scores stay aligned with `extracted.muxes` and bit-identical for
/// any thread count, any chunk size — and to scoring owned two-hot
/// samples of every target subgraph at once, the oracle the
/// integration tests pin this against. `progress.cancelled()` is
/// polled between chunks.
///
/// # Errors
///
/// [`AttackError::Cancelled`] when the observer requested a stop;
/// [`AttackError::Internal`] if a candidate link went unscored (a bug —
/// reported instead of panicking in the pipeline hot path).
pub fn score_muxes(
    model: &Dgcnn,
    extracted: &ExtractedDesign,
    ds_cfg: &DatasetConfig,
    max_label: u32,
    progress: &dyn Progress,
) -> Result<MuxScores, AttackError> {
    let links: Vec<Link> = extracted
        .muxes
        .iter()
        .flat_map(|m| [m.link0(), m.link1()])
        .collect();
    let mut unique = links.clone();
    unique.sort_unstable();
    unique.dedup();

    // One arena, recycled per chunk: peak resident sample bytes stay
    // bounded by the chunk size however long the candidate list is.
    let chunk = if ds_cfg.chunk == 0 {
        unique.len().max(1)
    } else {
        ds_cfg.chunk
    };
    let mut unique_probs = Vec::with_capacity(unique.len());
    let mut arena = SampleArena::new();
    for part in unique.chunks(chunk) {
        if progress.cancelled() {
            return Err(AttackError::Cancelled);
        }
        arena.clear();
        let jobs: Vec<(Link, Option<bool>)> = part.iter().map(|&l| (l, None)).collect();
        arena.extend_extract(&extracted.graph, &jobs, ds_cfg.h, ds_cfg.max_subgraph_nodes);
        unique_probs.extend(model.predict_batch(&ArenaSamples::all(&arena, max_label)));
    }

    let prob_of = |l: &Link| -> Result<f64, AttackError> {
        let i = unique
            .binary_search(l)
            .map_err(|_| AttackError::Internal(format!("candidate link {l:?} was not scored")))?;
        Ok(f64::from(unique_probs[i]))
    };
    links
        .chunks_exact(2)
        .map(|p| Ok((prob_of(&p[0])?, prob_of(&p[1])?)))
        .collect()
}

/// Picks the SortPooling size `k` such that `percentile` of the given
/// subgraph sizes are ≤ `k` (paper: 60 %), clamped to at least `min_k`.
#[must_use]
pub fn choose_k(sizes: &[usize], percentile: f64, min_k: usize) -> usize {
    if sizes.is_empty() {
        return min_k;
    }
    let mut sorted: Vec<usize> = sizes.to_vec();
    sorted.sort_unstable();
    let pos = ((sorted.len() as f64 * percentile).ceil() as usize).clamp(1, sorted.len());
    sorted[pos - 1].max(min_k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_k_sixty_percent_rule() {
        // Ten sizes; 60 % of subgraphs must fit in k.
        let sizes = vec![5, 8, 10, 12, 15, 18, 20, 30, 40, 100];
        let k = choose_k(&sizes, 0.6, 10);
        assert_eq!(k, 18);
    }

    #[test]
    fn choose_k_respects_minimum() {
        assert_eq!(choose_k(&[2, 3, 4], 0.6, 10), 10);
        assert_eq!(choose_k(&[], 0.6, 10), 10);
    }

    #[test]
    fn choose_k_full_percentile() {
        assert_eq!(choose_k(&[4, 7, 9], 1.0, 1), 9);
    }
}
