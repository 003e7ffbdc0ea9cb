//! Key-recovery post-processing (paper §III-E, Algorithm 1).
//!
//! The attacker groups the key MUXes into the localities the defenses
//! construct — two MUXes sharing the same unordered data-wire pair form an
//! S1/S4/S5-style pair; a lone MUX is an S2/S3-style single — and converts
//! the GNN likelihood scores into key bits with a decision threshold `th`.
//! Bits whose evidence is weaker than `th` are reported as `X`
//! (no decision), which the precision metric counts as non-wrong.

use muxlink_graph::{ExtractedDesign, MuxCandidate};
use muxlink_locking::KeyValue;

/// Per-MUX likelihood scores: `(l0, l1)` for the links selected by key
/// values 0 and 1 respectively.
pub type MuxScores = Vec<(f64, f64)>;

/// Runs Algorithm 1 over the scored design and returns one [`KeyValue`]
/// per key bit.
///
/// `scores[i]` must correspond to `extracted.muxes[i]`. Bits not covered
/// by any MUX (impossible for well-formed designs) stay `X`.
///
/// # Panics
///
/// Panics when `scores.len() != extracted.muxes.len()`.
#[must_use]
pub fn recover_key(
    extracted: &ExtractedDesign,
    scores: &MuxScores,
    key_len: usize,
    th: f64,
) -> Vec<KeyValue> {
    assert_eq!(
        scores.len(),
        extracted.muxes.len(),
        "one score pair per MUX required"
    );
    let mut key = vec![KeyValue::X; key_len];
    for group in group_localities(&extracted.muxes) {
        match group {
            Grouped::Pair(i, j) => {
                decide_pair(
                    &extracted.muxes[i],
                    scores[i],
                    &extracted.muxes[j],
                    scores[j],
                    th,
                    &mut key,
                );
            }
            Grouped::Single(i) => {
                let m = &extracted.muxes[i];
                let (l0, l1) = scores[i];
                let delta = (l0 - l1).abs();
                if delta >= th && l0 != l1 {
                    key[m.key_bit] = if l0 > l1 {
                        KeyValue::Zero
                    } else {
                        KeyValue::One
                    };
                }
            }
        }
    }
    key
}

enum Grouped {
    Pair(usize, usize),
    Single(usize),
}

/// Groups MUX indices into pairs sharing the same unordered data-source
/// set; leftovers are singles.
fn group_localities(muxes: &[MuxCandidate]) -> Vec<Grouped> {
    let mut by_sources: std::collections::HashMap<(u32, u32), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, m) in muxes.iter().enumerate() {
        let key = if m.src0 <= m.src1 {
            (m.src0, m.src1)
        } else {
            (m.src1, m.src0)
        };
        by_sources.entry(key).or_default().push(i);
    }
    let mut groups: Vec<Grouped> = Vec::new();
    let mut entries: Vec<_> = by_sources.into_iter().collect();
    entries.sort_by_key(|(k, _)| *k);
    for (_, mut idxs) in entries {
        idxs.sort_unstable();
        // Pop pairs off the tail; a leftover below two is a single.
        while let [.., i, j] = idxs[..] {
            idxs.truncate(idxs.len() - 2);
            groups.push(Grouped::Pair(i, j));
        }
        for i in idxs {
            groups.push(Grouped::Single(i));
        }
    }
    groups
}

/// Algorithm 1 for a paired locality: pick the MUX with the larger
/// likelihood gap, let it choose its own wire, and force the partner onto
/// the *other* wire of the shared pair.
fn decide_pair(
    mi: &MuxCandidate,
    (li0, li1): (f64, f64),
    mj: &MuxCandidate,
    (lj0, lj1): (f64, f64),
    th: f64,
    key: &mut [KeyValue],
) {
    let d1 = (li0 - li1).abs();
    let d2 = (lj0 - lj1).abs();
    if d1 < th && d2 < th {
        return; // both X (Algorithm 1 lines 18–19)
    }
    if d1 == d2 {
        return; // exact tie: Algorithm 1 lines 16–17 abstain
    }
    // Winner chooses the wire with the larger likelihood; partner crosses.
    let (winner, wi_scores, partner) = if d1 > d2 {
        (mi, (li0, li1), mj)
    } else {
        (mj, (lj0, lj1), mi)
    };
    let winner_src = if wi_scores.0 > wi_scores.1 {
        key[winner.key_bit] = KeyValue::Zero;
        winner.src0
    } else {
        key[winner.key_bit] = KeyValue::One;
        winner.src1
    };
    // The defenses interconnect true cones: the partner passes the other
    // wire of the shared pair.
    let partner_value = if partner.src0 == winner_src {
        // partner's 0-wire is the one the winner consumed → partner is 1.
        KeyValue::One
    } else {
        KeyValue::Zero
    };
    if winner.key_bit == partner.key_bit {
        // S4: one bit drives both MUXes — the winner already set it, and
        // by construction the partner agrees.
        return;
    }
    key[partner.key_bit] = partner_value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_graph::graph::{CircuitGraph, Link};
    use muxlink_netlist::{GateId, GateType};

    /// Builds a dummy extracted design with the given MUX candidates
    /// (graph content is irrelevant for post-processing).
    fn design(muxes: Vec<MuxCandidate>) -> ExtractedDesign {
        let n = 8;
        ExtractedDesign {
            graph: CircuitGraph::from_edges(
                (0..n).map(GateId::from_index).collect(),
                vec![GateType::And; n],
                &[Link::new(0, 1)],
            ),
            muxes,
        }
    }

    fn mux(key_bit: usize, sink: u32, src0: u32, src1: u32) -> MuxCandidate {
        MuxCandidate {
            mux_gate: GateId::from_index(100 + key_bit),
            key_bit,
            sink,
            src0,
            src1,
        }
    }

    #[test]
    fn single_mux_high_l0_gives_zero() {
        let d = design(vec![mux(0, 5, 1, 2)]);
        let key = recover_key(&d, &vec![(0.9, 0.2)], 1, 0.01);
        assert_eq!(key, vec![KeyValue::Zero]);
        let key = recover_key(&d, &vec![(0.1, 0.8)], 1, 0.01);
        assert_eq!(key, vec![KeyValue::One]);
    }

    #[test]
    fn single_mux_below_threshold_is_x() {
        let d = design(vec![mux(0, 5, 1, 2)]);
        let key = recover_key(&d, &vec![(0.50, 0.505)], 1, 0.01);
        assert_eq!(key, vec![KeyValue::X]);
    }

    #[test]
    fn paper_worked_example() {
        // Fig. 5 ⑥: δ1 = |1.0 − 0.8| = 0.2, δ2 = |0.9 − 0.4| = 0.5 with
        // th = 0.01 ⇒ the second MUX decides; its higher link passes the
        // true wire and the partner crosses.
        // Encode: m_i (bit 0) sources {A=1, B=2}: l(A→gi)=1.0, l(B→gi)=0.8.
        // m_j (bit 1) sources {B=2, A=1} with l0 = l(B→gj)=0.9 (bit 1 = 0
        // passes B? — we wire src0 = 2), l1 = l(A→gj)=0.4.
        let d = design(vec![mux(0, 5, 1, 2), mux(1, 6, 2, 1)]);
        let key = recover_key(&d, &vec![(1.0, 0.8), (0.9, 0.4)], 2, 0.01);
        // Winner m_j: l0 > l1 ⇒ bit1 = 0 (passes src0 = node 2 = B).
        // Partner m_i must pass A (node 1) = its src0 ⇒ bit0 = 0.
        assert_eq!(key, vec![KeyValue::Zero, KeyValue::Zero]);
    }

    #[test]
    fn pair_below_threshold_is_xx() {
        let d = design(vec![mux(0, 5, 1, 2), mux(1, 6, 2, 1)]);
        let key = recover_key(&d, &vec![(0.5, 0.5), (0.6, 0.6)], 2, 0.01);
        assert_eq!(key, vec![KeyValue::X, KeyValue::X]);
    }

    #[test]
    fn pair_partner_crosses_even_when_its_own_scores_disagree() {
        // The winner's evidence overrides the partner's weaker scores.
        let d = design(vec![mux(0, 5, 1, 2), mux(1, 6, 2, 1)]);
        // m0 strongly favours link1 (src 2). Partner m1 must take src 1,
        // which is its src1 ⇒ bit1 = 1, even though m1's own scores lean 0.
        let key = recover_key(&d, &vec![(0.1, 0.95), (0.60, 0.55)], 2, 0.01);
        assert_eq!(key, vec![KeyValue::One, KeyValue::One]);
    }

    #[test]
    fn s4_shared_key_bit_set_once() {
        let d = design(vec![mux(0, 5, 1, 2), mux(0, 6, 2, 1)]);
        let key = recover_key(&d, &vec![(0.9, 0.1), (0.8, 0.3)], 1, 0.01);
        assert_eq!(key, vec![KeyValue::Zero]);
    }

    #[test]
    fn strict_threshold_abstains_everywhere() {
        let d = design(vec![mux(0, 5, 1, 2), mux(1, 6, 2, 1), mux(2, 7, 3, 4)]);
        let key = recover_key(
            &d,
            &vec![(0.9, 0.1), (0.7, 0.2), (0.99, 0.01)],
            3,
            1.1, // above any possible likelihood gap
        );
        assert_eq!(key, vec![KeyValue::X; 3]);
    }
}
