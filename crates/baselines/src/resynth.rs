//! Per-key-bit constant-propagation features shared by SWEEP and SCOPE.
//!
//! Each cofactor is produced by [`muxlink_netlist::opt::resynthesize`],
//! which since the pass-framework refactor is a thin pinned recipe over
//! the fold sweep of [`muxlink_netlist::passes`] (every rule family in
//! one sweep, plus dead-logic stripping). The recipe is bit-compatible
//! with the historical monolithic sweep, so the feature deltas these
//! attacks consume are unchanged.

use std::collections::HashMap;

use muxlink_netlist::stats::NetlistStats;
use muxlink_netlist::{Netlist, NetlistError};

/// The features of both cofactors of one key bit.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyBitFeatures {
    /// Key-input net name.
    pub key_input: String,
    /// Feature vector of the design re-synthesised with the bit tied to 0.
    pub f0: Vec<f64>,
    /// Feature vector with the bit tied to 1.
    pub f1: Vec<f64>,
}

impl KeyBitFeatures {
    /// Signed delta `f0 − f1` — the signal the attacks correlate with the
    /// key value.
    #[must_use]
    pub fn delta(&self) -> Vec<f64> {
        self.f0.iter().zip(&self.f1).map(|(a, b)| a - b).collect()
    }

    /// L1 magnitude of the delta (0 ⇒ the bit leaks nothing through
    /// constant propagation).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn delta_magnitude(&self) -> f64 {
        self.delta().iter().map(|d| d.abs()).sum()
    }
}

/// Hard-codes `key_input` to 0 and to 1 (one bit at a time, as SWEEP and
/// SCOPE do), re-synthesises both cofactors and extracts their features.
///
/// # Errors
///
/// Propagates unknown-net and loop errors from the netlist layer.
pub fn key_bit_features(locked: &Netlist, key_input: &str) -> Result<KeyBitFeatures, NetlistError> {
    let mut features = Vec::with_capacity(2);
    for v in [false, true] {
        let mut constants = HashMap::new();
        constants.insert(key_input.to_owned(), v);
        let re = muxlink_netlist::opt::resynthesize(locked, &constants)?;
        features.push(NetlistStats::compute(&re)?.feature_vector());
    }
    let f1 = features.pop().expect("two cofactors");
    let f0 = features.pop().expect("two cofactors");
    Ok(KeyBitFeatures {
        key_input: key_input.to_owned(),
        f0,
        f1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, xor, LockOptions};

    #[test]
    fn xor_locking_leaks_through_deltas() {
        // Hard-coding an XOR key bit the right way folds the key gate to a
        // wire; the wrong way leaves an inverter — a visible delta.
        let design = SynthConfig::new("d", 12, 6, 150).generate(1);
        let locked = xor::lock(&design, &LockOptions::new(8, 2)).unwrap();
        let mut leaking = 0;
        for name in locked.key_input_names() {
            let f = key_bit_features(&locked.netlist, &name).unwrap();
            if f.delta_magnitude() > 1e-9 {
                leaking += 1;
            }
        }
        assert!(
            leaking >= 6,
            "XOR locking should leak on most bits, got {leaking}"
        );
    }

    #[test]
    fn dmux_deltas_do_not_predict_the_key() {
        // The D-MUX guarantee is not that cofactors are *identical* (the
        // optimiser may fold a couple of gates either way) but that the
        // differences carry no key information: predicting each bit from
        // "the smaller cofactor is correct" must be a coin flip, and the
        // deltas stay tiny relative to the design.
        let design = SynthConfig::new("d", 16, 8, 300).generate(2);
        let locked = dmux::lock(&design, &LockOptions::new(16, 3)).unwrap();
        let mut rule_correct = 0usize;
        let mut rule_decided = 0usize;
        let mut delta_total = 0.0f64;
        for (bit, name) in locked.key_input_names().iter().enumerate() {
            let f = key_bit_features(&locked.netlist, name).unwrap();
            let d = f.delta()[0]; // gate-count delta (f0 − f1)
            delta_total += d.abs();
            if d != 0.0 {
                rule_decided += 1;
                // d < 0 ⇒ cofactor-0 smaller ⇒ rule predicts bit = 0.
                let predicted = d > 0.0;
                if predicted == locked.key.bit(bit) {
                    rule_correct += 1;
                }
            }
        }
        let per_bit = delta_total / 16.0;
        assert!(per_bit <= 2.0, "deltas should stay local, avg {per_bit}");
        if rule_decided >= 6 {
            assert!(
                rule_correct * 10 >= rule_decided * 2 && rule_correct * 10 <= rule_decided * 8,
                "gate-count rule should be uninformative: {rule_correct}/{rule_decided}"
            );
        }
    }

    #[test]
    fn unknown_key_input_rejected() {
        let design = SynthConfig::new("d", 8, 4, 60).generate(3);
        assert!(key_bit_features(&design, "missing").is_err());
    }
}
