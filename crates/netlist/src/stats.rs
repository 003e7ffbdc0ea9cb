//! Design-feature extraction: the synthesis-report proxies consumed by the
//! SWEEP/SCOPE constant-propagation attacks.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{GateType, Netlist, NetlistError};

/// Aggregate structural features of a netlist — the stand-in for the
/// synthesis-report columns (area, power, cell counts, path depth) that the
/// SWEEP and SCOPE attacks correlate with key values.
///
/// Serialisation note: `per_type` uses [`GateType`] keys, so JSON output
/// requires a map-to-string representation; the bench harness serialises the
/// flattened [`NetlistStats::feature_vector`] instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total number of gates.
    pub gates: usize,
    /// Total number of gate input pins ("literals").
    pub literals: usize,
    /// Sum of per-gate area costs ([`GateType::area_cost`]).
    pub area: f64,
    /// Critical-path depth in gate levels.
    pub depth: usize,
    /// Zero-delay switching-activity proxy for dynamic power.
    pub switching: f64,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Gate count per type.
    pub per_type: HashMap<GateType, usize>,
}

impl NetlistStats {
    /// Computes all features for a netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`] from depth and
    /// activity analysis.
    pub fn compute(netlist: &Netlist) -> Result<Self, NetlistError> {
        let depth = crate::traversal::circuit_depth(netlist)?;
        let switching = crate::sim::switching_activity(netlist)?;
        let literals = netlist.gates().map(|(_, g)| g.inputs().len()).sum();
        let area = netlist.gates().map(|(_, g)| g.ty().area_cost()).sum();
        Ok(Self {
            gates: netlist.gate_count(),
            literals,
            area,
            depth,
            switching,
            inputs: netlist.inputs().len(),
            outputs: netlist.outputs().len(),
            per_type: netlist.gate_type_histogram(),
        })
    }

    /// Flattens the features into a fixed-order numeric vector for ML
    /// consumption (SWEEP's linear model).
    ///
    /// Layout: `[gates, literals, area, depth, switching]` followed by the
    /// count of each encoded gate type in [`GateType::ENCODED`] order.
    #[must_use]
    pub fn feature_vector(&self) -> Vec<f64> {
        let mut v = vec![
            self.gates as f64,
            self.literals as f64,
            self.area,
            self.depth as f64,
            self.switching,
        ];
        for ty in GateType::ENCODED {
            v.push(*self.per_type.get(&ty).unwrap_or(&0) as f64);
        }
        v
    }
}

/// Number of entries in [`NetlistStats::feature_vector`].
pub const FEATURE_LEN: usize = 5 + crate::GATE_TYPE_COUNT;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse;

    #[test]
    fn stats_of_small_netlist() {
        let n = parse(
            "s",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n",
        )
        .unwrap();
        let s = NetlistStats::compute(&n).unwrap();
        assert_eq!(s.gates, 2);
        assert_eq!(s.literals, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert!((s.area - (1.0 + 0.5)).abs() < 1e-12);
        assert!(s.switching > 0.0);
    }

    #[test]
    fn feature_vector_has_fixed_length() {
        let n = parse("s", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        let s = NetlistStats::compute(&n).unwrap();
        assert_eq!(s.feature_vector().len(), FEATURE_LEN);
    }
}
