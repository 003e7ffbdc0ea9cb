use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{GateType, NetlistError};

/// Identifier of a net (a named wire) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Raw index of the net (dense, `0..net_count`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a net id from a raw index. The id is only meaningful for the
    /// netlist it was taken from; out-of-range ids make accessors panic.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl GateId {
    /// Raw index of the gate (dense, `0..gate_count`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a gate id from a raw index. The id is only meaningful for the
    /// netlist it was taken from; out-of-range ids make accessors panic.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A named wire. Driven either by a primary input or by exactly one gate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Option<GateId>,
    pub(crate) is_input: bool,
}

impl Net {
    /// The net's name as it appears in BENCH files.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, or `None` for primary inputs.
    #[must_use]
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// True when the net is a primary input.
    #[must_use]
    pub fn is_input(&self) -> bool {
        self.is_input
    }
}

/// A logic gate: a [`GateType`] applied to ordered input nets, driving one
/// output net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    pub(crate) ty: GateType,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The Boolean function of the gate.
    #[must_use]
    pub fn ty(&self) -> GateType {
        self.ty
    }

    /// Ordered input nets. For [`GateType::Mux`] the order is
    /// `[select, in0, in1]`.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by this gate.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A combinational gate-level netlist.
///
/// Nets and gates are stored densely and addressed by [`NetId`]/[`GateId`].
/// Every net has at most one driver; primary inputs are nets with no driving
/// gate. The structure is mutable enough for locking transformations
/// (inserting key MUXes, rewiring sinks) while [`Netlist::validate`] checks
/// the global invariants (single driver, legal arities, no undriven nets,
/// acyclicity, outputs present).
///
/// Equality (`==`) is *structural identity*: same nets in the same order
/// with the same names, same gates, same interface. Rewrite passes use it
/// to detect that they changed nothing ([`crate::passes`] reports exactly
/// zero rewrites iff the netlist is left identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (wires), including primary inputs.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Primary input nets in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Looks up a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Access a net record.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Access a gate record.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over all net ids in insertion order.
    pub fn net_ids(&self) -> impl ExactSizeIterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterates over `(GateId, &Gate)` pairs.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Declares a fresh primary input net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] when the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.add_net_internal(name.into(), true)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Declares a fresh undriven internal net (to be driven by a later
    /// [`Netlist::add_gate_with_output`] call).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] when the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        self.add_net_internal(name.into(), false)
    }

    fn add_net_internal(&mut self, name: String, is_input: bool) -> Result<NetId, NetlistError> {
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name));
        }
        let id = NetId(self.nets.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: None,
            is_input,
        });
        Ok(id)
    }

    /// Adds a gate driving a freshly created net named `output_name`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate output names, unknown input nets, or illegal
    /// arity for `ty`.
    pub fn add_gate(
        &mut self,
        output_name: impl Into<String>,
        ty: GateType,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net_internal(output_name.into(), false)?;
        self.add_gate_with_output(out, ty, inputs)?;
        Ok(out)
    }

    /// Adds a gate driving the pre-declared net `output`.
    ///
    /// # Errors
    ///
    /// Fails when `output` already has a driver or is a primary input, when
    /// any input id is out of range, or on illegal arity.
    pub fn add_gate_with_output(
        &mut self,
        output: NetId,
        ty: GateType,
        inputs: &[NetId],
    ) -> Result<GateId, NetlistError> {
        ty.check_arity(inputs.len())?;
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(format!("{i}")));
            }
        }
        if output.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(format!("{output}")));
        }
        let net = &mut self.nets[output.index()];
        if net.driver.is_some() || net.is_input {
            return Err(NetlistError::MultipleDrivers(net.name.clone()));
        }
        let gid = GateId(self.gates.len() as u32);
        net.driver = Some(gid);
        self.gates.push(Gate {
            ty,
            inputs: inputs.to_vec(),
            output,
        });
        Ok(gid)
    }

    /// Marks a net as a primary output. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] when the id is out of range.
    pub fn mark_output(&mut self, net: NetId) -> Result<(), NetlistError> {
        if net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(format!("{net}")));
        }
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
        Ok(())
    }

    /// Rewires one occurrence of `old` among `gate`'s inputs to `new`.
    /// Returns `true` when a substitution happened.
    ///
    /// This is the primitive used by the locking schemes to route a sink
    /// gate's input through a freshly inserted key MUX.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] / [`NetlistError::UnknownNet`]
    /// on out-of-range ids.
    pub fn rewire_input(
        &mut self,
        gate: GateId,
        old: NetId,
        new: NetId,
    ) -> Result<bool, NetlistError> {
        if gate.index() >= self.gates.len() {
            return Err(NetlistError::UnknownGate(gate.0));
        }
        if new.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(format!("{new}")));
        }
        let g = &mut self.gates[gate.index()];
        if let Some(slot) = g.inputs.iter_mut().find(|n| **n == old) {
            *slot = new;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Overwrites a gate in place (same output net, new function/inputs).
    ///
    /// Used when applying a recovered key: a MUX key-gate collapses to a
    /// buffer of the selected data input.
    ///
    /// # Errors
    ///
    /// Fails on unknown ids or illegal arity.
    pub fn replace_gate(
        &mut self,
        gate: GateId,
        ty: GateType,
        inputs: &[NetId],
    ) -> Result<(), NetlistError> {
        if gate.index() >= self.gates.len() {
            return Err(NetlistError::UnknownGate(gate.0));
        }
        ty.check_arity(inputs.len())?;
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(format!("{i}")));
            }
        }
        let g = &mut self.gates[gate.index()];
        g.ty = ty;
        g.inputs = inputs.to_vec();
        Ok(())
    }

    /// Fan-out map: for every net, the gates reading it.
    ///
    /// Computed on demand; O(gates × arity).
    #[must_use]
    pub fn fanout_map(&self) -> Vec<Vec<GateId>> {
        let mut map = vec![Vec::new(); self.nets.len()];
        for (gid, gate) in self.gates() {
            for &inp in &gate.inputs {
                map[inp.index()].push(gid);
            }
        }
        map
    }

    /// Number of gate inputs plus primary outputs reading this net.
    #[must_use]
    pub fn fanout_count(&self, net: NetId) -> usize {
        let gate_reads: usize = self
            .gates
            .iter()
            .map(|g| g.inputs.iter().filter(|&&n| n == net).count())
            .sum();
        let output_reads = self.outputs.iter().filter(|&&n| n == net).count();
        gate_reads + output_reads
    }

    /// Checks all structural invariants: every used net is driven or a
    /// primary input, outputs exist and are driven, the gate graph is
    /// acyclic, and there is at least one output.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for gate in &self.gates {
            for &inp in &gate.inputs {
                let n = &self.nets[inp.index()];
                if n.driver.is_none() && !n.is_input {
                    return Err(NetlistError::Undriven(n.name.clone()));
                }
            }
        }
        for &out in &self.outputs {
            let n = &self.nets[out.index()];
            if n.driver.is_none() && !n.is_input {
                return Err(NetlistError::Undriven(n.name.clone()));
            }
        }
        crate::traversal::topological_order(self).map(|_| ())
    }

    /// Convenience: collects the names of all primary inputs.
    #[must_use]
    pub fn input_names(&self) -> Vec<&str> {
        self.inputs.iter().map(|&n| self.net(n).name()).collect()
    }

    /// Convenience: collects the names of all primary outputs.
    #[must_use]
    pub fn output_names(&self) -> Vec<&str> {
        self.outputs.iter().map(|&n| self.net(n).name()).collect()
    }

    /// Generates a fresh net name with the given prefix that does not clash
    /// with any existing net.
    #[must_use]
    pub fn fresh_net_name(&self, prefix: &str) -> String {
        let mut i = self.nets.len();
        loop {
            let cand = format!("{prefix}_{i}");
            if !self.by_name.contains_key(&cand) {
                return cand;
            }
            i += 1;
        }
    }

    /// Renames a net in place, preserving its id, driver and every use.
    ///
    /// Purely cosmetic from the circuit's point of view — connectivity is
    /// id-based — but part of the interface contract for primary
    /// inputs/outputs, so callers wanting to preserve the interface must
    /// not rename those (the [`crate::passes::RenameWires`] pass does not).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] for an out-of-range id and
    /// [`NetlistError::DuplicateNet`] when `new_name` is already taken by a
    /// *different* net (renaming a net to its current name is a no-op).
    pub fn rename_net(
        &mut self,
        id: NetId,
        new_name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        if id.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(format!("{id}")));
        }
        let new_name = new_name.into();
        if self.nets[id.index()].name == new_name {
            return Ok(());
        }
        if self.by_name.contains_key(&new_name) {
            return Err(NetlistError::DuplicateNet(new_name));
        }
        let old = std::mem::replace(&mut self.nets[id.index()].name, new_name.clone());
        self.by_name.remove(&old);
        self.by_name.insert(new_name, id);
        Ok(())
    }

    /// Counts gates per [`GateType`].
    #[must_use]
    pub fn gate_type_histogram(&self) -> HashMap<GateType, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            *h.entry(g.ty).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let x = n.add_gate("x", GateType::Nand, &[a, b]).unwrap();
        let y = n.add_gate("y", GateType::Not, &[x]).unwrap();
        n.mark_output(y).unwrap();
        n
    }

    #[test]
    fn build_and_validate() {
        let n = tiny();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.net_count(), 4);
        assert!(n.validate().is_ok());
        assert_eq!(n.input_names(), vec!["a", "b"]);
        assert_eq!(n.output_names(), vec!["y"]);
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut n = Netlist::new("d");
        n.add_input("a").unwrap();
        assert!(matches!(
            n.add_input("a"),
            Err(NetlistError::DuplicateNet(_))
        ));
        assert!(matches!(n.add_net("a"), Err(NetlistError::DuplicateNet(_))));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut n = Netlist::new("m");
        let a = n.add_input("a").unwrap();
        let x = n.add_gate("x", GateType::Buf, &[a]).unwrap();
        assert!(matches!(
            n.add_gate_with_output(x, GateType::Not, &[a]),
            Err(NetlistError::MultipleDrivers(_))
        ));
        // Driving a primary input is also a multiple-driver error.
        assert!(matches!(
            n.add_gate_with_output(a, GateType::Not, &[x]),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("u");
        let a = n.add_input("a").unwrap();
        let dangling = n.add_net("dangling").unwrap();
        let y = n.add_gate("y", GateType::And, &[a, dangling]).unwrap();
        n.mark_output(y).unwrap();
        assert!(matches!(n.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn no_outputs_detected() {
        let mut n = Netlist::new("no_out");
        n.add_input("a").unwrap();
        assert!(matches!(n.validate(), Err(NetlistError::NoOutputs)));
    }

    #[test]
    fn rewire_input_swaps_wire() {
        let mut n = tiny();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let x_driver = n.net(n.find_net("x").unwrap()).driver().unwrap();
        assert!(n.rewire_input(x_driver, a, b).unwrap());
        assert_eq!(n.gate(x_driver).inputs(), &[b, b]);
        // Rewiring a non-present net is a no-op.
        assert!(!n.rewire_input(x_driver, a, b).unwrap());
    }

    #[test]
    fn replace_gate_collapses_mux() {
        let mut n = Netlist::new("r");
        let s = n.add_input("s").unwrap();
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let m = n.add_gate("m", GateType::Mux, &[s, a, b]).unwrap();
        n.mark_output(m).unwrap();
        let mg = n.net(m).driver().unwrap();
        n.replace_gate(mg, GateType::Buf, &[a]).unwrap();
        assert_eq!(n.gate(mg).ty(), GateType::Buf);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn fanout_counts() {
        let n = tiny();
        let a = n.find_net("a").unwrap();
        let x = n.find_net("x").unwrap();
        let y = n.find_net("y").unwrap();
        assert_eq!(n.fanout_count(a), 1);
        assert_eq!(n.fanout_count(x), 1);
        assert_eq!(n.fanout_count(y), 1); // primary output read
        let map = n.fanout_map();
        assert_eq!(map[a.index()].len(), 1);
    }

    #[test]
    fn fresh_names_never_clash() {
        let mut n = tiny();
        let f1 = n.fresh_net_name("km");
        n.add_net(f1.clone()).unwrap();
        let f2 = n.fresh_net_name("km");
        assert_ne!(f1, f2);
    }

    #[test]
    fn histogram_counts_types() {
        let n = tiny();
        let h = n.gate_type_histogram();
        assert_eq!(h[&GateType::Nand], 1);
        assert_eq!(h[&GateType::Not], 1);
    }
}
