//! The fold-sweep engine behind [`ConstantFold`], [`CollapseBuffers`],
//! [`SimplifyMuxes`] and [`crate::opt::resynthesize`].
//!
//! One topological sweep rebuilds the netlist while propagating symbolic
//! values; a [`Rules`] set selects which rewrite families fire. With every
//! family enabled (plus tied constants) the sweep is a line-for-line port
//! of the historical `opt.rs::resynthesize` monolith, which keeps
//! `resynthesize` bit-compatible with it; with a single family enabled it
//! becomes one small named pass.

use std::collections::HashMap;

use crate::{GateType, NetId, Netlist, NetlistError};

use super::{finish, Pass, PassReport};

/// Symbolic value of a net during reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Const(bool),
    /// A net id in the *new* netlist.
    Signal(NetId),
}

/// Which rewrite families a sweep applies.
#[derive(Debug, Clone, Copy, Default)]
struct Rules {
    /// Constant propagation/absorption (AND with 0, XOR parity, NOT/BUF
    /// of a constant, `CONST0`/`CONST1` cells fold into values).
    constants: bool,
    /// Algebraic operand simplification: duplicate-operand dedup for
    /// AND/OR families, `x ⊕ x` pair cancellation.
    algebraic: bool,
    /// Buffer elision, double-inverter collapse, and collapsing a buffer
    /// chain that ends in a constant cell to a `CONST` cell at the output.
    buffers: bool,
    /// MUX rewrites: constant select picks a branch, equal data inputs,
    /// constant data inputs re-expressed as AND/OR/NOT.
    muxes: bool,
}

impl Rules {
    const ALL: Self = Self {
        constants: true,
        algebraic: true,
        buffers: true,
        muxes: true,
    };
}

/// `constant_fold`: constant propagation plus algebraic operand cleanup.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantFold;

impl Pass for ConstantFold {
    fn name(&self) -> &'static str {
        "constant_fold"
    }

    fn run(&self, netlist: &mut Netlist) -> Result<PassReport, NetlistError> {
        sweep_pass(
            netlist,
            self.name(),
            Rules {
                constants: true,
                algebraic: true,
                ..Rules::default()
            },
        )
    }
}

/// `collapse_buffers`: elide buffers, collapse double inverters, and turn
/// a buffer chain ending in a constant cell into a `CONST` cell at the
/// primary output — all in one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollapseBuffers;

impl Pass for CollapseBuffers {
    fn name(&self) -> &'static str {
        "collapse_buffers"
    }

    fn run(&self, netlist: &mut Netlist) -> Result<PassReport, NetlistError> {
        sweep_pass(
            netlist,
            self.name(),
            Rules {
                buffers: true,
                ..Rules::default()
            },
        )
    }
}

/// `simplify_muxes`: constant-select, equal-input and constant-data MUX
/// rewrites.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplifyMuxes;

impl Pass for SimplifyMuxes {
    fn name(&self) -> &'static str {
        "simplify_muxes"
    }

    fn run(&self, netlist: &mut Netlist) -> Result<PassReport, NetlistError> {
        sweep_pass(
            netlist,
            self.name(),
            Rules {
                muxes: true,
                ..Rules::default()
            },
        )
    }
}

/// Shared pass wrapper around [`sweep`] (no inputs tied).
fn sweep_pass(
    netlist: &mut Netlist,
    name: &'static str,
    rules: Rules,
) -> Result<PassReport, NetlistError> {
    let (rebuilt, events) = sweep(netlist, rules, &HashMap::new())?;
    Ok(PassReport {
        name,
        rewrites: finish(netlist, rebuilt, events),
        seconds: 0.0,
    })
}

/// Per-sweep rebuild state.
struct Sweep<'r> {
    out: Netlist,
    rules: &'r Rules,
    /// Rewrite events counted at rule sites. Advisory: the caller trusts
    /// the final structural comparison, not this, for the `0 ⇒ unchanged`
    /// law (e.g. a buffer elided and re-materialised verbatim counts an
    /// event here yet changes nothing).
    events: usize,
    /// Lazily created shared `CONST0`/`CONST1` cells, for the rare case
    /// where a constant value feeds a gate whose rules cannot absorb it.
    const_cells: [Option<NetId>; 2],
}

/// The combined sweep of [`crate::opt::resynthesize`]: every rule family
/// plus primary inputs tied to constants (by name).
pub(crate) fn sweep_full_for_resynth(
    netlist: &Netlist,
    constants: &HashMap<String, bool>,
) -> Result<Netlist, NetlistError> {
    Ok(sweep(netlist, Rules::ALL, constants)?.0)
}

/// Runs one rule-gated fold sweep, returning the rebuilt netlist and the
/// advisory rewrite-event count.
fn sweep(
    netlist: &Netlist,
    rules: Rules,
    constants: &HashMap<String, bool>,
) -> Result<(Netlist, usize), NetlistError> {
    for name in constants.keys() {
        if netlist.find_net(name).is_none() {
            return Err(NetlistError::UnknownNet(name.clone()));
        }
    }
    let order = crate::traversal::topological_order(netlist)?;
    let mut sw = Sweep {
        out: Netlist::new(netlist.name().to_owned()),
        rules: &rules,
        events: 0,
        const_cells: [None, None],
    };
    let mut value: Vec<Option<Value>> = vec![None; netlist.net_count()];

    for &pi in netlist.inputs() {
        let name = netlist.net(pi).name();
        if let Some(&c) = constants.get(name) {
            sw.events += 1;
            value[pi.index()] = Some(Value::Const(c));
        } else {
            let id = sw.out.add_input(name.to_owned())?;
            value[pi.index()] = Some(Value::Signal(id));
        }
    }

    for gid in order {
        let gate = netlist.gate(gid);
        let ins: Vec<Value> = gate
            .inputs()
            .iter()
            .map(|&n| value[n.index()].expect("topological order guarantees defined inputs"))
            .collect();
        let name = netlist.net(gate.output()).name().to_owned();
        let v = sw.fold_gate(gate.ty(), &ins, &name)?;
        value[gate.output().index()] = Some(v);
    }

    for &po in netlist.outputs() {
        let name = netlist.net(po).name().to_owned();
        let v = value[po.index()].expect("outputs validated as driven");
        let id = sw.materialise_as(v, &name)?;
        sw.out.mark_output(id)?;
    }

    Ok((sw.out, sw.events))
}

impl Sweep<'_> {
    /// Ensures `v` is available as a net carrying exactly `name`
    /// (inserting a buffer or constant cell when the value lives under a
    /// different name). Under the `buffers` rule a signal driven by a
    /// constant cell materialises as a `CONST` cell instead of a buffer,
    /// so a buffer chain into a constant collapses in one iteration.
    fn materialise_as(&mut self, v: Value, name: &str) -> Result<NetId, NetlistError> {
        match v {
            Value::Const(c) => {
                if let Some(existing) = self.out.find_net(name) {
                    // Name already taken by a surviving signal of the same name.
                    return Ok(existing);
                }
                let ty = if c {
                    GateType::Const1
                } else {
                    GateType::Const0
                };
                self.out.add_gate(name.to_owned(), ty, &[])
            }
            Value::Signal(id) => {
                if self.out.net(id).name() == name {
                    Ok(id)
                } else if let Some(existing) = self.out.find_net(name) {
                    Ok(existing)
                } else if self.rules.buffers {
                    match self.driver_const(id) {
                        Some(c) => {
                            self.events += 1;
                            let ty = if c {
                                GateType::Const1
                            } else {
                                GateType::Const0
                            };
                            self.out.add_gate(name.to_owned(), ty, &[])
                        }
                        None => self.out.add_gate(name.to_owned(), GateType::Buf, &[id]),
                    }
                } else {
                    self.out.add_gate(name.to_owned(), GateType::Buf, &[id])
                }
            }
        }
    }

    /// The constant a net is driven by in the new netlist, if any.
    fn driver_const(&self, id: NetId) -> Option<bool> {
        let drv = self.out.net(id).driver()?;
        match self.out.gate(drv).ty() {
            GateType::Const0 => Some(false),
            GateType::Const1 => Some(true),
            _ => None,
        }
    }

    /// A net known to carry the constant `c`, creating a shared helper
    /// `CONST` cell on first use. Only reachable when a constant value
    /// flows into a gate whose enabled rules cannot absorb it (never the
    /// case with [`Rules::ALL`], preserving monolith compatibility).
    fn const_net(&mut self, c: bool) -> Result<NetId, NetlistError> {
        if let Some(id) = self.const_cells[usize::from(c)] {
            return Ok(id);
        }
        let (ty, prefix) = if c {
            (GateType::Const1, "opt_const1")
        } else {
            (GateType::Const0, "opt_const0")
        };
        let id = self.out.add_gate(unique(&self.out, prefix), ty, &[])?;
        self.const_cells[usize::from(c)] = Some(id);
        Ok(id)
    }

    /// Resolves a value to a net id, materialising helper constants.
    fn as_signal(&mut self, v: Value) -> Result<NetId, NetlistError> {
        match v {
            Value::Signal(id) => Ok(id),
            Value::Const(c) => self.const_net(c),
        }
    }

    /// Folds one gate over already-simplified input values, emitting at
    /// most one new gate (plus rare helper cells) into the rebuild.
    fn fold_gate(
        &mut self,
        ty: GateType,
        ins: &[Value],
        name: &str,
    ) -> Result<Value, NetlistError> {
        match ty {
            GateType::And | GateType::Nand => {
                let invert = ty == GateType::Nand;
                let mut sig: Vec<NetId> = Vec::new();
                for v in ins {
                    match v {
                        Value::Const(c) if self.rules.constants => {
                            self.events += 1;
                            // AND/NAND absorb a constant 0; a constant 1 drops out.
                            if !*c {
                                return Ok(Value::Const(invert));
                            }
                        }
                        _ => {
                            let id = self.as_signal(*v)?;
                            if self.rules.algebraic && sig.contains(&id) {
                                self.events += 1;
                            } else {
                                sig.push(id);
                            }
                        }
                    }
                }
                self.reduce_monotone(sig, invert, GateType::And, GateType::Nand, true, name)
            }
            GateType::Or | GateType::Nor => {
                let invert = ty == GateType::Nor;
                let mut sig: Vec<NetId> = Vec::new();
                for v in ins {
                    match v {
                        Value::Const(c) if self.rules.constants => {
                            self.events += 1;
                            // OR/NOR absorb a constant 1; a constant 0 drops out.
                            if *c {
                                return Ok(Value::Const(!invert));
                            }
                        }
                        _ => {
                            let id = self.as_signal(*v)?;
                            if self.rules.algebraic && sig.contains(&id) {
                                self.events += 1;
                            } else {
                                sig.push(id);
                            }
                        }
                    }
                }
                self.reduce_monotone(sig, invert, GateType::Or, GateType::Nor, false, name)
            }
            GateType::Xor | GateType::Xnor => {
                let mut parity = ty == GateType::Xnor;
                let mut sig: Vec<NetId> = Vec::new();
                for v in ins {
                    match v {
                        Value::Const(c) if self.rules.constants => {
                            self.events += 1;
                            parity ^= c;
                        }
                        _ => {
                            let id = self.as_signal(*v)?;
                            // x ⊕ x = 0: cancel pairs.
                            if self.rules.algebraic {
                                if let Some(pos) = sig.iter().position(|s| *s == id) {
                                    self.events += 1;
                                    sig.remove(pos);
                                } else {
                                    sig.push(id);
                                }
                            } else {
                                sig.push(id);
                            }
                        }
                    }
                }
                match sig.len() {
                    0 => Ok(Value::Const(parity)),
                    1 => {
                        if parity {
                            self.emit_not(sig[0], name)
                        } else {
                            Ok(Value::Signal(sig[0]))
                        }
                    }
                    _ => {
                        let gty = if parity {
                            GateType::Xnor
                        } else {
                            GateType::Xor
                        };
                        let id = self.out.add_gate(unique(&self.out, name), gty, &sig)?;
                        Ok(Value::Signal(id))
                    }
                }
            }
            GateType::Not => match ins[0] {
                Value::Const(c) if self.rules.constants => {
                    self.events += 1;
                    Ok(Value::Const(!c))
                }
                v => {
                    let id = self.as_signal(v)?;
                    self.emit_not(id, name)
                }
            },
            GateType::Buf => match ins[0] {
                Value::Const(c) if self.rules.constants => {
                    self.events += 1;
                    Ok(Value::Const(c))
                }
                v if self.rules.buffers => {
                    self.events += 1;
                    Ok(v)
                }
                v => {
                    let id = self.as_signal(v)?;
                    let new = self
                        .out
                        .add_gate(unique(&self.out, name), GateType::Buf, &[id])?;
                    Ok(Value::Signal(new))
                }
            },
            GateType::Mux if self.rules.muxes => self.fold_mux(ins, name),
            GateType::Mux => {
                let s = self.as_signal(ins[0])?;
                let a = self.as_signal(ins[1])?;
                let b = self.as_signal(ins[2])?;
                let id = self
                    .out
                    .add_gate(unique(&self.out, name), GateType::Mux, &[s, a, b])?;
                Ok(Value::Signal(id))
            }
            GateType::Const0 | GateType::Const1 => {
                let c = ty == GateType::Const1;
                if self.rules.constants {
                    self.events += 1;
                    Ok(Value::Const(c))
                } else {
                    let id = self.out.add_gate(unique(&self.out, name), ty, &[])?;
                    Ok(Value::Signal(id))
                }
            }
        }
    }

    /// The MUX rewrite family (`rules.muxes`).
    ///
    /// Decisions are taken over *upgraded* values: a signal driven by a
    /// constant cell in the rebuild counts as that constant, so
    /// `simplify_muxes` sees through `CONST` cells without the general
    /// `constants` rule. Under [`Rules::ALL`] constant cells never survive
    /// into the rebuild, making the upgrade the identity — which keeps
    /// `resynthesize` bit-compatible with the monolith.
    fn fold_mux(&mut self, ins: &[Value], name: &str) -> Result<Value, NetlistError> {
        let upgrade = |sw: &Self, v: Value| match v {
            Value::Signal(id) => sw.driver_const(id).map_or(v, Value::Const),
            c => c,
        };
        let (s, a, b) = (
            upgrade(self, ins[0]),
            upgrade(self, ins[1]),
            upgrade(self, ins[2]),
        );
        // Original (un-upgraded) branch values: returning a folded branch
        // keeps the constant-cell signal as a signal.
        let (a0, b0) = (ins[1], ins[2]);
        match s {
            Value::Const(false) => {
                self.events += 1;
                Ok(a0)
            }
            Value::Const(true) => {
                self.events += 1;
                Ok(b0)
            }
            Value::Signal(sid) => {
                if a == b {
                    self.events += 1;
                    return Ok(a0);
                }
                match (a, b) {
                    // MUX(s, 0, 1) = s ; MUX(s, 1, 0) = !s.
                    (Value::Const(false), Value::Const(true)) => {
                        self.events += 1;
                        Ok(Value::Signal(sid))
                    }
                    (Value::Const(true), Value::Const(false)) => {
                        self.events += 1;
                        self.emit_not(sid, name)
                    }
                    // MUX(s, 0, b) = s AND b ; MUX(s, 1, b) = !s OR b, etc.
                    (Value::Const(false), Value::Signal(bid)) => {
                        self.events += 1;
                        let id = self.out.add_gate(
                            unique(&self.out, name),
                            GateType::And,
                            &[sid, bid],
                        )?;
                        Ok(Value::Signal(id))
                    }
                    (Value::Signal(aid), Value::Const(true)) => {
                        self.events += 1;
                        let id = self.out.add_gate(
                            unique(&self.out, name),
                            GateType::Or,
                            &[sid, aid],
                        )?;
                        Ok(Value::Signal(id))
                    }
                    (Value::Const(true), Value::Signal(bid)) => {
                        self.events += 1;
                        let ns = self.require_not(sid)?;
                        let id =
                            self.out
                                .add_gate(unique(&self.out, name), GateType::Or, &[ns, bid])?;
                        Ok(Value::Signal(id))
                    }
                    (Value::Signal(aid), Value::Const(false)) => {
                        self.events += 1;
                        let ns = self.require_not(sid)?;
                        let id = self.out.add_gate(
                            unique(&self.out, name),
                            GateType::And,
                            &[ns, aid],
                        )?;
                        Ok(Value::Signal(id))
                    }
                    (Value::Signal(aid), Value::Signal(bid)) => {
                        let id = self.out.add_gate(
                            unique(&self.out, name),
                            GateType::Mux,
                            &[sid, aid, bid],
                        )?;
                        Ok(Value::Signal(id))
                    }
                    (Value::Const(_), Value::Const(_)) => unreachable!("a == b handled"),
                }
            }
        }
    }

    /// Emits `NOT(id)`, collapsing double inversion (under the `buffers`
    /// rule) when `id` is itself driven by a NOT in the new netlist.
    fn emit_not(&mut self, id: NetId, name: &str) -> Result<Value, NetlistError> {
        if self.rules.buffers {
            if let Some(drv) = self.out.net(id).driver() {
                let g = self.out.gate(drv);
                if g.ty() == GateType::Not {
                    self.events += 1;
                    return Ok(Value::Signal(g.inputs()[0]));
                }
            }
        }
        let new = self
            .out
            .add_gate(unique(&self.out, name), GateType::Not, &[id])?;
        Ok(Value::Signal(new))
    }

    /// Like [`Sweep::emit_not`] but returns the [`NetId`] (helper name).
    fn require_not(&mut self, id: NetId) -> Result<NetId, NetlistError> {
        match self.emit_not(id, "opt_inv")? {
            Value::Signal(n) => Ok(n),
            Value::Const(_) => unreachable!("NOT of a signal is a signal"),
        }
    }

    /// Shared tail for AND/NAND/OR/NOR after constant elimination: `sig`
    /// holds the surviving symbolic operands; `is_and` tells which
    /// constant an empty operand list folds to (AND of nothing = 1,
    /// OR = 0).
    fn reduce_monotone(
        &mut self,
        sig: Vec<NetId>,
        invert: bool,
        plain: GateType,
        inverted: GateType,
        is_and: bool,
        name: &str,
    ) -> Result<Value, NetlistError> {
        match sig.len() {
            // AND of nothing = 1, OR of nothing = 0, then apply inversion.
            0 => Ok(Value::Const(is_and ^ invert)),
            1 => {
                if invert {
                    self.emit_not(sig[0], name)
                } else {
                    self.events += 1;
                    Ok(Value::Signal(sig[0]))
                }
            }
            _ => {
                let ty = if invert { inverted } else { plain };
                let id = self.out.add_gate(unique(&self.out, name), ty, &sig)?;
                Ok(Value::Signal(id))
            }
        }
    }
}

/// Picks `name` when free in `out`, otherwise a fresh derived name.
fn unique(out: &Netlist, name: &str) -> String {
    if out.find_net(name).is_none() {
        name.to_owned()
    } else {
        out.fresh_net_name(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse;
    use crate::sim::exhaustive_equiv;

    #[test]
    fn constant_fold_leaves_buffers_and_muxes_alone() {
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
             c = CONST1()\nt1 = AND(a, c)\nt2 = BUFF(t1)\ny = MUX(b, t2, a)\n",
        )
        .unwrap();
        let mut m = n.clone();
        let r = ConstantFold.run(&mut m).unwrap();
        assert!(r.rewrites > 0);
        // AND(a, 1) folded to a; the BUFF and the MUX survive.
        assert_eq!(
            m.gate_type_histogram().get(&GateType::And).copied(),
            None,
            "{:?}",
            m.gate_type_histogram()
        );
        assert_eq!(
            m.gate_type_histogram().get(&GateType::Mux).copied(),
            Some(1)
        );
        assert!(exhaustive_equiv(&n, &m).unwrap());
    }

    #[test]
    fn collapse_buffers_elides_chains_and_double_inverters() {
        let n = parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\n\
             t1 = NOT(a)\nt2 = NOT(t1)\nt3 = BUFF(t2)\ny = BUFF(t3)\n",
        )
        .unwrap();
        let mut m = n.clone();
        CollapseBuffers.run(&mut m).unwrap();
        // The chain collapses to y = BUFF(a); the now-dead first NOT is
        // dead_logic_elim's job, not ours.
        let y = m.find_net("y").unwrap();
        let drv = m.gate(m.net(y).driver().unwrap());
        assert_eq!(drv.ty(), GateType::Buf);
        assert_eq!(m.net(drv.inputs()[0]).name(), "a");
        assert!(exhaustive_equiv(&n, &m).unwrap());
        super::super::DeadLogicElim.run(&mut m).unwrap();
        assert_eq!(m.gate_count(), 1);
    }

    #[test]
    fn buffer_chain_into_constant_becomes_const_cell_in_one_pass() {
        // The latent-gap regression: an output reached through a buffer
        // chain from a constant cell must collapse to a CONST cell at the
        // output in ONE collapse_buffers run — not survive as a chain.
        let n = parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\n\
             k = CONST1()\nt1 = BUFF(k)\nt2 = BUFF(t1)\ny = BUFF(t2)\nz = NOT(a)\n",
        )
        .unwrap();
        let mut m = n.clone();
        let r = CollapseBuffers.run(&mut m).unwrap();
        assert!(r.rewrites > 0);
        let y = m.find_net("y").unwrap();
        assert_eq!(
            m.gate(m.net(y).driver().unwrap()).ty(),
            GateType::Const1,
            "buffer chain into a constant must materialise as a CONST cell"
        );
        // And a second run makes no further progress (single-iteration fix).
        let r2 = CollapseBuffers.run(&mut m.clone()).unwrap();
        let _ = r2;
        let frozen = m.clone();
        let r3 = CollapseBuffers.run(&mut m).unwrap();
        assert_eq!(r3.rewrites, 0);
        assert_eq!(m, frozen);
    }

    #[test]
    fn simplify_muxes_rewrites_constant_data() {
        let n = parse(
            "t",
            "INPUT(s)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
             c0 = CONST0()\nc1 = CONST1()\n\
             y = MUX(s, c0, b)\nz = MUX(s, c0, c1)\n",
        )
        .unwrap();
        let mut m = n.clone();
        let r = SimplifyMuxes.run(&mut m).unwrap();
        assert!(r.rewrites > 0);
        assert_eq!(
            m.gate_type_histogram().get(&GateType::Mux).copied(),
            None,
            "{:?}",
            m.gate_type_histogram()
        );
        assert!(exhaustive_equiv(&n, &m).unwrap());
    }

    #[test]
    fn simplify_muxes_keeps_signal_muxes() {
        // Locked designs are exactly this shape: MUXes with signal select
        // and signal data inputs must survive verbatim.
        let n = parse(
            "t",
            "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n",
        )
        .unwrap();
        let mut m = n.clone();
        let r = SimplifyMuxes.run(&mut m).unwrap();
        assert_eq!(r.rewrites, 0);
        assert_eq!(m, n);
    }
}
