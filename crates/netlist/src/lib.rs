//! # muxlink-netlist
//!
//! Gate-level netlist substrate for the MuxLink reproduction.
//!
//! This crate provides everything the locking schemes and the attacks need
//! from a circuit representation:
//!
//! * a compact gate/net model ([`Netlist`], [`Gate`], [`GateType`]),
//! * a parser and writer for the BENCH format used by the logic-locking
//!   community ([`bench_format`]),
//! * structural traversal: topological order, combinational-loop detection,
//!   depth, reachability, live logic and immediate fan-out ([`traversal`],
//!   [`cones`]),
//! * a bit-parallel logic simulator and Hamming-distance estimation
//!   ([`sim`]),
//! * a resynthesis pass framework — constant folding, buffer collapsing,
//!   MUX simplification, dead-logic elimination, plus seeded perturbation
//!   passes — run to fixpoint by a [`passes::Pipeline`] ([`passes`]) — and
//!   the combined single-sweep resynthesis recipe of the SWEEP/SCOPE
//!   baselines ([`opt::resynthesize`]),
//! * design-feature extraction (area/power/depth proxies) ([`stats`]).
//!
//! # Example
//!
//! ```
//! use muxlink_netlist::{Netlist, GateType};
//!
//! # fn main() -> Result<(), muxlink_netlist::NetlistError> {
//! let mut n = Netlist::new("half_adder");
//! let a = n.add_input("a")?;
//! let b = n.add_input("b")?;
//! let sum = n.add_gate("sum", GateType::Xor, &[a, b])?;
//! let carry = n.add_gate("carry", GateType::And, &[a, b])?;
//! n.mark_output(sum)?;
//! n.mark_output(carry)?;
//! assert_eq!(n.gate_count(), 2);
//! assert!(n.validate().is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod cones;
mod error;
mod gate;
mod netlist;
pub mod opt;
pub mod passes;
pub mod sim;
pub mod stats;
pub mod traversal;
pub mod verilog;

pub use error::NetlistError;
pub use gate::{GateType, GATE_TYPE_COUNT};
pub use netlist::{Gate, GateId, Net, NetId, Netlist};
