//! Structural design fingerprints: the identity of a locked design.
//!
//! A [`DesignFingerprint`] digests exactly what
//! [`Trained::verify_design`](crate::Trained::verify_design) compares —
//! the key-input names (in key-bit order) and the whole extracted
//! design: every graph node's gate and gate type, the graph's CSR
//! offsets and neighbours, and the key-MUX candidates (gate ids, key
//! bits, sink and candidate-source nodes). The propagation scales are
//! derived from the offsets, so they add nothing. Scoring reads the
//! graph, so two netlists that differ anywhere in it — a gate type, a
//! wire far from every key MUX — are different designs. Extraction is
//! deterministic, so the same locked netlist always produces the same
//! fingerprint, and the one digest is shared by
//!
//! * checkpoint verification ([`Trained::verify_design`]),
//! * the attack service's checkpoint cache key (`muxlink serve`),
//! * the wire protocol (`key` fields carry the hex form),
//!
//! so the three can never drift apart.
//!
//! The digest is 256 bits of FNV-1a-64 over a canonical encoding (bytes
//! for the names and MUX fields, whole 32-bit words for the graph), run
//! as four independently-salted streams. That is collision-resistant
//! enough for cache keying and drift detection of honest inputs; it is
//! **not** a cryptographic commitment, which is why
//! [`Trained::verify_design`] keeps the full structural comparison as a
//! backstop when digests match.
//!
//! [`Trained::verify_design`]: crate::Trained::verify_design

use std::fmt;
use std::str::FromStr;

use muxlink_graph::ExtractedDesign;
use serde::{DeError, Deserialize, Serialize, Value};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Per-stream salts: four independent digests of the same byte feed.
const SALTS: [u64; 4] = [
    0x0000_0000_0000_0000,
    0x9e37_79b9_7f4a_7c15,
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
];

/// A 256-bit structural fingerprint of a locked design — its key-input
/// names and its whole extracted design — rendered as 64 lower-case hex
/// characters on the wire.
///
/// Two designs compare equal under
/// [`Trained::verify_design`](crate::Trained::verify_design) exactly
/// when their fingerprint inputs are identical, so equal inputs always
/// produce equal fingerprints (the converse holds up to digest
/// collisions; callers that must exclude even those compare the
/// structure itself after the digests match).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignFingerprint([u64; 4]);

/// The four digest streams fed in lock-step.
struct Streams([u64; 4]);

impl Streams {
    fn new() -> Self {
        Self([
            FNV_OFFSET ^ SALTS[0],
            FNV_OFFSET ^ SALTS[1],
            FNV_OFFSET ^ SALTS[2],
            FNV_OFFSET ^ SALTS[3],
        ])
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            for h in &mut self.0 {
                *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// One FNV-1a step for a whole 32-bit word: the graph is long runs
    /// of `u32`s, and a byte-wise feed would take four dependent steps
    /// for each.
    fn word(&mut self, v: u32) {
        for h in &mut self.0 {
            *h = (*h ^ u64::from(v)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl DesignFingerprint {
    /// Digests the structure checkpoint verification compares: the
    /// key-input names in key-bit order; per graph node its gate id, gate
    /// type, CSR row end offset and neighbour run; then every key-MUX
    /// candidate's gate id, key bit, sink node and the two candidate
    /// source nodes.
    #[must_use]
    pub fn compute(key_input_names: &[String], design: &ExtractedDesign) -> Self {
        let mut s = Streams::new();
        s.u64(key_input_names.len() as u64);
        for name in key_input_names {
            s.u64(name.len() as u64);
            s.bytes(name.as_bytes());
        }
        let graph = &design.graph;
        let n = graph.node_count();
        s.u64(n as u64);
        let mut end = 0u32;
        for i in 0..n {
            let nbrs = graph.adj.neighbors(i);
            end += nbrs.len() as u32;
            s.word(graph.gate_of_node[i].index() as u32);
            s.word(
                graph.gate_types[i]
                    .encoding_index()
                    .map_or(u32::MAX, |t| t as u32),
            );
            s.word(end);
            for &j in nbrs {
                s.word(j);
            }
        }
        let muxes = &design.muxes;
        s.u64(muxes.len() as u64);
        for m in muxes {
            s.u64(m.mux_gate.index() as u64);
            s.u64(m.key_bit as u64);
            s.u64(u64::from(m.sink));
            s.u64(u64::from(m.src0));
            s.u64(u64::from(m.src1));
        }
        Self(s.0)
    }

    /// Extracts `netlist` and fingerprints the result — the one-step
    /// form used by the attack service to key its checkpoint cache.
    ///
    /// # Errors
    ///
    /// [`AttackError::Extract`](crate::AttackError::Extract) when the
    /// netlist cannot be extracted and
    /// [`AttackError::NoKeyMuxes`](crate::AttackError::NoKeyMuxes) when
    /// it has no key MUXes (nothing a checkpoint could describe).
    pub fn of_netlist(
        netlist: &muxlink_netlist::Netlist,
        key_input_names: &[String],
    ) -> Result<Self, crate::AttackError> {
        let design = muxlink_graph::extract(netlist, key_input_names)?;
        if design.muxes.is_empty() {
            return Err(crate::AttackError::NoKeyMuxes);
        }
        Ok(Self::compute(key_input_names, &design))
    }

    /// The 64-character lower-case hex form (the wire encoding).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for w in self.0 {
            out.push_str(&format!("{w:016x}"));
        }
        out
    }

    /// Parses the 64-character hex form back. Digits may be upper or
    /// lower case; [`to_hex`](Self::to_hex) gives the canonical
    /// spelling.
    ///
    /// # Errors
    ///
    /// A description of the malformed input (wrong length or a
    /// character outside `[0-9a-fA-F]`).
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.len() != 64 {
            return Err(format!(
                "design fingerprint must be 64 hex characters, got {}",
                text.len()
            ));
        }
        // Digit by digit: `u64::from_str_radix` would also take a
        // leading `+` in a word.
        let mut words = [0u64; 4];
        for (i, byte) in text.bytes().enumerate() {
            let digit = char::from(byte)
                .to_digit(16)
                .ok_or_else(|| format!("design fingerprint has non-hex characters: `{text}`"))?;
            words[i / 16] = (words[i / 16] << 4) | u64::from(digit);
        }
        Ok(Self(words))
    }
}

/// The key-input names of a locked netlist, in key-bit order.
///
/// Recognises the [`muxlink_locking::KEY_INPUT_PREFIX`] naming
/// convention every locking scheme in this workspace emits
/// (`keyinput0`, `keyinput1`, …) and sorts by the numeric suffix, so
/// position `i` of the result is key bit `i`. Inputs that do not follow
/// the convention are ignored; an empty result means the netlist is not
/// locked (or was locked by an incompatible tool).
///
/// This is the one canonical way the CLI and the attack service derive
/// the name list that feeds [`DesignFingerprint::compute`] — a private
/// copy in each front end could drift and silently change fingerprints.
#[must_use]
pub fn key_input_names(netlist: &muxlink_netlist::Netlist) -> Vec<String> {
    let mut names: Vec<(usize, String)> = netlist
        .input_names()
        .into_iter()
        .filter_map(|n| {
            n.strip_prefix(muxlink_locking::KEY_INPUT_PREFIX)
                .and_then(|suffix| suffix.parse::<usize>().ok())
                .map(|i| (i, n.to_owned()))
        })
        .collect();
    names.sort();
    names.into_iter().map(|(_, n)| n).collect()
}

impl fmt::Display for DesignFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl FromStr for DesignFingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

// Hand-written serde: the wire form is the hex string, not a `[u64; 4]`
// sequence, so fingerprints embed naturally in JSON protocols and file
// names.
impl Serialize for DesignFingerprint {
    fn to_value(&self) -> Value {
        Value::Str(self.to_hex())
    }
}

impl Deserialize for DesignFingerprint {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Self::parse(s).map_err(DeError),
            other => Err(DeError(format!(
                "expected design-fingerprint hex string, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, LockOptions};
    use muxlink_netlist::GateType;

    fn locked(seed: u64, gates: usize) -> muxlink_locking::LockedNetlist {
        let design = SynthConfig::new("fp", 14, 6, gates).generate(seed);
        dmux::lock(&design, &LockOptions::new(6, 3)).unwrap()
    }

    #[test]
    fn same_design_same_fingerprint() {
        let l = locked(31, 200);
        let names = l.key_input_names();
        let a = DesignFingerprint::of_netlist(&l.netlist, &names).unwrap();
        let b = DesignFingerprint::of_netlist(&l.netlist, &names).unwrap();
        assert_eq!(a, b, "extraction is deterministic");
    }

    #[test]
    fn different_designs_different_fingerprints() {
        let a = locked(31, 200);
        let b = locked(32, 210);
        let fa = DesignFingerprint::of_netlist(&a.netlist, &a.key_input_names()).unwrap();
        let fb = DesignFingerprint::of_netlist(&b.netlist, &b.key_input_names()).unwrap();
        assert_ne!(fa, fb);
    }

    #[test]
    fn hex_round_trips() {
        let l = locked(33, 190);
        let fp = DesignFingerprint::of_netlist(&l.netlist, &l.key_input_names()).unwrap();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(DesignFingerprint::parse(&hex).unwrap(), fp);
        assert_eq!(hex.parse::<DesignFingerprint>().unwrap(), fp);
        // Either case parses; `to_hex` is the canonical lower case.
        let upper = DesignFingerprint::parse(&hex.to_ascii_uppercase()).unwrap();
        assert_eq!(upper, fp);
        assert_eq!(upper.to_hex(), hex);
    }

    #[test]
    fn key_input_names_recovers_key_bit_order() {
        let l = locked(36, 200);
        // The locked netlist knows its own names; the free function must
        // recover exactly that list from the netlist alone.
        assert_eq!(key_input_names(&l.netlist), l.key_input_names());
        // And an unlocked design has none.
        let plain = SynthConfig::new("plain", 10, 4, 80).generate(7);
        assert!(key_input_names(&plain).is_empty());
    }

    #[test]
    fn malformed_hex_is_rejected() {
        assert!(DesignFingerprint::parse("abc").is_err());
        assert!(DesignFingerprint::parse(&"g".repeat(64)).is_err());
        // 64 bytes with a two-byte character straddling the first
        // 16-digit chunk edge: an error, not a slicing panic.
        let straddling = format!("{}é{}", "a".repeat(15), "a".repeat(47));
        assert_eq!(straddling.len(), 64);
        assert!(DesignFingerprint::parse(&straddling).is_err());
        // `from_str_radix` takes a leading `+`; a fingerprint does not.
        let plus = format!("+{}", "f".repeat(63));
        assert!(DesignFingerprint::parse(&plus).is_err());
        let plus_word = format!("{}+{}", "0".repeat(16), "f".repeat(47));
        assert!(DesignFingerprint::parse(&plus_word).is_err());
    }

    #[test]
    fn serde_uses_the_hex_string_form() {
        let l = locked(34, 180);
        let fp = DesignFingerprint::of_netlist(&l.netlist, &l.key_input_names()).unwrap();
        let json = serde_json::to_string(&fp).unwrap();
        assert_eq!(json, format!("\"{}\"", fp.to_hex()));
        let back: DesignFingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn names_and_structure_both_feed_the_digest() {
        let l = locked(35, 200);
        let names = l.key_input_names();
        let design = muxlink_graph::extract(&l.netlist, &names).unwrap();
        let base = DesignFingerprint::compute(&names, &design);
        // Reordering the names changes the digest (key-bit order is
        // part of the identity).
        let mut reversed = names.clone();
        reversed.reverse();
        assert_ne!(DesignFingerprint::compute(&reversed, &design), base);
        // Dropping one MUX changes the digest.
        let mut fewer = design.clone();
        fewer.muxes.remove(0);
        assert_ne!(DesignFingerprint::compute(&names, &fewer), base);
        // Field-level sensitivity: nudging one source node flips it.
        let mut tweaked = design.clone();
        tweaked.muxes[0].src0 = tweaked.muxes[0].src0.wrapping_add(1);
        assert_ne!(DesignFingerprint::compute(&names, &tweaked), base);
        // The graph scoring reads is part of the identity: one node's
        // gate type, one node's originating gate, or one dropped edge
        // each change the digest with the key-MUX structure untouched.
        let mut retyped = design.clone();
        let ty = &mut retyped.graph.gate_types[0];
        *ty = if *ty == GateType::And {
            GateType::Or
        } else {
            GateType::And
        };
        assert_ne!(DesignFingerprint::compute(&names, &retyped), base);
        let mut regated = design.clone();
        regated.graph.gate_of_node.swap(0, 1);
        assert_ne!(DesignFingerprint::compute(&names, &regated), base);
        let mut lists = design.graph.adj.to_lists();
        let (a, b) = (0..lists.len())
            .find_map(|a| lists[a].first().map(|&b| (a, b as usize)))
            .expect("the graph has an edge");
        lists[a].retain(|&j| j as usize != b);
        lists[b].retain(|&j| j as usize != a);
        let mut rewired = design.clone();
        rewired.graph.adj = muxlink_graph::Csr::from_lists(&lists);
        assert_ne!(DesignFingerprint::compute(&names, &rewired), base);
    }
}
