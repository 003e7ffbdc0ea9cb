//! The benchmark's input designs and attack recipe.
//!
//! Both designs are synthetic `c1355` stand-ins locked with D-MUX and
//! mirrored through the CLI's write → parse round trips (the round trips
//! reassign net ids, and extraction depends on id order). The large
//! design takes ~95 s to lock, so its default instance is a checked-in
//! `.bench` fixture under `data/`, regenerated by `--write-fixture`.

use std::path::PathBuf;

use muxlink_core::{key_input_names, MuxLinkConfig};
use muxlink_locking::{dmux, Key, LockOptions};
use muxlink_netlist::{bench_format, Netlist};
use muxlink_serve::{JobKind, SubmitRequest};

pub const DEFAULT_GEN_SEED: u64 = 1;
pub const DEFAULT_LOCK_SEED: u64 = 7;

/// How to synthesise and lock one design.
#[derive(Debug, Clone, Copy)]
pub struct DesignSpec {
    pub label: &'static str,
    pub scale: f64,
    pub key_bits: usize,
    pub gen_seed: u64,
    pub lock_seed: u64,
}

impl DesignSpec {
    /// The pinned fig7 design: c1355 ×2, D-MUX K = 16 (tiny in smoke mode).
    pub fn fig7(gen_seed: u64, lock_seed: u64, smoke: bool) -> Self {
        let (scale, key_bits) = if smoke { (0.25, 4) } else { (2.0, 16) };
        Self {
            label: "fig7",
            scale,
            key_bits,
            gen_seed,
            lock_seed,
        }
    }

    /// The large design: c1355 ×16, D-MUX K = 256 (small in smoke mode).
    pub fn large(gen_seed: u64, lock_seed: u64, smoke: bool) -> Self {
        let (scale, key_bits) = if smoke { (0.5, 8) } else { (16.0, 256) };
        Self {
            label: "large",
            scale,
            key_bits,
            gen_seed,
            lock_seed,
        }
    }

    fn fixture_stem(&self) -> String {
        format!(
            "c1355x{}-k{}-g{}-l{}",
            self.scale, self.key_bits, self.gen_seed, self.lock_seed
        )
    }

    fn fixture_paths(&self) -> (PathBuf, PathBuf) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data");
        let stem = self.fixture_stem();
        (
            dir.join(format!("{stem}.bench")),
            dir.join(format!("{stem}.key")),
        )
    }

    /// Generates and locks the design: the locked `.bench` text exactly
    /// as the CLI's `lock` writes it, plus the true key.
    pub fn synthesise(&self) -> Result<(String, Key), String> {
        let profile = muxlink_benchgen::SyntheticSuite::iscas85()
            .find("c1355")
            .cloned()
            .ok_or("iscas85 suite lacks c1355")?
            .scaled(self.scale);
        let design = profile.generate(self.gen_seed);
        let text = bench_format::write(&design).map_err(|e| e.to_string())?;
        let design = bench_format::parse(design.name(), &text).map_err(|e| e.to_string())?;
        let locked = dmux::lock(&design, &LockOptions::new(self.key_bits, self.lock_seed))
            .map_err(|e| format!("locking {}: {e}", self.label))?;
        let text = bench_format::write(&locked.netlist).map_err(|e| e.to_string())?;
        Ok((text, locked.key))
    }

    /// The locked text and key: from the fixture when one exists for this
    /// spec, otherwise synthesised.
    pub fn locked_text(&self) -> Result<(String, Key), String> {
        let (bench, key) = self.fixture_paths();
        if !bench.exists() {
            return self.synthesise();
        }
        let text = std::fs::read_to_string(&bench)
            .map_err(|e| format!("reading {}: {e}", bench.display()))?;
        let bits =
            std::fs::read_to_string(&key).map_err(|e| format!("reading {}: {e}", key.display()))?;
        let bits: Vec<bool> = bits.trim().chars().map(|c| c == '1').collect();
        if bits.len() != self.key_bits {
            return Err(format!(
                "{}: expected {} key bits",
                key.display(),
                self.key_bits
            ));
        }
        Ok((text, Key::from_bits(bits)))
    }

    /// Writes this spec's fixture files.
    pub fn write_fixture(&self) -> Result<PathBuf, String> {
        let (text, key) = self.synthesise()?;
        let (bench, key_path) = self.fixture_paths();
        let bits: String = key
            .bits()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        std::fs::write(&bench, text).map_err(|e| e.to_string())?;
        std::fs::write(&key_path, bits + "\n").map_err(|e| e.to_string())?;
        Ok(bench)
    }
}

/// A locked design as the attacker receives it.
pub struct Design {
    pub label: &'static str,
    /// The `.bench` text (what a daemon client sends inline).
    pub text: String,
    pub netlist: Netlist,
    pub names: Vec<String>,
    pub key: Key,
}

impl Design {
    /// Parses locked text the way the CLI loads a netlist before attacking.
    pub fn load(spec: &DesignSpec) -> Result<Self, String> {
        let (text, key) = spec.locked_text()?;
        let netlist = bench_format::parse(spec.label, &text).map_err(|e| e.to_string())?;
        let names = key_input_names(&netlist);
        if names.len() != key.len() {
            return Err(format!(
                "{}: {} key inputs for a {}-bit key",
                spec.label,
                names.len(),
                key.len()
            ));
        }
        Ok(Self {
            label: spec.label,
            text,
            netlist,
            names,
            key,
        })
    }

    pub fn gates(&self) -> usize {
        self.netlist.gate_count()
    }
}

/// The attack recipe: the quick profile at one thread (`fig7_config`).
/// Smoke mode uses one hop, which keeps training on its tiny designs
/// well under a second.
pub fn attack_config(smoke: bool) -> MuxLinkConfig {
    let cfg = MuxLinkConfig::quick().with_threads(1);
    if smoke {
        cfg.with_h(1)
    } else {
        cfg
    }
}

/// A waiting inline `attack` submit at one thread: the daemon builds the
/// same recipe as [`attack_config`], so a checkpoint trained in-process
/// serves it.
pub fn submit_request(design: &Design, smoke: bool) -> SubmitRequest {
    let mut sreq = SubmitRequest::inline(JobKind::Attack, &design.text);
    sreq.threads = Some(1);
    if smoke {
        sreq.hops = Some(1);
    }
    sreq
}

/// Five recovery thresholds drawn from the run seed (always including
/// the paper's 0.01). Recovery cost does not depend on the values.
pub fn thresholds(seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut ths = vec![0.0, 0.01];
    ths.extend((0..3).map(|_| (next() * 0.5 * 1e4).round() / 1e4));
    ths
}
