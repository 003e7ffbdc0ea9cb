use serde::{map_get, DeError, Deserialize, Serialize, Value};

/// All tunables of the MuxLink attack. Defaults are the paper's settings;
/// [`MuxLinkConfig::quick`] is a CPU-friendly scale-down used by tests and
/// the default benchmark harness (every figure binary accepts
/// `--paper-scale` to restore the published constants).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MuxLinkConfig {
    /// Enclosing-subgraph hop count (paper default: 3, Fig. 10 sweeps 1–4).
    pub h: usize,
    /// Post-processing decision threshold (paper default: 0.01, Fig. 9
    /// sweeps 0–1).
    pub th: f64,
    /// Maximum sampled training links (paper: 100 000).
    pub max_train_links: usize,
    /// Validation fraction (paper: 10 %).
    pub val_fraction: f64,
    /// Optional cap on subgraph node count (None = unlimited, as in the
    /// paper; the quick profile caps for CPU-time hygiene).
    pub max_subgraph_nodes: Option<usize>,
    /// Training epochs (paper: 100).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// SortPooling percentile: `k` is chosen so this fraction of training
    /// subgraphs has at most `k` nodes (paper: 0.6).
    pub k_percentile: f64,
    /// Master seed (sampling, initialisation, shuffling, dropout).
    pub seed: u64,
    /// Worker threads for dataset build, training and scoring
    /// (0 = all cores). Results are bit-identical for any value: every
    /// parallel stage reduces in a fixed order.
    pub threads: usize,
    /// Streaming chunk size of the arena-pooled sample paths: at most
    /// this many candidate links are extracted (and, at scoring time,
    /// resident as samples) at once; the scorer recycles one
    /// [`SampleArena`](muxlink_graph::SampleArena) between chunks, so
    /// peak resident sample bytes are bounded by the chunk, not the
    /// design's candidate-link count. `0` means one chunk holding every
    /// link. Results are bit-identical for any value — chunking only
    /// bounds memory.
    pub sample_chunk: usize,
    /// Canonicalize the target netlist with the cleanup pass pipeline
    /// (constant fold, buffer collapse, MUX simplification, dead-logic
    /// elimination) before structural extraction — both when attacking
    /// and when re-verifying a design against a trained session. `false`
    /// (the default) attacks the netlist exactly as given.
    pub canonicalize: bool,
}

// Hand-written so checkpoints saved before the `sample_chunk` and
// `canonicalize` knobs existed still load: a missing field takes the
// production default (neither changes the default path's results, so
// old artifacts re-score to the same bits). The vendored derive has no
// `#[serde(default)]`. Keys it does not read are ignored, which is how
// checkpoints carrying the two removed reference-path knobs still load
// (see `pre_batched_trainer_checkpoints_still_deserialize` and
// `pre_layer0_plan_checkpoints_still_deserialize`): both selected
// bit-identical paths, so either value is today's recipe.
//
// The removed `dh_keep` knob (top-k sparsified tanh gradients) is read
// only to refuse it: a stored `1.0` is the exact recipe every build
// trains and is ignored, while any other value describes a model no
// current build reproduces, so it must not load as a default recipe.
impl Deserialize for MuxLinkConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Ok(x) = map_get(v, "dh_keep") {
            if f32::from_value(x) != Ok(1.0) {
                return Err(DeError(format!(
                    "removed field `dh_keep` holds {}: sparsified training no \
                     longer exists, only the exact 1.0 still loads",
                    x.describe()
                )));
            }
        }
        Ok(Self {
            h: Deserialize::from_value(map_get(v, "h")?)?,
            th: Deserialize::from_value(map_get(v, "th")?)?,
            max_train_links: Deserialize::from_value(map_get(v, "max_train_links")?)?,
            val_fraction: Deserialize::from_value(map_get(v, "val_fraction")?)?,
            max_subgraph_nodes: Deserialize::from_value(map_get(v, "max_subgraph_nodes")?)?,
            epochs: Deserialize::from_value(map_get(v, "epochs")?)?,
            batch_size: Deserialize::from_value(map_get(v, "batch_size")?)?,
            learning_rate: Deserialize::from_value(map_get(v, "learning_rate")?)?,
            k_percentile: Deserialize::from_value(map_get(v, "k_percentile")?)?,
            seed: Deserialize::from_value(map_get(v, "seed")?)?,
            threads: Deserialize::from_value(map_get(v, "threads")?)?,
            sample_chunk: match map_get(v, "sample_chunk") {
                Ok(x) => Deserialize::from_value(x)?,
                Err(_) => MuxLinkConfig::default().sample_chunk,
            },
            canonicalize: match map_get(v, "canonicalize") {
                Ok(x) => Deserialize::from_value(x)?,
                Err(_) => MuxLinkConfig::default().canonicalize,
            },
        })
    }
}

impl Default for MuxLinkConfig {
    fn default() -> Self {
        Self {
            h: 3,
            th: 0.01,
            max_train_links: 100_000,
            val_fraction: 0.10,
            max_subgraph_nodes: None,
            epochs: 100,
            batch_size: 32,
            learning_rate: 1e-4,
            k_percentile: 0.6,
            seed: 0,
            threads: 0,
            sample_chunk: 1024,
            canonicalize: false,
        }
    }
}

impl MuxLinkConfig {
    /// The paper's configuration (`h = 3`, `th = 0.01`, 100 epochs,
    /// ≤ 100 000 links).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// A scaled-down configuration that finishes in seconds on a CPU while
    /// preserving every algorithmic step; used by tests, examples and the
    /// default benchmark profiles.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            h: 3,
            th: 0.01,
            max_train_links: 1200,
            val_fraction: 0.10,
            max_subgraph_nodes: Some(200),
            epochs: 40,
            batch_size: 32,
            learning_rate: 1e-3,
            k_percentile: 0.6,
            seed: 0,
            threads: 0,
            sample_chunk: 1024,
            canonicalize: false,
        }
    }

    /// Returns a copy with a different hop count (Fig. 10 sweeps).
    #[must_use]
    pub fn with_h(mut self, h: usize) -> Self {
        self.h = h;
        self
    }

    /// Returns a copy with a different threshold (Fig. 9 sweeps).
    #[must_use]
    pub fn with_th(mut self, th: f64) -> Self {
        self.th = th;
        self
    }

    /// Returns a copy with a different master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different worker-thread count (0 = all
    /// cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different streaming chunk size (0 = one
    /// chunk holding every link). Never changes results.
    #[must_use]
    pub fn with_sample_chunk(mut self, sample_chunk: usize) -> Self {
        self.sample_chunk = sample_chunk;
        self
    }

    /// Returns a copy with netlist canonicalization toggled.
    #[must_use]
    pub fn with_canonicalize(mut self, canonicalize: bool) -> Self {
        self.canonicalize = canonicalize;
        self
    }

    /// Whether a model trained under `self` is bit-identical to one
    /// trained under `other`: every field that fixes the trained bits
    /// matches. `threads` and `sample_chunk` are bit-neutral by contract
    /// and `th` is read only by post-processing, so all three are free —
    /// a checkpoint re-scores under any of them. This is the one place
    /// that line is drawn; the destructure names every field, so a new
    /// field does not compile until it is classified here.
    #[must_use]
    pub fn same_recipe(&self, other: &Self) -> bool {
        let Self {
            h,
            th: _,
            max_train_links,
            val_fraction,
            max_subgraph_nodes,
            epochs,
            batch_size,
            learning_rate,
            k_percentile,
            seed,
            threads: _,
            sample_chunk: _,
            canonicalize,
        } = self;
        *h == other.h
            && *max_train_links == other.max_train_links
            && *val_fraction == other.val_fraction
            && *max_subgraph_nodes == other.max_subgraph_nodes
            && *epochs == other.epochs
            && *batch_size == other.batch_size
            && *learning_rate == other.learning_rate
            && *k_percentile == other.k_percentile
            && *seed == other.seed
            && *canonicalize == other.canonicalize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_publication() {
        let c = MuxLinkConfig::paper();
        assert_eq!(c.h, 3);
        assert!((c.th - 0.01).abs() < 1e-12);
        assert_eq!(c.max_train_links, 100_000);
        assert_eq!(c.epochs, 100);
        assert!((c.learning_rate - 1e-4).abs() < 1e-9);
        assert!((c.k_percentile - 0.6).abs() < 1e-12);
        assert!((c.val_fraction - 0.10).abs() < 1e-12);
    }

    #[test]
    fn builders_change_single_fields() {
        let c = MuxLinkConfig::quick()
            .with_h(4)
            .with_th(0.5)
            .with_seed(9)
            .with_threads(2);
        assert_eq!(c.h, 4);
        assert!((c.th - 0.5).abs() < 1e-12);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 2);
    }

    #[test]
    fn default_uses_all_cores() {
        assert_eq!(MuxLinkConfig::paper().threads, 0);
        assert_eq!(MuxLinkConfig::quick().threads, 0);
    }

    #[test]
    fn same_recipe_ignores_only_the_run_settings() {
        let base = MuxLinkConfig::quick().with_seed(5);
        let changed = |change: fn(&mut MuxLinkConfig)| {
            let mut other = base.clone();
            change(&mut other);
            other
        };
        for (field, other) in [
            ("h", changed(|c| c.h += 1)),
            ("max_train_links", changed(|c| c.max_train_links += 1)),
            ("val_fraction", changed(|c| c.val_fraction += 0.01)),
            (
                "max_subgraph_nodes",
                changed(|c| c.max_subgraph_nodes = None),
            ),
            ("epochs", changed(|c| c.epochs += 1)),
            ("batch_size", changed(|c| c.batch_size += 1)),
            ("learning_rate", changed(|c| c.learning_rate *= 2.0)),
            ("k_percentile", changed(|c| c.k_percentile += 0.1)),
            ("seed", changed(|c| c.seed += 1)),
            (
                "canonicalize",
                changed(|c| c.canonicalize = !c.canonicalize),
            ),
        ] {
            assert_ne!(other, base, "{field}: the change must change the config");
            assert!(!base.same_recipe(&other), "{field} is part of the recipe");
            assert!(!other.same_recipe(&base), "{field} is part of the recipe");
        }
        for (field, other) in [
            ("threads", base.clone().with_threads(3)),
            ("sample_chunk", base.clone().with_sample_chunk(0)),
            ("th", base.clone().with_th(0.9)),
        ] {
            assert_ne!(other, base, "{field}: the change must change the config");
            assert!(base.same_recipe(&other), "{field} is a run setting");
            assert!(other.same_recipe(&base), "{field} is a run setting");
        }
    }

    #[test]
    fn serde_round_trips() {
        let cfg = MuxLinkConfig::quick()
            .with_seed(9)
            .with_threads(2)
            .with_sample_chunk(77);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MuxLinkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    /// Checkpoints written before the `sample_chunk` knob existed must
    /// still load; the missing field takes the production default.
    #[test]
    fn pre_sample_chunk_checkpoints_still_deserialize() {
        let cfg = MuxLinkConfig::quick().with_seed(4);
        let json = serde_json::to_string(&cfg).unwrap();
        let legacy = json.replace(",\"sample_chunk\":1024", "");
        assert_ne!(legacy, json, "test must actually strip the field");
        let back: MuxLinkConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.sample_chunk, MuxLinkConfig::default().sample_chunk);
        assert_eq!(back.seed, 4);
        assert_eq!(
            MuxLinkConfig {
                sample_chunk: cfg.sample_chunk,
                ..back
            },
            cfg
        );
    }

    /// Checkpoints written before the batched trainer existed lack the
    /// `reference_trainer` knob; those written while it existed carry
    /// it. The knob selected a bit-identical reference loop, so every
    /// form loads as today's recipe.
    #[test]
    fn pre_batched_trainer_checkpoints_still_deserialize() {
        assert_legacy_knob_ignored("reference_trainer", 6);
    }

    /// Checkpoints written before the cached layer-0 plans existed lack
    /// the `layer0_rebuild` knob; those written while it existed carry
    /// it. The knob selected a bit-identical rebuild of the cached
    /// plans, so every form loads as today's recipe.
    #[test]
    fn pre_layer0_plan_checkpoints_still_deserialize() {
        assert_legacy_knob_ignored("layer0_rebuild", 8);
    }

    /// Loads a config saved without `key` and with `key` set to either
    /// boolean, and checks each comes back as the saved config.
    fn assert_legacy_knob_ignored(key: &str, seed: u64) {
        let cfg = MuxLinkConfig::quick().with_seed(seed);
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains(key), "{key} must no longer be written");
        let back: MuxLinkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        for value in [false, true] {
            let legacy = json.replacen('}', &format!(",\"{key}\":{value}}}"), 1);
            assert_ne!(legacy, json, "test must actually add the field");
            let back: MuxLinkConfig = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back.seed, seed);
            assert_eq!(back, cfg, "{key}={value}");
        }
    }

    /// Checkpoints written while the `dh_keep` knob existed carry it. The
    /// exact `1.0` loads as today's recipe; any other value (or shape) is
    /// a typed error naming the removed field, never a silent default.
    #[test]
    fn removed_dh_keep_loads_only_at_its_exact_value() {
        let cfg = MuxLinkConfig::quick().with_seed(6);
        let json = serde_json::to_string(&cfg).unwrap();
        let with = |v: &str| json.replacen('}', &format!(",\"dh_keep\":{v}}}"), 1);
        let back: MuxLinkConfig = serde_json::from_str(&with("1.0")).unwrap();
        assert_eq!(back, cfg);
        for bad in ["0.5", "0.999", "2.0", "null", "\"1.0\"", "[1.0]"] {
            let err = serde_json::from_str::<MuxLinkConfig>(&with(bad))
                .unwrap_err()
                .to_string();
            assert!(err.contains("`dh_keep`"), "{bad}: {err}");
        }
    }

    /// Checkpoints written before the `canonicalize` knob existed must
    /// still load; the missing knob takes the production default (attack
    /// the netlist exactly as given).
    #[test]
    fn pre_canonicalize_checkpoints_still_deserialize() {
        let cfg = MuxLinkConfig::quick().with_seed(3);
        let json = serde_json::to_string(&cfg).unwrap();
        let legacy = json.replace(",\"canonicalize\":false", "");
        assert_ne!(legacy, json, "test must actually strip the field");
        let back: MuxLinkConfig = serde_json::from_str(&legacy).unwrap();
        assert!(!back.canonicalize);
        assert_eq!(back, cfg);
    }
}
