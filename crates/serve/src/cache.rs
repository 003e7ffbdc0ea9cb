//! The checkpoint cache: fingerprint-keyed storage of [`Trained`]
//! artifacts.
//!
//! Two tiers share one key — the 64-char hex form of
//! [`muxlink_core::DesignFingerprint`]:
//!
//! * an **in-memory LRU** of `Arc<Trained>` (capacity
//!   `--cache-entries`; a fig7-scale checkpoint is a few MB, so the
//!   default of 8 keeps the daemon's footprint modest);
//! * an optional **on-disk store** under `--cache-dir`: one
//!   `<fingerprint-hex>.json` file per design, the same serde format
//!   `muxlink train --save-model` writes, so cached checkpoints are
//!   interchangeable with CLI checkpoints and survive daemon restarts.
//!
//! Memory eviction never deletes the disk copy — a design evicted from
//! memory is a *disk hit* next time, not a retrain. Lookups touch the
//! LRU order; disk loads are promoted into memory.
//!
//! The cache stores whatever it is given under the stated key; **the
//! engine verifies** an entry against the incoming netlist
//! ([`Trained::verify_design`]) before serving it, and calls
//! [`CheckpointCache::reject`] to expel an entry that fails (counted
//! in [`CacheStats::verify_rejections`], after which the submit falls
//! through to a fresh train).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use muxlink_core::Trained;

/// Counter snapshot of cache traffic (reported under `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Subset of hits loaded from disk.
    pub disk_hits: u64,
    /// Checkpoints inserted.
    pub insertions: u64,
    /// Memory evictions (disk copies survive).
    pub evictions: u64,
    /// Entries expelled because verification failed.
    pub verify_rejections: u64,
}

struct Inner {
    /// Resident checkpoints by fingerprint hex.
    entries: HashMap<String, Arc<Trained>>,
    /// LRU order: front = least recently used.
    order: Vec<String>,
    stats: CacheStats,
}

/// Fingerprint-keyed two-tier checkpoint store. All methods take
/// `&self`; one instance is shared across connection handlers and
/// workers.
pub struct CheckpointCache {
    dir: Option<PathBuf>,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl CheckpointCache {
    /// Creates a cache holding at most `capacity` checkpoints in
    /// memory, optionally backed by `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when `dir` cannot be created.
    pub fn new(dir: Option<PathBuf>, capacity: usize) -> io::Result<Self> {
        if let Some(d) = &dir {
            fs::create_dir_all(d)?;
        }
        Ok(Self {
            dir,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: Vec::new(),
                stats: CacheStats::default(),
            }),
        })
    }

    /// A mutex poisoned by a panicking worker still guards coherent
    /// data (every mutation here is a single logical step), so recover
    /// the guard instead of propagating the poison to every
    /// connection.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are fingerprint hex (validated by the engine), so they
        // are always safe file names; the guard is belt-and-braces
        // against a future caller passing something path-like.
        if !key.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        self.dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    fn touch(order: &mut Vec<String>, key: &str) {
        if let Some(pos) = order.iter().position(|k| k == key) {
            let k = order.remove(pos);
            order.push(k);
        } else {
            order.push(key.to_owned());
        }
    }

    /// Looks up a checkpoint: memory first, then the on-disk store
    /// (parsed and promoted into memory). Returns `None` on a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<Trained>> {
        let from_disk = self.read_disk(key);
        self.lookup_or_promote(key, from_disk)
    }

    /// The on-disk copy of `key`, parsed, when memory does not hold the
    /// key (`None` when it does, or when there is no readable copy).
    /// Takes no lock while it reads and parses — a multi-MB JSON parse
    /// must not stall unrelated lookups — and counts nothing: hand the
    /// result to [`CheckpointCache::lookup_or_promote`].
    pub fn read_disk(&self, key: &str) -> Option<Trained> {
        if self.lock().entries.contains_key(key) {
            return None;
        }
        self.disk_path(key)
            .and_then(|p| fs::read_to_string(p).ok())
            .and_then(|text| serde_json::from_str::<Trained>(&text).ok())
    }

    /// Looks `key` up in memory; on a miss, promotes `from_disk` (a
    /// [`CheckpointCache::read_disk`] result) into memory. Only map
    /// work, so callers may hold their own locks across it. Counts the
    /// hit, disk hit or miss as [`CheckpointCache::lookup`] does.
    pub fn lookup_or_promote(&self, key: &str, from_disk: Option<Trained>) -> Option<Arc<Trained>> {
        let mut inner = self.lock();
        if let Some(entry) = inner.entries.get(key).cloned() {
            inner.stats.hits += 1;
            Self::touch(&mut inner.order, key);
            return Some(entry);
        }
        match from_disk {
            Some(trained) => {
                inner.stats.hits += 1;
                inner.stats.disk_hits += 1;
                let arc = Arc::new(trained);
                Self::insert_locked(&mut inner, self.capacity, key, Arc::clone(&arc));
                Some(arc)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn insert_locked(inner: &mut Inner, capacity: usize, key: &str, entry: Arc<Trained>) {
        inner.entries.insert(key.to_owned(), entry);
        Self::touch(&mut inner.order, key);
        while inner.entries.len() > capacity {
            let victim = inner.order.remove(0);
            inner.entries.remove(&victim);
            inner.stats.evictions += 1;
        }
    }

    /// Inserts a freshly trained checkpoint under `key` (memory +
    /// disk). A disk-write failure is reported but does not fail the
    /// insert — the memory tier still serves the entry.
    ///
    /// # Errors
    ///
    /// The disk-write failure message, for the caller to log.
    pub fn insert(&self, key: &str, entry: Arc<Trained>) -> Result<(), String> {
        {
            let mut inner = self.lock();
            inner.stats.insertions += 1;
            Self::insert_locked(&mut inner, self.capacity, key, entry.clone());
        }
        if let Some(path) = self.disk_path(key) {
            let json = serde_json::to_string(entry.as_ref())
                .map_err(|e| format!("serialising checkpoint {key}: {e}"))?;
            // Write-then-rename so a crash mid-write never leaves a
            // truncated checkpoint a later lookup would half-parse.
            let tmp = path.with_extension("json.tmp");
            fs::write(&tmp, json).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            fs::rename(&tmp, &path).map_err(|e| format!("renaming {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Expels an entry that failed verification against an incoming
    /// netlist (memory *and* disk — a poisoned artifact must not come
    /// back as a disk hit).
    pub fn reject(&self, key: &str) {
        {
            let mut inner = self.lock();
            inner.stats.verify_rejections += 1;
            inner.entries.remove(key);
            inner.order.retain(|k| k != key);
        }
        if let Some(path) = self.disk_path(key) {
            let _ = fs::remove_file(path);
        }
    }

    /// Number of checkpoints resident in memory.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_core::{key_input_names, AttackSession, MuxLinkConfig, NoProgress};
    use muxlink_locking::{dmux, LockOptions};

    fn tiny_trained(seed: u64) -> (String, Trained) {
        let design = muxlink_benchgen::synth::SynthConfig::new("cache", 12, 5, 120).generate(seed);
        let locked = dmux::lock(&design, &LockOptions::new(4, 3)).unwrap();
        let names = key_input_names(&locked.netlist);
        let mut cfg = MuxLinkConfig::quick();
        cfg.epochs = 1;
        cfg.threads = 1;
        let trained = AttackSession::new(&locked.netlist, &names, cfg)
            .extract()
            .unwrap()
            .prepare(&NoProgress)
            .unwrap()
            .train(&NoProgress)
            .unwrap();
        let key = trained.fingerprint().to_hex();
        (key, trained)
    }

    #[test]
    fn memory_lru_evicts_least_recently_used() {
        let cache = CheckpointCache::new(None, 2).unwrap();
        let (ka, a) = tiny_trained(1);
        let (kb, b) = tiny_trained(2);
        let (kc, c) = tiny_trained(3);
        cache.insert(&ka, Arc::new(a)).unwrap();
        cache.insert(&kb, Arc::new(b)).unwrap();
        assert!(cache.lookup(&ka).is_some(), "touch `a` so `b` is LRU");
        cache.insert(&kc, Arc::new(c)).unwrap();
        assert_eq!(cache.memory_len(), 2);
        assert!(cache.lookup(&kb).is_none(), "b was evicted");
        assert!(cache.lookup(&ka).is_some());
        assert!(cache.lookup(&kc).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.misses, 1);
    }

    /// The two halves of a lookup, as the engine splits them around its
    /// in-flight lock, count exactly what one `lookup` counts.
    #[test]
    fn disk_read_then_promote_counts_as_one_lookup() {
        let dir = std::env::temp_dir().join(format!("muxlink-promote-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (key, trained) = tiny_trained(6);
        CheckpointCache::new(Some(dir.clone()), 1)
            .unwrap()
            .insert(&key, Arc::new(trained))
            .unwrap();
        let cache = CheckpointCache::new(Some(dir.clone()), 1).unwrap();
        let from_disk = cache.read_disk(&key);
        assert!(from_disk.is_some(), "the disk copy is read");
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "reading counts nothing"
        );
        assert!(cache.lookup_or_promote(&key, from_disk).is_some());
        assert!(cache.read_disk(&key).is_none(), "resident: no second read");
        assert!(cache.lookup_or_promote(&key, None).is_some());
        assert!(cache.lookup_or_promote(&"0".repeat(64), None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (2, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_memory_eviction_and_new_instances() {
        let dir = std::env::temp_dir().join(format!("muxlink-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (key, trained) = tiny_trained(4);
        {
            let cache = CheckpointCache::new(Some(dir.clone()), 1).unwrap();
            cache.insert(&key, Arc::new(trained.clone())).unwrap();
            let (k2, t2) = tiny_trained(5);
            cache.insert(&k2, Arc::new(t2)).unwrap(); // evicts `key` from memory
            assert_eq!(cache.memory_len(), 1);
            let back = cache.lookup(&key).expect("disk hit after eviction");
            assert_eq!(back.fingerprint().to_hex(), key);
            assert_eq!(cache.stats().disk_hits, 1);
        }
        // A fresh instance (daemon restart) still sees the artifact.
        let cache = CheckpointCache::new(Some(dir.clone()), 1).unwrap();
        let back = cache.lookup(&key).expect("disk hit across restart");
        assert_eq!(back.report, trained.report);
        // Reject removes both tiers.
        cache.reject(&key);
        assert!(cache.lookup(&key).is_none());
        assert!(!dir.join(format!("{key}.json")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_hex_keys_never_touch_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("muxlink-cache-esc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = CheckpointCache::new(Some(dir.clone()), 1).unwrap();
        assert!(cache.disk_path("../../etc/passwd").is_none());
        assert!(cache.disk_path(&"a".repeat(64)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
