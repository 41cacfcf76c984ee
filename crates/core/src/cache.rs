//! Content-addressed on-disk cache of captured op streams: the one store
//! of finished runs. The `gnnmark-serve` campaigns and daemon replay from
//! it, and `--checkpoint DIR` ([`crate::resilience::ResilienceConfig`])
//! is such a directory, so a resumed suite rebuilds every finished
//! workload's artifacts from its stream instead of training again.
//!
//! One cache entry is one serialized [`CapturedRun`]: the full op-event
//! stream plus device-independent training metadata of one real training
//! run. The key is everything that determines the stream —
//! workload, dataset scale, seed, epoch count — plus a code-version salt,
//! so entries written by an older stream format or model revision are
//! invalidated by construction rather than misread.
//!
//! Device configuration is deliberately *not* part of the key: the stream
//! is device-independent (element-size scaling and timing happen inside
//! the gpusim model at replay), which is what lets one training run serve
//! arbitrarily many device-ablation configs.
//!
//! Telemetry: `gnnmark_serve_cache_hits_total`,
//! `gnnmark_serve_cache_misses_total` and
//! `gnnmark_serve_trainings_total` count lookups and actual trainings —
//! tests assert a second identical submission does not retrain.

use std::path::{Path, PathBuf};

use gnnmark_gpusim::stream::{fnv1a_64, CapturedRun, FORMAT_VERSION};
use gnnmark_tensor::half::Precision;
use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

use crate::infer::{run_infer_captured, ExecPhase, InferConfig};
use crate::suite::{run_workload_captured, SuiteConfig};
use crate::Result;

/// The code-version cache salt. Bumps with the stream format; bump the
/// trailing revision manually when the *timing-relevant* tensor
/// instrumentation changes without a format change.
const CODE_SALT: &str = "gnnmark-stream-v1";

/// Everything that determines a captured op stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Which workload trains.
    pub workload: WorkloadKind,
    /// Dataset scale.
    pub scale: Scale,
    /// Dataset/initialization seed.
    pub seed: u64,
    /// Epochs trained.
    pub epochs: usize,
    /// Storage precision the training runs under. Part of the digest (an
    /// fp16 training records different losses and skip behavior than fp32),
    /// but not of the human-readable prefix, which predates the field.
    pub precision: Precision,
    /// Training mode. A minibatch stream records entirely different ops
    /// (sampled blocks, gathers) than a full-graph one, so the mode key is
    /// digest material.
    pub mode: TrainMode,
    /// Execution phase. An inference stream is forward-only (no backward,
    /// no optimizer) and must never collide with the training stream of
    /// the same workload/scale/seed, so the phase is digest material and
    /// is cross-checked against the entry's
    /// [`ReplayMeta`](gnnmark_gpusim::stream::ReplayMeta) on load.
    pub phase: ExecPhase,
}

impl CacheKey {
    /// Stable entry identifier: human-readable prefix plus a 16-hex-digit
    /// FNV-1a digest of the full key material (including the salt).
    pub fn id(&self) -> String {
        let material = format!(
            "{}|{}|{}|{}|{}|{}|{}|{CODE_SALT}+fmt{FORMAT_VERSION}",
            self.workload.label(),
            self.scale.label(),
            self.seed,
            self.epochs,
            self.precision.as_str(),
            self.mode.key(),
            self.phase.as_str(),
        );
        format!(
            "{}-{}-s{}-e{}-{:016x}",
            self.workload.label(),
            self.scale.label(),
            self.seed,
            self.epochs,
            fnv1a_64(material.as_bytes()),
        )
    }

    /// The [`SuiteConfig`] a cache miss trains under. The device is the
    /// default V100 — it shapes only the capture-time profile, never the
    /// stream, so any device choice yields the same cache entry.
    pub fn suite_config(&self) -> SuiteConfig {
        let mut cfg = SuiteConfig::test();
        cfg.scale = self.scale;
        cfg.seed = self.seed;
        cfg.epochs = self.epochs;
        cfg.precision = self.precision;
        cfg.mode = self.mode.clone();
        cfg
    }

    /// The key a training run of `kind` under `cfg` is stored at; the
    /// inverse of [`CacheKey::suite_config`] (the device is not key
    /// material).
    pub fn for_training(kind: WorkloadKind, cfg: &SuiteConfig) -> Self {
        CacheKey {
            workload: kind,
            scale: cfg.scale,
            seed: cfg.seed,
            epochs: cfg.epochs,
            precision: cfg.precision,
            mode: cfg.mode.clone(),
            phase: ExecPhase::Train,
        }
    }

    /// `true` when a deserialized run's metadata matches this key
    /// (defense against digest collisions and hand-edited cache dirs).
    pub fn matches(&self, run: &CapturedRun) -> bool {
        run.meta.workload == self.workload.label()
            && run.meta.scale == self.scale.label()
            && run.meta.mode == self.mode.key()
            && run.meta.phase == self.phase.as_str()
            && run.meta.seed == self.seed
            && run.meta.epochs as usize == self.epochs
    }
}

/// On-disk store of captured runs, one `<id>.stream` file per key.
#[derive(Debug, Clone)]
pub struct StreamCache {
    dir: PathBuf,
}

impl StreamCache {
    /// Opens (without creating) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StreamCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key is stored at.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.stream", key.id()))
    }

    /// Loads a key's captured run, if present and intact. Corrupted or
    /// mismatched entries are treated as absent (and left in place for
    /// inspection).
    pub fn load(&self, key: &CacheKey) -> Option<CapturedRun> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        let run = CapturedRun::from_bytes(&bytes).ok()?;
        key.matches(&run).then_some(run)
    }

    /// Stores a captured run under a key (write-then-rename, so readers
    /// never observe a torn entry).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn store(&self, key: &CacheKey, run: &CapturedRun) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        let tmp = path.with_extension("stream.tmp");
        std::fs::write(&tmp, run.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// [`StreamCache::load`] that counts a hit when the entry is intact.
    /// A miss counts nothing here: it is counted by the [`StreamCache::fetch`]
    /// that trains it, so a caller may look up first and fall back to
    /// `fetch` without counting one request twice.
    pub fn lookup(&self, key: &CacheKey) -> Option<CapturedRun> {
        let _sp = gnnmark_telemetry::Span::enter_cat(format!("load:{}", key.id()), "serve-cache");
        let run = self.load(key)?;
        gnnmark_telemetry::metrics::counter_add("gnnmark_serve_cache_hits_total", 1);
        Some(run)
    }

    /// The cache's core operation: return the key's captured run, training
    /// it (once) on a miss, and say whether this call trained: `(run, true)`
    /// after a miss, `(run, false)` on a hit. Bumps the hit/miss/training
    /// counters.
    ///
    /// # Errors
    /// Propagates training errors on a miss; a failed training stores
    /// nothing, so the next call retries.
    pub fn fetch(&self, key: &CacheKey) -> Result<(CapturedRun, bool)> {
        if let Some(run) = self.lookup(key) {
            return Ok((run, false));
        }
        gnnmark_telemetry::metrics::counter_add("gnnmark_serve_cache_misses_total", 1);
        let _sp = gnnmark_telemetry::Span::enter_cat(format!("train:{}", key.id()), "serve-cache");
        let run = match key.phase {
            ExecPhase::Train => run_workload_captured(key.workload, &key.suite_config())?.1,
            ExecPhase::Infer => {
                let mut icfg = InferConfig::new(key.suite_config());
                // `epochs` doubles as the batched-step count for inference
                // jobs (there is no epoch loop to repeat).
                icfg.batched_steps = key.epochs.max(1);
                run_infer_captured(key.workload, &icfg)?.1
            }
        };
        gnnmark_telemetry::metrics::counter_add("gnnmark_serve_trainings_total", 1);
        // A write failure only costs a retrain next time; the run is good.
        let _ = self.store(key, &run);
        Ok((run, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> StreamCache {
        let dir = std::env::temp_dir().join(format!("gnnmark_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StreamCache::new(dir)
    }

    #[test]
    fn key_id_is_stable_and_distinguishes() {
        let a = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 42,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        assert_eq!(a.id(), a.id());
        assert!(a.id().starts_with("TLSTM-test-s42-e1-"));
        let b = CacheKey {
            seed: 43,
            ..a.clone()
        };
        assert_ne!(a.id(), b.id());
        let c = CacheKey {
            epochs: 2,
            ..a.clone()
        };
        assert_ne!(a.id(), c.id());
        // Precision is digest material: an fp16 training is a new entry.
        let d = CacheKey {
            precision: Precision::Fp16,
            ..a.clone()
        };
        assert_ne!(a.id(), d.id());
        // So is the training mode: a minibatch stream is a new entry.
        let e = CacheKey {
            mode: TrainMode::Minibatch(gnnmark_workloads::MinibatchConfig::default()),
            ..a.clone()
        };
        assert_ne!(a.id(), e.id());
    }

    #[test]
    fn miss_trains_then_hit_loads() {
        let cache = tmp_cache("hitmiss");
        let key = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 42,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        // What *this* cache did, not the process-wide training counter
        // that sibling tests bump concurrently.
        let entry = cache.path_for(&key);
        assert!(!entry.exists(), "cold cache");
        let first = cache.fetch(&key).unwrap().0;
        let written = std::fs::metadata(&entry).expect("miss trains and stores");
        let second = cache.fetch(&key).unwrap().0;
        // A retrain would have stored again: a new file renamed into place.
        let after = std::fs::metadata(&entry).unwrap();
        assert_eq!(
            after.modified().unwrap(),
            written.modified().unwrap(),
            "hit does not retrain"
        );
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            assert_eq!(after.ino(), written.ino(), "hit does not retrain");
        }
        assert_eq!(first.to_bytes(), second.to_bytes(), "hit is byte-identical");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn infer_and_train_streams_never_collide() {
        let cache = tmp_cache("phase");
        let train = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 5,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        let infer = CacheKey {
            phase: ExecPhase::Infer,
            ..train.clone()
        };
        // Phase is digest material: disjoint ids, disjoint paths.
        assert_ne!(train.id(), infer.id());
        assert_ne!(cache.path_for(&train), cache.path_for(&infer));
        // An infer miss captures a forward-only stream with the phase
        // recorded in its metadata and no gradient payload.
        let run = cache.fetch(&infer).unwrap().0;
        assert_eq!(run.meta.phase, "infer");
        assert_eq!(run.meta.grad_bytes, 0);
        // Even a hand-planted phase crossover is rejected on load.
        std::fs::write(cache.path_for(&train), run.to_bytes()).unwrap();
        assert!(cache.load(&train).is_none());
        assert!(cache.load(&infer).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entry_is_a_miss() {
        let cache = tmp_cache("corrupt");
        let key = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 7,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.path_for(&key), b"definitely not a stream").unwrap();
        assert!(cache.load(&key).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mismatched_entry_is_rejected() {
        let cache = tmp_cache("mismatch");
        let key_a = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 1,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        let key_b = CacheKey {
            seed: 2,
            ..key_a.clone()
        };
        let run = cache.fetch(&key_a).unwrap().0;
        // Plant key A's bytes at key B's path: metadata check rejects it.
        std::fs::write(cache.path_for(&key_b), run.to_bytes()).unwrap();
        assert!(cache.load(&key_b).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
