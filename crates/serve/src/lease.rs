//! Lock-file-arbitrated job leases with TTL expiry and heartbeats.
//!
//! Every daemon process sharing a `--store` directory competes for jobs
//! by claiming `locks/job-<id>.lock`. A claim is an atomic
//! [`std::fs::hard_link`] of a prepared temp file onto the lock path —
//! link creation fails if the path exists, so exactly one claimer wins
//! without any advisory-locking syscalls. The file body is
//! `worker-id\nexpiry-unix-ms\n`.
//!
//! The claim winner heartbeats (rewrites the expiry) every `ttl / 3`. A
//! worker that is SIGKILL'd stops heartbeating; once `now > expiry` any
//! peer may *steal* the lease: the stealer atomically renames the stale
//! lock aside (only one renamer wins the race) and claims fresh. The
//! store's `requeue` fold rule (running-only) and first-`done`-wins rule
//! make the rare steal-during-GC-pause race harmless: at worst both
//! workers finish the job, and the second completion is dropped.

use std::path::{Path, PathBuf};
use std::time::Duration;

use gnnmark_telemetry::metrics;

use crate::store::now_unix_ms;

/// Arbitration for one store's `locks/` directory.
#[derive(Debug, Clone)]
pub struct LeaseManager {
    locks_dir: PathBuf,
    worker_id: String,
    ttl: Duration,
}

/// A held lease on one job. Dropping it does NOT release — call
/// [`release`](Lease::release) (or let expiry reclaim it), so a panicking
/// worker thread behaves exactly like a killed process.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    worker_id: String,
    ttl: Duration,
    job_id: u64,
}

fn lock_body(worker_id: &str, ttl: Duration) -> String {
    format!("{worker_id}\n{}\n", now_unix_ms() + ttl.as_millis() as u64)
}

/// Parses `worker-id\nexpiry-unix-ms\n`; `None` on malformed content.
fn parse_lock(text: &str) -> Option<(String, u64)> {
    let mut lines = text.lines();
    let worker = lines.next()?.to_string();
    let expiry = lines.next()?.trim().parse().ok()?;
    Some((worker, expiry))
}

impl LeaseManager {
    /// A manager for `store_dir/locks`, claiming as `worker_id` with the
    /// given TTL. Workers sharing a store should use distinct ids (the
    /// daemon defaults to `host-pid`).
    pub fn new(store_dir: &Path, worker_id: impl Into<String>, ttl: Duration) -> LeaseManager {
        LeaseManager {
            locks_dir: store_dir.join("locks"),
            worker_id: worker_id.into(),
            ttl,
        }
    }

    /// This manager's worker id.
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// The configured lease TTL.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    fn lock_path(&self, job_id: u64) -> PathBuf {
        self.locks_dir.join(format!("job-{job_id}.lock"))
    }

    /// Attempts to claim `job_id`. Returns `Ok(None)` when another worker
    /// holds a live lease. A lease whose expiry has passed is stolen.
    ///
    /// # Errors
    /// Propagates filesystem errors (not claim conflicts).
    pub fn try_claim(&self, job_id: u64) -> std::io::Result<Option<Lease>> {
        std::fs::create_dir_all(&self.locks_dir)?;
        let lock = self.lock_path(job_id);
        let tmp = self
            .locks_dir
            .join(format!(".claim-{}-{job_id}", sanitize(&self.worker_id)));
        std::fs::write(&tmp, lock_body(&self.worker_id, self.ttl))?;
        let linked = std::fs::hard_link(&tmp, &lock);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => {
                metrics::counter_add("gnnmark_lease_claims_total", 1);
                Ok(Some(Lease {
                    path: lock,
                    worker_id: self.worker_id.clone(),
                    ttl: self.ttl,
                    job_id,
                }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let held = std::fs::read_to_string(&lock)
                    .ok()
                    .and_then(|t| parse_lock(&t));
                match held {
                    Some((_, expiry)) if now_unix_ms() > expiry => {
                        // Stale: rename aside (exactly one racer succeeds),
                        // then retry the claim from scratch.
                        let aside = self
                            .locks_dir
                            .join(format!(".stale-{}-{job_id}", sanitize(&self.worker_id)));
                        if std::fs::rename(&lock, &aside).is_ok() {
                            let _ = std::fs::remove_file(&aside);
                            metrics::counter_add("gnnmark_lease_steals_total", 1);
                            return self.try_claim(job_id);
                        }
                        Ok(None)
                    }
                    // Live lease, unreadable (mid-steal), or already gone.
                    _ => Ok(None),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Whether `job_id` has no live lease: the lock file is absent (its
    /// worker died before heartbeating or released without completing)
    /// or its expiry has passed. Drives the requeue scan.
    pub fn is_dead(&self, job_id: u64) -> bool {
        match std::fs::read_to_string(self.lock_path(job_id)) {
            Ok(text) => match parse_lock(&text) {
                Some((_, expiry)) => now_unix_ms() > expiry,
                None => true,
            },
            Err(_) => true,
        }
    }
}

fn sanitize(worker: &str) -> String {
    worker
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Lease {
    /// The leased job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Whether this worker still owns the lock file and the lease is
    /// unexpired. Checked before recording completion, so a worker that
    /// lost its lease during a long stall defers to the thief.
    pub fn still_held(&self) -> bool {
        std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|t| parse_lock(&t))
            .is_some_and(|(w, expiry)| w == self.worker_id && now_unix_ms() <= expiry)
    }

    /// Extends the lease by rewriting the expiry. Returns `Ok(false)` if
    /// the lease was lost (stolen after expiry) — the worker should
    /// abandon the job and let the thief finish it.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn heartbeat(&self) -> std::io::Result<bool> {
        if !self.still_held() {
            metrics::counter_add("gnnmark_lease_lost_total", 1);
            return Ok(false);
        }
        let tmp = self.path.with_extension("lock.hb");
        std::fs::write(&tmp, lock_body(&self.worker_id, self.ttl))?;
        std::fs::rename(&tmp, &self.path)?;
        metrics::counter_add("gnnmark_lease_heartbeats_total", 1);
        Ok(true)
    }

    /// Releases the lease if still held (completion or terminal failure
    /// recorded). A lost lease is left for its thief.
    pub fn release(self) {
        if self.still_held() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnmark_lease_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("locks")).unwrap();
        dir
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let dir = tmp("excl");
        let ttl = Duration::from_secs(30);
        let a = LeaseManager::new(&dir, "worker-a", ttl);
        let b = LeaseManager::new(&dir, "worker-b", ttl);
        let lease = a.try_claim(7).unwrap().expect("first claim wins");
        assert!(lease.still_held());
        assert!(b.try_claim(7).unwrap().is_none(), "held lease blocks b");
        assert!(!a.is_dead(7));
        lease.release();
        assert!(b.try_claim(7).unwrap().is_some(), "released lease is free");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_is_stolen_and_loser_defers() {
        let dir = tmp("steal");
        let a = LeaseManager::new(&dir, "worker-a", Duration::from_millis(30));
        let b = LeaseManager::new(&dir, "worker-b", Duration::from_secs(30));
        let dead = a.try_claim(3).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert!(a.is_dead(3), "expired lease reads as dead");
        let stolen = b.try_claim(3).unwrap().expect("expired lease is stolen");
        assert!(stolen.still_held());
        // The original holder notices it lost: no heartbeat, no ownership.
        assert!(!dead.still_held());
        assert!(!dead.heartbeat().unwrap());
        // And releasing the lost lease must not evict the thief.
        dead.release();
        assert!(stolen.still_held());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_extends_expiry() {
        let dir = tmp("hb");
        let a = LeaseManager::new(&dir, "worker-a", Duration::from_millis(200));
        let lease = a.try_claim(1).unwrap().unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(80));
            assert!(lease.heartbeat().unwrap(), "heartbeat keeps the lease");
        }
        assert!(!a.is_dead(1), "heartbeaten lease outlives its base TTL");
        std::thread::sleep(Duration::from_millis(260));
        assert!(a.is_dead(1), "without heartbeats the lease expires");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_lock_reads_as_dead() {
        let dir = tmp("absent");
        let a = LeaseManager::new(&dir, "worker-a", Duration::from_secs(1));
        assert!(a.is_dead(42), "no lock file means no live lease");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
