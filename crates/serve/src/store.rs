//! Durable, crash-recoverable job store: an append-only write-ahead log
//! plus a periodic snapshot, shared by every daemon process pointed at
//! the same `--store` directory.
//!
//! ## On-disk layout
//!
//! ```text
//! <store>/
//!   wal.log        8-byte LE generation header, then framed records
//!   snapshot.json  compacted resident job table (generation, next_id, jobs[])
//!   archive        framed terminal jobs moved out of the resident table
//!   wal.lock       cross-process append mutex (`flock`ed, never removed)
//!   locks/         per-job lease files (see `lease`)
//!   jobs/          `job-<id>.bundle`: a finished job's artifacts, one frame each
//! ```
//!
//! ## Record framing
//!
//! Every record is `u32 LE payload-length | u64 LE FNV-1a(payload) |
//! payload`, where the payload is one self-describing JSON object
//! (`{"type":"submit",...}`). A reader stops at the first frame whose
//! length or checksum does not verify — that is by construction the torn
//! tail of a crashed writer, and the next mutex-holding appender
//! truncates it away before appending. Records never change once
//! written; recovery is a pure left-fold over `snapshot + log`.
//!
//! ## Fold semantics (exactly-once by construction)
//!
//! * `submit` inserts a job in `queued`; duplicate ids are ignored.
//! * `claim` moves `queued → running` and names the claiming worker.
//! * `done` is **first-writer-wins**: a second `done` for the same job
//!   (possible only under a lease-steal race) is dropped, so a job
//!   completes exactly once no matter how many workers raced.
//! * `failed` is ignored once a job is `done`.
//! * `requeue` only applies to a `running` job (so two workers
//!   concurrently detecting the same dead lease cannot double-requeue).
//!
//! A job found `running` at recovery whose lease has expired is re-queued
//! (`requeues` is incremented and capped) — a `SIGKILL`'d worker loses
//! the job to a peer or to its own restart, and the replay cache
//! guarantees the re-run never re-trains an already-captured stream.
//!
//! ## Compaction
//!
//! Appends under one mutex acquisition also fold into the in-memory
//! view; every `COMPACT_EVERY` records (or on demand at drain) the view
//! is written to `snapshot.json` (write-then-rename, fsync'd) and the
//! log is replaced by an empty one with a bumped generation header.
//! Other processes detect the generation change and reload.
//!
//! ## Archive (bounded resident view)
//!
//! The view, and so every snapshot, holds the live jobs plus only the
//! newest `RESIDENT_TERMINAL` (128) `done`/`failed` ones. Compaction first
//! appends every older terminal job to `archive` — one frame per job,
//! the same framing as the log, the payload being the job as the
//! snapshot would have written it — and fsyncs it *before* the snapshot
//! that omits those jobs is renamed into place, so a crash in between
//! leaves a job in both (the archive copy wins on reload), never in
//! neither. The archive is append-only; each handle keeps an
//! `id → offset` index over it and extends the index from its own last
//! offset whenever it reloads. An archived job is frozen: [`JobStore::job`]
//! reads it back from the file, and a late record for its id is a fold
//! no-op (first-`done`-wins holds trivially). Ids come from a `next_id`
//! the snapshot persists, not from the largest resident key, so they are
//! never reused however little stays resident.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
#[cfg(not(unix))]
use std::time::{Duration, Instant};
use std::time::{SystemTime, UNIX_EPOCH};

use gnnmark_gpusim::stream::fnv1a_64;
use gnnmark_telemetry::export::{json_escape, parse_json, JsonValue};
use gnnmark_telemetry::metrics;

const LOG_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.json";
const MUTEX_FILE: &str = "wal.lock";
const ARCHIVE_FILE: &str = "archive";
const GEN_HEADER: u64 = 8;
/// Frame header: `u32` payload length, `u64` FNV-1a of the payload.
const FRAME_HEADER: u64 = 12;
/// Terminal (`done`/`failed`) jobs kept in the resident view; compaction
/// moves older ones to the archive file.
const RESIDENT_TERMINAL: usize = 128;
/// Records accumulated since the last snapshot before an append triggers
/// compaction.
const COMPACT_EVERY: u64 = 512;
/// A `wal.lock` older than this is considered abandoned by a crashed
/// process and broken. Appends take milliseconds; this is three orders
/// of magnitude above that.
#[cfg(not(unix))]
const MUTEX_STALE: Duration = Duration::from_secs(10);

/// Milliseconds since the Unix epoch (also used by lease expiries).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A cross-process mutex: an exclusive `flock(2)` on the store's lock
/// file, held for milliseconds around one append or compaction.
///
/// The file is created once and stays; taking the mutex allocates and
/// frees no inode, so an append costs the same whatever else the
/// filesystem has been doing. The kernel drops the lock when its holder
/// exits or is killed, so there is no staleness rule.
#[cfg(unix)]
struct DirMutex {
    _file: File,
}

#[cfg(unix)]
impl DirMutex {
    fn acquire(path: PathBuf) -> std::io::Result<DirMutex> {
        use std::ffi::c_int;
        use std::os::fd::AsRawFd;
        // `std` already links libc; declaring the one call we need keeps
        // the crate dependency-free (as `serve::http` does for `poll`).
        extern "C" {
            fn flock(fd: c_int, operation: c_int) -> c_int;
        }
        const LOCK_EX: c_int = 2;

        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        loop {
            // SAFETY: `file` is open for the whole call, and `flock` reads
            // nothing but its two integer arguments.
            if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
                // Released when `_file` closes: every `acquire` opens its
                // own description, so handles and threads of one process
                // exclude each other like separate processes do.
                return Ok(DirMutex { _file: file });
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

/// Without `flock`: a lock file created with `O_EXCL` and removed on
/// drop. One whose mtime is older than [`MUTEX_STALE`] is treated as
/// abandoned by a killed process and broken; the breaking race window is
/// orders of magnitude smaller than the staleness threshold.
#[cfg(not(unix))]
struct DirMutex {
    path: PathBuf,
}

#[cfg(not(unix))]
impl DirMutex {
    fn acquire(path: PathBuf) -> std::io::Result<DirMutex> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{} {}", std::process::id(), now_unix_ms());
                    return Ok(DirMutex { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > MUTEX_STALE);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() > deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("timed out acquiring {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(not(unix))]
impl Drop for DirMutex {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Durable job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a worker claim.
    Queued,
    /// Claimed by a worker holding a live lease.
    Running,
    /// Completed; artifacts are on disk under `result_dir`.
    Done,
    /// Terminally failed (all attempts and requeues exhausted).
    Failed,
}

impl JobState {
    /// Lower-case wire label (`queued`/`running`/`done`/`failed`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

/// One job as reconstructed from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredJob {
    /// Monotonic id, unique across every worker sharing the store.
    pub id: u64,
    /// Campaign name (from the spec; output directory component).
    pub name: String,
    /// The submitted campaign spec, verbatim JSON.
    pub spec_json: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Failure detail (empty unless `Failed`).
    pub detail: String,
    /// Worker currently (or last) responsible for the job.
    pub worker: Option<String>,
    /// Resilient-runner attempts consumed, summed across requeues.
    pub attempts: u64,
    /// Times the job was re-queued after its worker died mid-flight.
    pub requeues: u64,
    /// Deterministic faults injected into this job's workers.
    pub faults_injected: u64,
    /// Latest progress message from the executing worker.
    pub progress: String,
    /// Artifact names (the frames of the bundle at `result_dir`).
    pub artifacts: Vec<String>,
    /// The artifact bundle, relative to the store root (a directory of
    /// the same names for a job an older daemon finished).
    pub result_dir: Option<String>,
}

impl StoredJob {
    pub(crate) fn new(id: u64, name: String, spec_json: String) -> StoredJob {
        StoredJob {
            id,
            name,
            spec_json,
            state: JobState::Queued,
            detail: String::new(),
            worker: None,
            attempts: 0,
            requeues: 0,
            faults_injected: 0,
            progress: String::new(),
            artifacts: Vec::new(),
            result_dir: None,
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        s.push_str(&format!("\"id\":{},", self.id));
        s.push_str(&format!("\"name\":\"{}\",", json_escape(&self.name)));
        s.push_str(&format!("\"spec\":\"{}\",", json_escape(&self.spec_json)));
        s.push_str(&format!("\"state\":\"{}\",", self.state.label()));
        s.push_str(&format!("\"detail\":\"{}\",", json_escape(&self.detail)));
        match &self.worker {
            Some(w) => s.push_str(&format!("\"worker\":\"{}\",", json_escape(w))),
            None => s.push_str("\"worker\":null,"),
        }
        s.push_str(&format!("\"attempts\":{},", self.attempts));
        s.push_str(&format!("\"requeues\":{},", self.requeues));
        s.push_str(&format!("\"faults\":{},", self.faults_injected));
        s.push_str(&format!(
            "\"progress\":\"{}\",",
            json_escape(&self.progress)
        ));
        s.push_str("\"artifacts\":[");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", json_escape(a)));
        }
        s.push_str("],");
        match &self.result_dir {
            Some(d) => s.push_str(&format!("\"result_dir\":\"{}\"", json_escape(d))),
            None => s.push_str("\"result_dir\":null"),
        }
        s.push('}');
        s
    }

    fn from_json(v: &JsonValue) -> Option<StoredJob> {
        let mut job = StoredJob::new(
            v.get("id")?.as_u64()?,
            v.get("name")?.as_str()?.to_string(),
            v.get("spec")?.as_str()?.to_string(),
        );
        job.state = JobState::parse(v.get("state")?.as_str()?)?;
        job.detail = v
            .get("detail")
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string();
        job.worker = v.get("worker").and_then(|x| x.as_str()).map(str::to_string);
        job.attempts = v.get("attempts").and_then(|x| x.as_u64()).unwrap_or(0);
        job.requeues = v.get("requeues").and_then(|x| x.as_u64()).unwrap_or(0);
        job.faults_injected = v.get("faults").and_then(|x| x.as_u64()).unwrap_or(0);
        job.progress = v
            .get("progress")
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string();
        if let Some(arr) = v.get("artifacts").and_then(|x| x.as_array()) {
            job.artifacts = arr
                .iter()
                .filter_map(|a| a.as_str().map(str::to_string))
                .collect();
        }
        job.result_dir = v
            .get("result_dir")
            .and_then(|x| x.as_str())
            .map(str::to_string);
        Some(job)
    }
}

#[derive(Debug, Default)]
struct View {
    /// Resident jobs: every live one, the newest terminal ones.
    jobs: BTreeMap<u64, StoredJob>,
    /// The id the next submission gets.
    next_id: u64,
    /// Snapshot generation the current log belongs to.
    generation: u64,
    /// Bytes of `wal.log` consumed (including the generation header).
    log_offset: u64,
    records_since_snapshot: u64,
    /// Frame offset in `archive` of every archived job.
    archived: BTreeMap<u64, u64>,
    /// Bytes of `archive` indexed so far.
    archive_offset: u64,
}

/// The WAL-backed job store. Cheap to clone a handle via `Arc`; safe to
/// open from any number of processes sharing the directory.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    inner: Mutex<View>,
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `dir`, recovering
    /// state by loading the snapshot and replaying the log. A torn log
    /// tail left by a crashed writer is truncated away here.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<JobStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        std::fs::create_dir_all(dir.join("locks"))?;
        std::fs::create_dir_all(dir.join("jobs"))?;
        let store = JobStore {
            dir,
            inner: Mutex::new(View::default()),
        };
        {
            // Repair under the append mutex: truncate any torn tail and
            // make the log's generation header match the snapshot.
            let _guard = DirMutex::acquire(store.dir.join(MUTEX_FILE))?;
            let mut view = store.inner.lock().unwrap();
            store.reload_locked(&mut view, true)?;
        }
        Ok(store)
    }

    /// The store root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    fn archive_path(&self) -> PathBuf {
        self.dir.join(ARCHIVE_FILE)
    }

    /// Reads the snapshot (if any) into a fresh view, then replays the
    /// log. With `repair` (mutex held), truncates the torn tail and
    /// recreates a stale-generation log.
    fn reload_locked(&self, view: &mut View, repair: bool) -> std::io::Result<()> {
        // The archive is append-only, so what this handle has already
        // indexed stays valid across reloads.
        let mut fresh = View {
            archived: std::mem::take(&mut view.archived),
            archive_offset: view.archive_offset,
            ..View::default()
        };
        if let Ok(text) = std::fs::read_to_string(self.snapshot_path()) {
            if let Ok(v) = parse_json(&text) {
                fresh.generation = v.get("generation").and_then(|x| x.as_u64()).unwrap_or(0);
                fresh.next_id = v.get("next_id").and_then(|x| x.as_u64()).unwrap_or(0);
                if let Some(arr) = v.get("jobs").and_then(|x| x.as_array()) {
                    for j in arr {
                        if let Some(job) = StoredJob::from_json(j) {
                            fresh.jobs.insert(job.id, job);
                        }
                    }
                }
            }
        }
        // Snapshot first, archive second — the reverse of the order
        // compaction writes them in — so a job a concurrent compaction is
        // moving shows up in at least one of the two; the archive's copy
        // wins when it shows up in both.
        self.index_archive_locked(&mut fresh, repair)?;
        let View { jobs, archived, .. } = &mut fresh;
        jobs.retain(|id, _| !archived.contains_key(id));
        // Snapshots written before `next_id` existed: derive it.
        for last in [
            fresh.jobs.keys().next_back(),
            fresh.archived.keys().next_back(),
        ] {
            fresh.next_id = fresh.next_id.max(last.map_or(0, |id| id.saturating_add(1)));
        }

        let log = self.log_path();
        let mut file = open_if_exists(&log)?;
        let log_gen = file.as_mut().and_then(read_generation);
        if log_gen != Some(fresh.generation) {
            // A crash between the snapshot rename and the log recreate
            // leaves an old-generation log whose records are already
            // folded into the snapshot: recreate it empty. (A log NEWER
            // than the snapshot only happens if the snapshot was deleted
            // by hand; replay it on top as best effort.)
            match log_gen {
                Some(g) if g > fresh.generation => {
                    fresh.generation = g;
                }
                _ => {
                    if repair {
                        write_empty_log(&log, fresh.generation)?;
                    }
                    fresh.log_offset = GEN_HEADER;
                    *view = fresh;
                    return Ok(());
                }
            }
        }
        let file = file.expect("a log with a generation header is open");
        let len = file.metadata()?.len();
        let valid_end = GEN_HEADER + replay_records(&mut BufReader::new(file), &mut fresh);
        if repair && valid_end < len {
            truncate(&log, valid_end)?;
        }
        fresh.log_offset = valid_end;
        *view = fresh;
        Ok(())
    }

    /// Extends the archive index with the frames appended since this
    /// handle last looked. With `repair` (mutex held), truncates a torn
    /// tail a crashed compaction left.
    fn index_archive_locked(&self, view: &mut View, repair: bool) -> std::io::Result<()> {
        let path = self.archive_path();
        let Some(mut file) = open_if_exists(&path)? else {
            return Ok(());
        };
        let len = file.metadata()?.len();
        if len > view.archive_offset {
            file.seek(SeekFrom::Start(view.archive_offset))?;
            let mut reader = BufReader::new(file);
            let mut payload = Vec::new();
            while read_frame(&mut reader, &mut payload) {
                let id = payload_json(&payload).and_then(|v| v.get("id")?.as_u64());
                if let Some(id) = id {
                    view.archived.entry(id).or_insert(view.archive_offset);
                }
                view.archive_offset += FRAME_HEADER + payload.len() as u64;
            }
            if repair && view.archive_offset < len {
                truncate(&path, view.archive_offset)?;
            }
        }
        Ok(())
    }

    /// Incorporates records appended by other processes since the last
    /// look. Read-only: never repairs; a torn tail simply isn't consumed
    /// yet. Detects compaction (generation change / log shrinkage) and
    /// falls back to a full reload.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn refresh(&self) -> std::io::Result<()> {
        let mut view = self.inner.lock().unwrap();
        self.refresh_locked(&mut view).map(|_| ())
    }

    /// Reads the generation header and the bytes past `view.log_offset`
    /// only; returns how many log bytes it folded.
    fn refresh_locked(&self, view: &mut View) -> std::io::Result<u64> {
        let Some(mut file) = open_if_exists(&self.log_path())? else {
            return Ok(0);
        };
        let len = file.metadata()?.len();
        if read_generation(&mut file) != Some(view.generation) || len < view.log_offset {
            self.reload_locked(view, false)?;
            return Ok(view.log_offset - GEN_HEADER);
        }
        if len == view.log_offset {
            return Ok(0);
        }
        file.seek(SeekFrom::Start(view.log_offset))?;
        let folded = replay_records(&mut BufReader::new(file), view);
        view.log_offset += folded;
        Ok(folded)
    }

    /// Submits a job: allocates the next id under the cross-process
    /// mutex, asks `make` for the `(campaign-name, spec-json)` pair for
    /// that id, and appends the `submit` record.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn submit_with(&self, make: impl FnOnce(u64) -> (String, String)) -> std::io::Result<u64> {
        let guard = DirMutex::acquire(self.dir.join(MUTEX_FILE))?;
        let mut view = self.inner.lock().unwrap();
        self.refresh_locked(&mut view)?;
        let id = view.next_id;
        let (name, spec_json) = make(id);
        let payload = format!(
            "{{\"type\":\"submit\",\"id\":{id},\"name\":\"{}\",\"spec\":\"{}\"}}",
            json_escape(&name),
            json_escape(&spec_json)
        );
        self.append_locked(&mut view, &payload)?;
        drop(guard);
        metrics::counter_add("gnnmark_store_submits_total", 1);
        Ok(id)
    }

    fn append(&self, payload: &str) -> std::io::Result<()> {
        let guard = DirMutex::acquire(self.dir.join(MUTEX_FILE))?;
        let mut view = self.inner.lock().unwrap();
        self.refresh_locked(&mut view)?;
        self.append_locked(&mut view, payload)?;
        drop(guard);
        Ok(())
    }

    /// Appends one framed record (mutex + view lock held by caller),
    /// folds it into the view, and compacts when due. Truncates a torn
    /// tail first so the new record is always reachable by scan.
    fn append_locked(&self, view: &mut View, payload: &str) -> std::io::Result<()> {
        let log = self.log_path();
        if !log.exists() {
            write_empty_log(&log, view.generation)?;
            view.log_offset = GEN_HEADER;
        }
        let actual_len = std::fs::metadata(&log)?.len();
        if actual_len > view.log_offset {
            // Unconsumed bytes past our offset that refresh could not
            // parse: a torn tail from a crashed writer. Truncate it.
            truncate(&log, view.log_offset)?;
        }
        let frame = frame_record(payload);
        let mut f = OpenOptions::new().append(true).open(&log)?;
        f.write_all(&frame)?;
        f.sync_data()?;
        if let Ok(v) = parse_json(payload) {
            fold(view, &v);
        }
        view.log_offset += frame.len() as u64;
        view.records_since_snapshot += 1;
        metrics::counter_add("gnnmark_store_appends_total", 1);
        if view.records_since_snapshot >= COMPACT_EVERY {
            self.compact_locked(view)?;
        }
        Ok(())
    }

    /// Records a worker's claim on a queued job.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn record_claim(&self, id: u64, worker: &str) -> std::io::Result<()> {
        self.append(&format!(
            "{{\"type\":\"claim\",\"id\":{id},\"worker\":\"{}\"}}",
            json_escape(worker)
        ))
    }

    /// Records a progress message for a running job.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn record_progress(&self, id: u64, msg: &str) -> std::io::Result<()> {
        self.append(&format!(
            "{{\"type\":\"progress\",\"id\":{id},\"msg\":\"{}\"}}",
            json_escape(msg)
        ))
    }

    /// Writes a finished job's artifacts — `(name, body)` pairs — as one
    /// file, `jobs/job-<id>.bundle`, and returns its path relative to the
    /// store root (what [`record_done`](Self::record_done) takes as the
    /// result location). One frame per artifact, framed like a log record,
    /// payload `name\nbody`. A job costs the filesystem one inode however
    /// many artifacts it has: creating a file is the one store operation
    /// whose cost the filesystem's recent history sets (ext4 steps over
    /// every recently freed inode of the block group to find a usable
    /// one), and a replay job is otherwise a few hundred microseconds.
    /// Written aside and renamed in, so a reader — or the re-run of a
    /// requeued job — never sees half a bundle.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_artifacts(
        &self,
        id: u64,
        artifacts: &[(String, String)],
    ) -> std::io::Result<String> {
        let rel = format!("jobs/job-{id}.bundle");
        let path = self.dir.join(&rel);
        std::fs::create_dir_all(self.dir.join("jobs"))?;
        let mut bytes = Vec::new();
        for (name, body) in artifacts {
            bytes.extend_from_slice(&frame_record(&format!("{name}\n{body}")));
        }
        let tmp = path.with_extension(format!("bundle.{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(rel)
    }

    /// The `(name, body)` artifacts a finished job recorded, in the order
    /// they were written; empty when it has none or the bundle is gone.
    pub fn artifacts(&self, job: &StoredJob) -> Vec<(String, String)> {
        let Some(rel) = &job.result_dir else {
            return Vec::new();
        };
        let path = self.dir.join(rel);
        if path.is_dir() {
            // Finished by a daemon that wrote one file per artifact.
            return job
                .artifacts
                .iter()
                .filter_map(|n| Some((n.clone(), std::fs::read_to_string(path.join(n)).ok()?)))
                .collect();
        }
        let Ok(file) = File::open(&path) else {
            return Vec::new();
        };
        let mut reader = BufReader::new(file);
        let mut payload = Vec::new();
        let mut out = Vec::new();
        while read_frame(&mut reader, &mut payload) {
            if let Some((name, body)) = String::from_utf8_lossy(&payload).split_once('\n') {
                out.push((name.to_string(), body.to_string()));
            }
        }
        out
    }

    /// Records a job's successful completion with its on-disk result
    /// location. First-writer-wins: a duplicate `done` is a fold no-op.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn record_done(
        &self,
        id: u64,
        worker: &str,
        result_dir: &str,
        artifacts: &[String],
        attempts: u64,
        faults: u64,
    ) -> std::io::Result<()> {
        let list: Vec<String> = artifacts
            .iter()
            .map(|a| format!("\"{}\"", json_escape(a)))
            .collect();
        self.append(&format!(
            "{{\"type\":\"done\",\"id\":{id},\"worker\":\"{}\",\"result_dir\":\"{}\",\
             \"artifacts\":[{}],\"attempts\":{attempts},\"faults\":{faults}}}",
            json_escape(worker),
            json_escape(result_dir),
            list.join(",")
        ))
    }

    /// Records a job's terminal failure.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn record_failed(
        &self,
        id: u64,
        worker: &str,
        error: &str,
        attempts: u64,
        faults: u64,
    ) -> std::io::Result<()> {
        self.append(&format!(
            "{{\"type\":\"failed\",\"id\":{id},\"worker\":\"{}\",\"error\":\"{}\",\
             \"attempts\":{attempts},\"faults\":{faults}}}",
            json_escape(worker),
            json_escape(error)
        ))
    }

    /// Re-queues a running job whose worker died (lease expired). A
    /// requeue of a job that is no longer running is a fold no-op, so
    /// concurrent detectors cannot double-requeue.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn record_requeue(&self, id: u64, reason: &str) -> std::io::Result<()> {
        metrics::counter_add("gnnmark_store_requeues_total", 1);
        self.append(&format!(
            "{{\"type\":\"requeue\",\"id\":{id},\"reason\":\"{}\"}}",
            json_escape(reason)
        ))
    }

    /// One job by id: from the current view (call [`refresh`](Self::refresh)
    /// first for cross-process freshness), else from the archive file.
    pub fn job(&self, id: u64) -> Option<StoredJob> {
        let offset = {
            let view = self.inner.lock().unwrap();
            if let Some(job) = view.jobs.get(&id) {
                return Some(job.clone());
            }
            *view.archived.get(&id)?
        };
        let mut file = File::open(self.archive_path()).ok()?;
        file.seek(SeekFrom::Start(offset)).ok()?;
        let mut payload = Vec::new();
        if !read_frame(&mut file, &mut payload) {
            return None;
        }
        StoredJob::from_json(&payload_json(&payload)?)
    }

    /// Every resident job, ordered by id: all live ones and the newest
    /// terminal ones. Older terminal jobs are counted by
    /// [`archived_jobs`](Self::archived_jobs) and reachable by id.
    pub fn jobs(&self) -> Vec<StoredJob> {
        self.inner.lock().unwrap().jobs.values().cloned().collect()
    }

    /// How many terminal jobs have been moved to the archive file.
    pub fn archived_jobs(&self) -> usize {
        self.inner.lock().unwrap().archived.len()
    }

    /// The lowest-id queued job, if any.
    pub fn next_queued(&self) -> Option<StoredJob> {
        self.inner
            .lock()
            .unwrap()
            .jobs
            .values()
            .find(|j| j.state == JobState::Queued)
            .cloned()
    }

    /// Jobs currently marked running (their leases may or may not still
    /// be live — callers cross-check with the lease manager).
    pub fn running_jobs(&self) -> Vec<StoredJob> {
        self.inner
            .lock()
            .unwrap()
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .cloned()
            .collect()
    }

    /// Re-queues every running job whose lease `is_dead` reports expired
    /// or absent; jobs over the requeue budget fail terminally instead.
    /// Returns the ids re-queued.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn recover_dead(
        &self,
        max_requeues: u64,
        is_dead: impl Fn(u64) -> bool,
    ) -> std::io::Result<Vec<u64>> {
        let mut requeued = Vec::new();
        for job in self.running_jobs() {
            if !is_dead(job.id) {
                continue;
            }
            if job.requeues >= max_requeues {
                self.record_failed(
                    job.id,
                    job.worker.as_deref().unwrap_or("unknown"),
                    &format!("exceeded {max_requeues} requeue(s) after worker death"),
                    job.attempts,
                    job.faults_injected,
                )?;
            } else {
                self.record_requeue(job.id, "lease expired (worker died)")?;
                metrics::counter_add("gnnmark_store_recovered_jobs_total", 1);
                requeued.push(job.id);
            }
        }
        Ok(requeued)
    }

    /// Compacts now: snapshot the view, bump the generation, empty the
    /// log. Also the drain-hook path (final WAL flush on shutdown).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn compact(&self) -> std::io::Result<()> {
        let guard = DirMutex::acquire(self.dir.join(MUTEX_FILE))?;
        let mut view = self.inner.lock().unwrap();
        self.refresh_locked(&mut view)?;
        self.compact_locked(&mut view)?;
        drop(guard);
        Ok(())
    }

    fn compact_locked(&self, view: &mut View) -> std::io::Result<()> {
        self.archive_older_locked(view, RESIDENT_TERMINAL)?;
        let next_gen = view.generation + 1;
        let mut s = String::with_capacity(4096);
        s.push_str(&format!(
            "{{\"generation\":{next_gen},\"next_id\":{},\"jobs\":[",
            view.next_id
        ));
        for (i, job) in view.jobs.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&job.to_json());
        }
        s.push_str("]}");
        // Snapshot first, then the log: a crash in between leaves an
        // old-generation log whose records are already in the snapshot,
        // which reload detects and discards.
        let tmp = self.snapshot_path().with_extension("json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(s.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        write_empty_log(&self.log_path(), next_gen)?;
        view.generation = next_gen;
        view.log_offset = GEN_HEADER;
        view.records_since_snapshot = 0;
        metrics::counter_add("gnnmark_store_compactions_total", 1);
        Ok(())
    }

    /// Moves every terminal job beyond the newest `keep` from the view to
    /// the archive file (mutex held). The frames are durable — one fsync —
    /// before any job leaves the view, and so before the snapshot that
    /// omits them is written.
    fn archive_older_locked(&self, view: &mut View, keep: usize) -> std::io::Result<()> {
        let terminal: Vec<u64> = view
            .jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Done | JobState::Failed))
            .map(|j| j.id)
            .collect();
        let excess = terminal.len().saturating_sub(keep);
        if excess == 0 {
            return Ok(());
        }
        // Index what peers archived, and drop a torn tail, so the new
        // frames land at `archive_offset`.
        self.index_archive_locked(view, true)?;
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.archive_path())?;
        let mut writer = BufWriter::new(file);
        let mut end = view.archive_offset;
        let mut offsets = Vec::with_capacity(excess);
        for id in &terminal[..excess] {
            if !view.archived.contains_key(id) {
                let frame = frame_record(&view.jobs[id].to_json());
                writer.write_all(&frame)?;
                offsets.push((*id, end));
                end += frame.len() as u64;
            }
        }
        writer.flush()?;
        writer.get_ref().sync_all()?;
        view.archive_offset = end;
        view.archived.extend(offsets);
        for id in &terminal[..excess] {
            view.jobs.remove(id);
        }
        metrics::counter_add("gnnmark_store_archived_jobs_total", excess as u64);
        Ok(())
    }

    /// Raw record payloads currently in the log (diagnostics and tests —
    /// e.g. asserting exactly one `done` record per job). Does not
    /// include records already folded into the snapshot.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn dump_raw_records(dir: &Path) -> std::io::Result<Vec<String>> {
        let mut reader = BufReader::new(File::open(dir.join(LOG_FILE))?);
        reader.seek_relative(GEN_HEADER as i64)?;
        let mut out = Vec::new();
        let mut payload = Vec::new();
        while read_frame(&mut reader, &mut payload) {
            out.push(String::from_utf8_lossy(&payload).into_owned());
        }
        Ok(out)
    }
}

fn frame_record(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(bytes.len() + FRAME_HEADER as usize);
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a_64(bytes).to_le_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Reads the next frame's payload into `payload`; `false` at the end of
/// the file or on a short, oversized, or checksum-failing frame (the
/// torn tail).
fn read_frame(reader: &mut impl Read, payload: &mut Vec<u8>) -> bool {
    let mut header = [0u8; FRAME_HEADER as usize];
    if reader.read_exact(&mut header).is_err() {
        return false;
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > 16 << 20 {
        return false; // garbage length — cannot be a real record
    }
    let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    payload.resize(len, 0);
    reader.read_exact(payload).is_ok() && fnv1a_64(payload) == sum
}

/// The frame payload as the JSON object it was written from.
fn payload_json(payload: &[u8]) -> Option<JsonValue> {
    parse_json(&String::from_utf8_lossy(payload)).ok()
}

fn open_if_exists(path: &Path) -> std::io::Result<Option<File>> {
    match File::open(path) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn read_generation(log: &mut File) -> Option<u64> {
    let mut header = [0u8; GEN_HEADER as usize];
    log.read_exact(&mut header).ok()?;
    Some(u64::from_le_bytes(header))
}

/// Cuts a torn tail off `path` (mutex held by the caller).
fn truncate(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    metrics::counter_add("gnnmark_store_torn_tails_truncated_total", 1);
    Ok(())
}

fn write_empty_log(path: &Path, generation: u64) -> std::io::Result<()> {
    let tmp = path.with_extension("log.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&generation.to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Folds every valid frame `log` yields from its current position into
/// the view; returns the bytes those frames span.
fn replay_records(log: &mut impl Read, view: &mut View) -> u64 {
    let mut folded = 0;
    let mut payload = Vec::new();
    while read_frame(log, &mut payload) {
        if let Some(v) = payload_json(&payload) {
            fold(view, &v);
        }
        view.records_since_snapshot += 1;
        folded += FRAME_HEADER + payload.len() as u64;
    }
    folded
}

/// Folds one record into the view (see module docs for semantics).
fn fold(view: &mut View, rec: &JsonValue) {
    let Some(kind) = rec.get("type").and_then(|x| x.as_str()) else {
        return;
    };
    let Some(id) = rec.get("id").and_then(|x| x.as_u64()) else {
        return;
    };
    if kind == "submit" {
        view.next_id = view.next_id.max(id.saturating_add(1));
        if view.archived.contains_key(&id) {
            return;
        }
        // Insert-if-absent: a resubmitted id (replay after compaction)
        // never clobbers later state transitions.
        view.jobs.entry(id).or_insert_with(|| {
            let name = rec.get("name").and_then(|x| x.as_str()).unwrap_or("job");
            let spec = rec.get("spec").and_then(|x| x.as_str()).unwrap_or("{}");
            StoredJob::new(id, name.to_string(), spec.to_string())
        });
        return;
    }
    // An id that is not resident is unknown or archived; an archived job
    // is frozen, so either way the record changes nothing.
    let Some(job) = view.jobs.get_mut(&id) else {
        return;
    };
    match kind {
        "claim" if job.state == JobState::Queued || job.state == JobState::Running => {
            job.state = JobState::Running;
            job.worker = rec
                .get("worker")
                .and_then(|x| x.as_str())
                .map(str::to_string);
        }
        "progress" if job.state != JobState::Done && job.state != JobState::Failed => {
            job.progress = rec
                .get("msg")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string();
        }
        "done" if job.state != JobState::Done => {
            job.state = JobState::Done;
            job.detail.clear();
            job.worker = rec
                .get("worker")
                .and_then(|x| x.as_str())
                .map(str::to_string);
            job.result_dir = rec
                .get("result_dir")
                .and_then(|x| x.as_str())
                .map(str::to_string);
            if let Some(arr) = rec.get("artifacts").and_then(|x| x.as_array()) {
                job.artifacts = arr
                    .iter()
                    .filter_map(|a| a.as_str().map(str::to_string))
                    .collect();
            }
            job.attempts += rec.get("attempts").and_then(|x| x.as_u64()).unwrap_or(0);
            job.faults_injected += rec.get("faults").and_then(|x| x.as_u64()).unwrap_or(0);
        }
        "failed" if job.state != JobState::Done => {
            job.state = JobState::Failed;
            job.detail = rec
                .get("error")
                .and_then(|x| x.as_str())
                .unwrap_or("unknown")
                .to_string();
            job.attempts += rec.get("attempts").and_then(|x| x.as_u64()).unwrap_or(0);
            job.faults_injected += rec.get("faults").and_then(|x| x.as_u64()).unwrap_or(0);
        }
        "requeue" if job.state == JobState::Running => {
            job.state = JobState::Queued;
            job.worker = None;
            job.requeues += 1;
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnmark_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lifecycle_survives_reopen() {
        let dir = tmp("lifecycle");
        {
            let store = JobStore::open(&dir).unwrap();
            let id = store
                .submit_with(|id| (format!("c{id}"), "{\"name\":\"c0\"}".to_string()))
                .unwrap();
            assert_eq!(id, 0);
            store.record_claim(0, "w1").unwrap();
            store.record_progress(0, "capture 1/2").unwrap();
            store
                .record_done(0, "w1", "jobs/job-0/c0", &["merged.json".to_string()], 1, 0)
                .unwrap();
            let id2 = store
                .submit_with(|id| (format!("c{id}"), "{}".to_string()))
                .unwrap();
            assert_eq!(id2, 1);
        }
        // Reopen: full recovery from log.
        let store = JobStore::open(&dir).unwrap();
        let j0 = store.job(0).unwrap();
        assert_eq!(j0.state, JobState::Done);
        assert_eq!(j0.worker.as_deref(), Some("w1"));
        assert_eq!(j0.artifacts, vec!["merged.json"]);
        assert_eq!(j0.result_dir.as_deref(), Some("jobs/job-0/c0"));
        assert_eq!(j0.attempts, 1);
        let j1 = store.job(1).unwrap();
        assert_eq!(j1.state, JobState::Queued);
        assert_eq!(store.next_queued().unwrap().id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmp("torn");
        let log_len;
        {
            let store = JobStore::open(&dir).unwrap();
            store
                .submit_with(|_| ("a".to_string(), "{}".to_string()))
                .unwrap();
            log_len = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        }
        // Simulate a writer killed mid-append: valid frame prefix, torn body.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(
            std::fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            log_len,
            "torn bytes must be truncated away"
        );
        // The store still appends and folds correctly after the repair.
        store.record_claim(0, "w").unwrap();
        assert_eq!(store.job(0).unwrap().state, JobState::Running);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn running_job_requeues_after_crash_and_caps_out() {
        let dir = tmp("requeue");
        {
            let store = JobStore::open(&dir).unwrap();
            store
                .submit_with(|_| ("c".to_string(), "{}".to_string()))
                .unwrap();
            store.record_claim(0, "w-dead").unwrap();
        } // "crash": no done record
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.job(0).unwrap().state, JobState::Running);
        let requeued = store.recover_dead(2, |_| true).unwrap();
        assert_eq!(requeued, vec![0]);
        let j = store.job(0).unwrap();
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.requeues, 1);
        assert!(j.worker.is_none());
        // Exhaust the budget: the third death fails terminally.
        store.record_claim(0, "w2").unwrap();
        store.recover_dead(2, |_| true).unwrap();
        store.record_claim(0, "w3").unwrap();
        let requeued = store.recover_dead(2, |_| true).unwrap();
        assert!(requeued.is_empty());
        let j = store.job(0).unwrap();
        assert_eq!(j.state, JobState::Failed);
        assert!(j.detail.contains("requeue"), "{}", j.detail);
        // Live leases are never touched.
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_is_first_writer_wins() {
        let dir = tmp("dupdone");
        let store = JobStore::open(&dir).unwrap();
        store
            .submit_with(|_| ("c".to_string(), "{}".to_string()))
            .unwrap();
        store.record_claim(0, "w1").unwrap();
        store
            .record_done(0, "w1", "jobs/job-0/c", &["merged.json".to_string()], 2, 1)
            .unwrap();
        // A racing (lease-stolen) worker reports a second completion.
        store
            .record_done(
                0,
                "w2",
                "jobs/job-0/other",
                &["other.json".to_string()],
                1,
                0,
            )
            .unwrap();
        let j = store.job(0).unwrap();
        assert_eq!(j.worker.as_deref(), Some("w1"), "first done wins");
        assert_eq!(j.result_dir.as_deref(), Some("jobs/job-0/c"));
        assert_eq!(j.attempts, 2);
        assert_eq!(j.faults_injected, 1);
        // And a late failure cannot demote a done job.
        store.record_failed(0, "w2", "late", 1, 0).unwrap();
        assert_eq!(store.job(0).unwrap().state, JobState::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_other_handles_reload() {
        let dir = tmp("compact");
        let a = JobStore::open(&dir).unwrap();
        let b = JobStore::open(&dir).unwrap();
        for _ in 0..3 {
            a.submit_with(|id| (format!("c{id}"), "{}".to_string()))
                .unwrap();
        }
        a.record_claim(1, "w").unwrap();
        a.compact().unwrap();
        // The log is now just the generation header.
        assert_eq!(
            std::fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            GEN_HEADER
        );
        assert_eq!(JobStore::dump_raw_records(&dir).unwrap().len(), 0);
        // A reopened store and a stale second handle both see everything.
        let fresh = JobStore::open(&dir).unwrap();
        assert_eq!(fresh.jobs().len(), 3);
        assert_eq!(fresh.job(1).unwrap().state, JobState::Running);
        b.refresh().unwrap();
        assert_eq!(b.jobs().len(), 3);
        assert_eq!(b.job(1).unwrap().state, JobState::Running);
        // Post-compaction appends keep flowing to stale handles.
        a.record_done(1, "w", "jobs/job-1/c1", &[], 1, 0).unwrap();
        b.refresh().unwrap();
        assert_eq!(b.job(1).unwrap().state, JobState::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One submit → claim → done cycle; returns the job's id.
    fn cycle(store: &JobStore) -> u64 {
        let id = store
            .submit_with(|id| (format!("c{id}"), format!("{{\"name\":\"c{id}\"}}")))
            .unwrap();
        store.record_claim(id, "w").unwrap();
        store
            .record_done(
                id,
                "w",
                &format!("jobs/job-{id}/c{id}"),
                &["merged.json".to_string()],
                1,
                0,
            )
            .unwrap();
        id
    }

    /// Archives every terminal job and snapshots, as a compaction with a
    /// resident budget of zero would.
    fn archive_everything(store: &JobStore) {
        let _guard = DirMutex::acquire(store.dir.join(MUTEX_FILE)).unwrap();
        let mut view = store.inner.lock().unwrap();
        store.archive_older_locked(&mut view, 0).unwrap();
        store.compact_locked(&mut view).unwrap();
    }

    #[test]
    fn refresh_reads_only_the_log_tail() {
        let dir = tmp("tail");
        let a = JobStore::open(&dir).unwrap();
        let b = JobStore::open(&dir).unwrap();
        for _ in 0..40 {
            a.submit_with(|id| (format!("c{id}"), "x".repeat(200)))
                .unwrap();
        }
        let log_len = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
        assert!(log_len > 8_000);
        let refresh = |store: &JobStore| {
            let mut view = store.inner.lock().unwrap();
            store.refresh_locked(&mut view).unwrap()
        };
        assert_eq!(
            refresh(&b),
            log_len - GEN_HEADER,
            "first look folds the whole log"
        );
        assert_eq!(refresh(&b), 0, "nothing new: header only");
        a.record_claim(3, "w").unwrap();
        let tail = refresh(&b);
        assert!(
            tail > 0 && tail < 100,
            "one claim frame, not {tail} of {log_len} bytes"
        );
        assert_eq!(b.job(3).unwrap().state, JobState::Running);
        // Across a compaction the stale handle reloads once, then is back
        // to reading tails.
        a.compact().unwrap();
        a.record_done(3, "w", "jobs/job-3/c3", &[], 1, 0).unwrap();
        refresh(&b);
        assert_eq!(b.job(3).unwrap().state, JobState::Done);
        assert_eq!(b.jobs().len(), 40);
        a.record_progress(4, "p").unwrap();
        let tail = refresh(&b);
        assert!(tail > 0 && tail < 100, "{tail}");
        // A torn tail is left unconsumed, exactly as before.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        assert_eq!(refresh(&b), 0);
        a.record_claim(5, "w").unwrap(); // truncates the torn bytes, then appends
        assert!(refresh(&b) > 0);
        assert_eq!(b.job(5).unwrap().state, JobState::Running);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_view_and_snapshot_stay_bounded() {
        let dir = tmp("bounded");
        let a = JobStore::open(&dir).unwrap();
        let b = JobStore::open(&dir).unwrap();
        let live = a
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        let oldest = cycle(&a);
        let before = a.job(oldest).unwrap();
        let mut snapshot_at_half = 0;
        for i in 1..2000 {
            cycle(&a);
            if i == 1000 {
                a.compact().unwrap();
                snapshot_at_half = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
            }
        }
        a.compact().unwrap();
        assert_eq!(
            a.jobs().len(),
            RESIDENT_TERMINAL + 1,
            "newest N terminal + 1 live"
        );
        assert_eq!(a.archived_jobs(), 2000 - RESIDENT_TERMINAL);
        assert_eq!(
            a.next_queued().map(|j| j.id),
            Some(live),
            "live jobs stay resident"
        );
        let snapshot = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        assert!(
            snapshot <= snapshot_at_half + snapshot_at_half / 20,
            "snapshot grew from {snapshot_at_half} to {snapshot} bytes over 1000 more jobs"
        );
        // The oldest job reads back from the archive exactly as it was,
        // through this handle and through one that archived nothing.
        assert!(a.jobs().iter().all(|j| j.id != oldest));
        assert_eq!(a.job(oldest).unwrap(), before);
        b.refresh().unwrap();
        assert_eq!(b.job(oldest).unwrap(), before);
        assert_eq!(b.archived_jobs(), a.archived_jobs());
        assert_eq!(b.job(2001), None);
        // Ids carry on past everything archived, also after a reopen.
        drop((a, b));
        let reopened = JobStore::open(&dir).unwrap();
        assert_eq!(reopened.job(oldest).unwrap(), before);
        assert_eq!(cycle(&reopened), 2001);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_are_not_reused_when_nothing_is_resident() {
        let dir = tmp("noreuse");
        {
            let store = JobStore::open(&dir).unwrap();
            for _ in 0..3 {
                cycle(&store);
            }
            archive_everything(&store);
            assert!(store.jobs().is_empty());
            assert_eq!(cycle(&store), 3);
            archive_everything(&store);
        }
        let store = JobStore::open(&dir).unwrap();
        assert!(store.jobs().is_empty());
        assert_eq!(store.archived_jobs(), 4);
        assert_eq!(cycle(&store), 4, "next_id comes from the snapshot");
        // Even with the snapshot gone the archive index still fences ids.
        drop(store);
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        std::fs::remove_file(dir.join(LOG_FILE)).unwrap();
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(cycle(&store), 4, "job 4 was never archived; 0..=3 were");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_archive_tail_is_truncated_on_open() {
        let dir = tmp("tornarchive");
        let archive = dir.join(ARCHIVE_FILE);
        let (first, archive_len);
        {
            let store = JobStore::open(&dir).unwrap();
            cycle(&store);
            cycle(&store);
            first = store.job(0).unwrap();
            archive_everything(&store);
            archive_len = std::fs::metadata(&archive).unwrap().len();
        }
        // A compaction killed mid-append: valid frame prefix, torn body.
        let mut f = OpenOptions::new().append(true).open(&archive).unwrap();
        f.write_all(&300u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(std::fs::metadata(&archive).unwrap().len(), archive_len);
        assert_eq!(store.job(0).unwrap(), first);
        // The next archival lands where the index expects it.
        let id = cycle(&store);
        let job = store.job(id).unwrap();
        archive_everything(&store);
        assert_eq!(store.job(id).unwrap(), job);
        assert_eq!(JobStore::open(&dir).unwrap().job(id).unwrap(), job);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_records_for_an_archived_job_change_nothing() {
        let dir = tmp("latedone");
        let store = JobStore::open(&dir).unwrap();
        cycle(&store);
        let done = store.job(0).unwrap();
        archive_everything(&store);
        // A lease-stolen worker finishes long after the winner did.
        store
            .record_done(
                0,
                "w2",
                "jobs/job-0/other",
                &["other.json".to_string()],
                1,
                0,
            )
            .unwrap();
        store.record_failed(0, "w2", "late", 1, 0).unwrap();
        assert_eq!(store.job(0).unwrap(), done, "first done wins");
        assert!(
            store.jobs().is_empty(),
            "the late records resurrect nothing"
        );
        drop(store);
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.job(0).unwrap(), done);
        assert!(store.jobs().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_archive_and_snapshot_leaves_one_copy() {
        let dir = tmp("archivecrash");
        let archive = dir.join(ARCHIVE_FILE);
        let done;
        {
            let store = JobStore::open(&dir).unwrap();
            cycle(&store);
            cycle(&store);
            done = store.job(1).unwrap();
            // The archive append is durable, the snapshot never written.
            let _guard = DirMutex::acquire(dir.join(MUTEX_FILE)).unwrap();
            let mut view = store.inner.lock().unwrap();
            store.archive_older_locked(&mut view, 0).unwrap();
        }
        let archive_len = std::fs::metadata(&archive).unwrap().len();
        let store = JobStore::open(&dir).unwrap();
        assert!(
            store.jobs().is_empty(),
            "the archive's copy wins over the log's"
        );
        assert_eq!(store.archived_jobs(), 2);
        assert_eq!(store.job(1).unwrap(), done);
        archive_everything(&store);
        assert_eq!(
            std::fs::metadata(&archive).unwrap().len(),
            archive_len,
            "nothing is archived twice"
        );
        assert_eq!(cycle(&store), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_share_one_queue() {
        let dir = tmp("shared");
        let a = JobStore::open(&dir).unwrap();
        let b = JobStore::open(&dir).unwrap();
        let id = a
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        b.refresh().unwrap();
        assert_eq!(b.next_queued().map(|j| j.id), Some(id));
        // Ids allocated through different handles never collide.
        let id2 = b
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        assert_ne!(id, id2);
        a.refresh().unwrap();
        assert_eq!(a.jobs().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_round_trip_through_one_file_per_job() {
        let dir = tmp("bundle");
        let store = JobStore::open(&dir).unwrap();
        let id = store
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        let files = vec![
            ("merged.json".to_string(), "{\"a\":1}\n".to_string()),
            (
                "v100/summary.csv".to_string(),
                "k,v\nx,1\n\ny,2\n".to_string(),
            ),
            ("v100/empty.csv".to_string(), String::new()),
        ];
        let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        let bundle = store.write_artifacts(id, &files).unwrap();
        store.record_claim(id, "w").unwrap();
        store.record_done(id, "w", &bundle, &names, 1, 0).unwrap();
        let job = store.job(id).unwrap();
        assert_eq!(store.artifacts(&job), files);
        // A re-run of the job (requeued after a crash) replaces the bundle.
        store.write_artifacts(id, &files[..1]).unwrap();
        assert_eq!(store.artifacts(&job), files[..1]);
        let in_jobs: Vec<_> = std::fs::read_dir(dir.join("jobs")).unwrap().collect();
        assert_eq!(in_jobs.len(), 1, "one file per job, nothing left aside");

        // A torn bundle yields the frames that verify, then stops.
        store.write_artifacts(id, &files).unwrap();
        let path = dir.join(&bundle);
        let len = std::fs::metadata(&path).unwrap().len();
        truncate(&path, len - 3).unwrap();
        assert_eq!(store.artifacts(&job), files[..2]);
        std::fs::remove_file(&path).unwrap();
        assert!(store.artifacts(&job).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_of_a_job_finished_as_a_directory_still_read() {
        let dir = tmp("bundle_tree");
        let store = JobStore::open(&dir).unwrap();
        let id = store
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        let tree = dir.join("jobs/job-0/c0");
        std::fs::create_dir_all(tree.join("v100")).unwrap();
        std::fs::write(tree.join("merged.json"), "{}").unwrap();
        std::fs::write(tree.join("v100/summary.csv"), "k,v\n").unwrap();
        let names = ["merged.json".to_string(), "v100/summary.csv".to_string()];
        store.record_claim(id, "w").unwrap();
        store
            .record_done(id, "w", "jobs/job-0/c0", &names, 1, 0)
            .unwrap();
        assert_eq!(
            store.artifacts(&store.job(id).unwrap()),
            [
                (names[0].clone(), "{}".to_string()),
                (names[1].clone(), "k,v\n".to_string())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn the_mutex_excludes_handles_and_churns_no_inode() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("mutex");
        let ino = |dir: &Path| std::fs::metadata(dir.join(MUTEX_FILE)).map(|m| m.ino());
        JobStore::open(&dir)
            .unwrap()
            .submit_with(|id| (format!("c{id}"), "{}".to_string()))
            .unwrap();
        let first = ino(&dir).expect("the lock file outlives the append");

        // Four handles, as four processes would hold them, racing for ids.
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let store = JobStore::open(&dir).unwrap();
                        (0..25)
                            .map(|_| {
                                store
                                    .submit_with(|id| (format!("c{id}"), "{}".to_string()))
                                    .unwrap()
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            racers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });
        ids.sort_unstable();
        assert_eq!(
            ids,
            (1..=100).collect::<Vec<u64>>(),
            "no id handed out twice"
        );
        assert_eq!(ino(&dir).unwrap(), first, "same file, never recreated");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
