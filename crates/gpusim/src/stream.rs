//! Serialization of captured op streams for train-once / replay-many.
//!
//! A training run's [`OpEvent`] stream is *device-independent*: every input
//! to the timing model ([`crate::GpuModel::execute`]) other than the
//! [`crate::DeviceSpec`] itself is measured from executed computation, and
//! element-size scaling for half precision is applied inside the model at
//! simulate time. A stream captured once can therefore be replayed under
//! any number of device / DDP / interconnect configurations without
//! retraining — the basis of the `gnnmark-serve` replay cache.
//!
//! The on-disk format is a versioned little-endian binary layout with a
//! trailing word-wise FNV-1a checksum (`body_checksum`). It is written
//! and read only by this module; bump [`FORMAT_VERSION`] on any layout
//! change so stale cache entries are rejected rather than misread.

use std::sync::Arc;
use std::sync::Mutex;

use gnnmark_tensor::instrument::{AccessDesc, OpClass, OpEvent};

use crate::multigpu::ScalingBehavior;

/// Version tag embedded in serialized streams. Readers reject mismatches.
/// v2 added the training-mode key to [`ReplayMeta`]; v3 added the
/// execution-phase field (`"train"` vs `"infer"`) so forward-only
/// inference streams can never be misread as training streams; v4 hashes
/// the body 8 bytes at a time (`body_checksum`).
pub const FORMAT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"GNMKSTRM";

/// 64-bit FNV-1a hash — the repo's standard content digest (also used by
/// the golden-snapshot layer and the serve cache for key hashing).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stream trailer: FNV-1a's xor-multiply over the body's little-endian
/// `u64` words, then over its remaining bytes one at a time. Each step is a
/// bijection of the running hash for a fixed input word, so any change to
/// a single word of the body changes the checksum. It multiplies once per
/// word where [`fnv1a_64`] multiplies once per byte, and a cache hit hashes
/// tens of megabytes on the campaign thread before any replay starts.
fn body_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Interns a string, returning a `&'static str` with the same content.
///
/// [`OpEvent::kernel`] is `&'static str`; deserialized streams rebuild it
/// through this table. Kernel-name cardinality is tiny (a few dozen), so
/// the intentional leak is bounded.
pub fn intern_static(s: &str) -> &'static str {
    static TABLE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = table.iter().find(|k| **k == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// One host↔device transfer, stored device-independently.
///
/// Only the payload measurements are kept; the modeled transfer *time* is
/// recomputed at replay from the target device's PCIe bandwidth via
/// [`crate::TransferEngine::record_raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRecord {
    /// `true` for host→device, `false` for device→host.
    pub h2d: bool,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Number of zero-valued elements (sparsity numerator).
    pub zeros: u64,
    /// Number of elements.
    pub elements: u64,
}

/// The full device-independent op stream of one training run.
#[derive(Debug, Clone, Default)]
pub struct CapturedStream {
    /// Events per training step, in execution order (flattened into
    /// [`CapturedStream::events`]; `per_step[i]` is step `i`'s count).
    pub per_step: Vec<u32>,
    /// All op events, in execution order.
    pub events: Vec<OpEvent>,
    /// All host↔device transfers, in execution order.
    pub transfers: Vec<TransferRecord>,
}

impl CapturedStream {
    /// Appends one training step's events.
    pub fn push_step(&mut self, events: &[OpEvent]) {
        self.per_step.push(events.len() as u32);
        self.events.extend_from_slice(events);
    }

    /// Number of captured steps.
    pub fn steps(&self) -> u64 {
        self.per_step.len() as u64
    }

    /// Each step's events, in step order: [`CapturedStream::events`] cut by
    /// [`CapturedStream::per_step`]. A stream whose counts do not add up to
    /// its events (only a hand-built one; [`CapturedRun::from_bytes`]
    /// rejects them) has its counts cut short at the last event, and
    /// uncounted events come last as one more slice, so no event is lost.
    pub fn step_events(&self) -> impl Iterator<Item = &[OpEvent]> + '_ {
        let mut rest = self.events.as_slice();
        let mut counts = self.per_step.iter();
        std::iter::from_fn(move || {
            let n = match counts.next() {
                Some(&n) => n as usize,
                None if !rest.is_empty() => rest.len(),
                None => return None,
            };
            let (step, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            Some(step)
        })
    }
}

/// Training metadata captured alongside the stream — everything a replay
/// needs to rebuild run artifacts without re-running the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMeta {
    /// Workload label, e.g. `"STGCN"`.
    pub workload: String,
    /// Dataset scale label, e.g. `"small"`.
    pub scale: String,
    /// Training-mode key, e.g. `"fullgraph"` or `"minibatch-b32-f10x5"`.
    pub mode: String,
    /// Execution phase: `"train"` (epoch loop with backward + optimizer)
    /// or `"infer"` (tape-free forward-only). Streams from different
    /// phases have disjoint op mixes and must never collide in the cache.
    pub phase: String,
    /// Training seed.
    pub seed: u64,
    /// Epochs trained.
    pub epochs: u32,
    /// Optimizer steps per epoch.
    pub steps_per_epoch: u64,
    /// Gradient payload per step in bytes (DDP all-reduce volume).
    pub grad_bytes: u64,
    /// Per-epoch training losses (device-independent).
    pub losses: Vec<f64>,
    /// DDP scaling behavior of the workload, if it participates.
    pub scaling: Option<ScalingBehavior>,
    /// Final quality metric `(name, value)`, if the workload reports one.
    pub quality: Option<(&'static str, f64)>,
}

/// A captured run: metadata plus the op stream. The unit stored by the
/// replay cache.
#[derive(Debug, Clone)]
pub struct CapturedRun {
    /// Training metadata.
    pub meta: ReplayMeta,
    /// The device-independent op stream.
    pub stream: CapturedStream,
}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.i.checked_add(n).filter(|&end| end <= self.b.len());
        let Some(end) = end else {
            return Err(format!(
                "truncated stream: need {n} bytes at offset {}, have {}",
                self.i,
                self.b.len() - self.i
            ));
        };
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| "invalid UTF-8 in stream string".to_string())
    }
    /// Admits a stored element count: each element encodes to at least
    /// `min_bytes`, so a count the remaining bytes cannot hold is rejected
    /// here, before anything is allocated for it.
    fn count(&self, n: u64, min_bytes: usize, what: &str) -> Result<usize, String> {
        let fit = (self.b.len() - self.i) / min_bytes;
        match usize::try_from(n) {
            Ok(n) if n <= fit => Ok(n),
            _ => Err(format!(
                "truncated stream: {n} {what} at offset {}, room for {fit}",
                self.i
            )),
        }
    }
    /// Reads `n` elements of at least `min_bytes` each with `read`.
    fn vec<T>(
        &mut self,
        n: u64,
        min_bytes: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(n, min_bytes, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

/// Smallest encodings, for [`Reader::vec`]: a `Sequential` descriptor; an
/// event with an empty name and no descriptors; one transfer.
const MIN_ACCESS_BYTES: usize = 1 + 8;
const MIN_EVENT_BYTES: usize = 1 + 4 + 5 * 8 + 4 + 4;
const TRANSFER_BYTES: usize = 1 + 3 * 8;

fn write_access(w: &mut Writer, d: &AccessDesc) {
    match d {
        AccessDesc::Sequential { bytes } => {
            w.u8(0);
            w.u64(*bytes);
        }
        AccessDesc::Strided {
            stride_bytes,
            accesses,
            access_bytes,
        } => {
            w.u8(1);
            w.u64(*stride_bytes);
            w.u64(*accesses);
            w.u64(*access_bytes);
        }
        AccessDesc::Indexed {
            indices,
            row_bytes,
            table_bytes,
        } => {
            w.u8(2);
            w.u32(indices.len() as u32);
            for &ix in indices.iter() {
                w.u32(ix);
            }
            w.u64(*row_bytes);
            w.u64(*table_bytes);
        }
        AccessDesc::Random {
            accesses,
            access_bytes,
            region_bytes,
        } => {
            w.u8(3);
            w.u64(*accesses);
            w.u64(*access_bytes);
            w.u64(*region_bytes);
        }
    }
}

fn read_access(r: &mut Reader<'_>) -> Result<AccessDesc, String> {
    match r.u8()? {
        0 => Ok(AccessDesc::Sequential { bytes: r.u64()? }),
        1 => Ok(AccessDesc::Strided {
            stride_bytes: r.u64()?,
            accesses: r.u64()?,
            access_bytes: r.u64()?,
        }),
        2 => {
            let n = r.u32()?;
            let n = r.count(n.into(), 4, "indices")?;
            let indices = r
                .take(4 * n)?
                .chunks_exact(4)
                .map(|ix| u32::from_le_bytes(ix.try_into().unwrap()))
                .collect();
            Ok(AccessDesc::Indexed {
                indices: Arc::new(indices),
                row_bytes: r.u64()?,
                table_bytes: r.u64()?,
            })
        }
        3 => Ok(AccessDesc::Random {
            accesses: r.u64()?,
            access_bytes: r.u64()?,
            region_bytes: r.u64()?,
        }),
        t => Err(format!("unknown access-desc tag {t}")),
    }
}

fn write_event(w: &mut Writer, e: &OpEvent) {
    let class_ix = OpClass::ALL
        .iter()
        .position(|c| *c == e.class)
        .expect("OpClass::ALL covers every class") as u8;
    w.u8(class_ix);
    w.str(e.kernel);
    w.u64(e.flops);
    w.u64(e.iops);
    w.u64(e.bytes_read);
    w.u64(e.bytes_written);
    w.u64(e.threads);
    w.u32(e.reads.len() as u32);
    for d in &e.reads {
        write_access(w, d);
    }
    w.u32(e.writes.len() as u32);
    for d in &e.writes {
        write_access(w, d);
    }
}

fn read_accesses(r: &mut Reader<'_>) -> Result<Vec<AccessDesc>, String> {
    let n = r.u32()?;
    r.vec(
        n.into(),
        MIN_ACCESS_BYTES,
        "access descriptors",
        read_access,
    )
}

fn read_event(r: &mut Reader<'_>) -> Result<OpEvent, String> {
    let class_ix = r.u8()? as usize;
    let class = *OpClass::ALL
        .get(class_ix)
        .ok_or_else(|| format!("unknown op-class index {class_ix}"))?;
    let kernel = intern_static(r.str()?);
    let flops = r.u64()?;
    let iops = r.u64()?;
    let bytes_read = r.u64()?;
    let bytes_written = r.u64()?;
    let threads = r.u64()?;
    let reads = read_accesses(r)?;
    let writes = read_accesses(r)?;
    Ok(OpEvent {
        class,
        kernel,
        flops,
        iops,
        bytes_read,
        bytes_written,
        threads,
        reads,
        writes,
    })
}

impl CapturedRun {
    /// Serializes to the versioned binary format (with trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer { out: Vec::new() };
        w.out.extend_from_slice(MAGIC);
        w.u32(FORMAT_VERSION);

        w.str(&self.meta.workload);
        w.str(&self.meta.scale);
        w.str(&self.meta.mode);
        w.str(&self.meta.phase);
        w.u64(self.meta.seed);
        w.u32(self.meta.epochs);
        w.u64(self.meta.steps_per_epoch);
        w.u64(self.meta.grad_bytes);
        w.u32(self.meta.losses.len() as u32);
        for &l in &self.meta.losses {
            w.f64(l);
        }
        match self.meta.scaling {
            None => w.u8(0),
            Some(ScalingBehavior::DataParallel) => w.u8(1),
            Some(ScalingBehavior::ReplicatedSampling { redundancy }) => {
                w.u8(2);
                w.f64(redundancy);
            }
            Some(ScalingBehavior::HostBound { host_fraction }) => {
                w.u8(3);
                w.f64(host_fraction);
            }
        }
        match self.meta.quality {
            None => w.u8(0),
            Some((name, value)) => {
                w.u8(1);
                w.str(name);
                w.f64(value);
            }
        }

        w.u32(self.stream.per_step.len() as u32);
        for &n in &self.stream.per_step {
            w.u32(n);
        }
        w.u64(self.stream.events.len() as u64);
        for e in &self.stream.events {
            write_event(&mut w, e);
        }
        w.u32(self.stream.transfers.len() as u32);
        for t in &self.stream.transfers {
            w.u8(u8::from(t.h2d));
            w.u64(t.bytes);
            w.u64(t.zeros);
            w.u64(t.elements);
        }

        let checksum = body_checksum(&w.out);
        w.u64(checksum);
        w.out
    }

    /// Deserializes from [`CapturedRun::to_bytes`] output, verifying the
    /// magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<CapturedRun, String> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err("stream too short".to_string());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let computed = body_checksum(body);
        if stored != computed {
            return Err(format!(
                "stream checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ));
        }
        let mut r = Reader { b: body, i: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err("bad stream magic".to_string());
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "stream format version {version} != supported {FORMAT_VERSION}"
            ));
        }

        let workload = r.str()?.to_string();
        let scale = r.str()?.to_string();
        let mode = r.str()?.to_string();
        let phase = r.str()?.to_string();
        let seed = r.u64()?;
        let epochs = r.u32()?;
        let steps_per_epoch = r.u64()?;
        let grad_bytes = r.u64()?;
        let n_losses = r.u32()?;
        let losses = r.vec(n_losses.into(), 8, "losses", Reader::f64)?;
        let scaling = match r.u8()? {
            0 => None,
            1 => Some(ScalingBehavior::DataParallel),
            2 => Some(ScalingBehavior::ReplicatedSampling {
                redundancy: r.f64()?,
            }),
            3 => Some(ScalingBehavior::HostBound {
                host_fraction: r.f64()?,
            }),
            t => return Err(format!("unknown scaling tag {t}")),
        };
        let quality = match r.u8()? {
            0 => None,
            1 => {
                let name = intern_static(r.str()?);
                Some((name, r.f64()?))
            }
            t => return Err(format!("unknown quality tag {t}")),
        };

        let n_steps = r.u32()?;
        let per_step = r.vec(n_steps.into(), 4, "steps", Reader::u32)?;
        let n_events = r.u64()?;
        let events = r.vec(n_events, MIN_EVENT_BYTES, "events", read_event)?;
        // A consistent writer's counts cover the events exactly; replay cuts
        // the events by them.
        let counted = per_step
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n.into()));
        if counted != Some(n_events) {
            return Err(format!(
                "per-step counts add up to {counted:?} events, stream has {n_events}"
            ));
        }
        let n_transfers = r.u32()?;
        let transfers = r.vec(n_transfers.into(), TRANSFER_BYTES, "transfers", |r| {
            Ok(TransferRecord {
                h2d: r.u8()? != 0,
                bytes: r.u64()?,
                zeros: r.u64()?,
                elements: r.u64()?,
            })
        })?;
        if r.i != body.len() {
            return Err(format!(
                "trailing bytes in stream: {} unread",
                body.len() - r.i
            ));
        }
        Ok(CapturedRun {
            meta: ReplayMeta {
                workload,
                scale,
                mode,
                phase,
                seed,
                epochs,
                steps_per_epoch,
                grad_bytes,
                losses,
                scaling,
                quality,
            },
            stream: CapturedStream {
                per_step,
                events,
                transfers,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_fnv1a_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn sample_run() -> CapturedRun {
        let mut stream = CapturedStream::default();
        stream.push_step(&[
            OpEvent {
                class: OpClass::Gemm,
                kernel: "sgemm",
                flops: 1000,
                iops: 10,
                bytes_read: 4096,
                bytes_written: 1024,
                threads: 256,
                reads: vec![
                    AccessDesc::Sequential { bytes: 4096 },
                    AccessDesc::Strided {
                        stride_bytes: 128,
                        accesses: 32,
                        access_bytes: 4,
                    },
                ],
                writes: vec![AccessDesc::Sequential { bytes: 1024 }],
            },
            OpEvent {
                class: OpClass::Gather,
                kernel: "gather_rows",
                flops: 0,
                iops: 64,
                bytes_read: 2048,
                bytes_written: 2048,
                threads: 64,
                reads: vec![AccessDesc::Indexed {
                    indices: Arc::new(vec![3, 1, 4, 1, 5]),
                    row_bytes: 64,
                    table_bytes: 8192,
                }],
                writes: vec![AccessDesc::Random {
                    accesses: 5,
                    access_bytes: 64,
                    region_bytes: 8192,
                }],
            },
        ]);
        stream.push_step(&[]);
        stream.transfers.push(TransferRecord {
            h2d: true,
            bytes: 400,
            zeros: 30,
            elements: 100,
        });
        stream.transfers.push(TransferRecord {
            h2d: false,
            bytes: 8,
            zeros: 0,
            elements: 2,
        });
        CapturedRun {
            meta: ReplayMeta {
                workload: "STGCN".to_string(),
                scale: "tiny".to_string(),
                mode: "minibatch-b4-f10x5".to_string(),
                phase: "train".to_string(),
                seed: 42,
                epochs: 3,
                steps_per_epoch: 7,
                grad_bytes: 123_456,
                losses: vec![1.5, 0.9, 0.6],
                scaling: Some(ScalingBehavior::ReplicatedSampling { redundancy: 0.15 }),
                quality: Some(("accuracy", 0.87)),
            },
            stream,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let run = sample_run();
        let bytes = run.to_bytes();
        let back = CapturedRun::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.meta, run.meta);
        assert_eq!(back.stream.per_step, run.stream.per_step);
        assert_eq!(back.stream.transfers, run.stream.transfers);
        assert_eq!(back.stream.events.len(), run.stream.events.len());
        for (a, b) in back.stream.events.iter().zip(&run.stream.events) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.flops, b.flops);
            assert_eq!(a.iops, b.iops);
            assert_eq!(a.bytes_read, b.bytes_read);
            assert_eq!(a.bytes_written, b.bytes_written);
            assert_eq!(a.threads, b.threads);
            assert_eq!(a.reads.len(), b.reads.len());
            assert_eq!(a.writes.len(), b.writes.len());
        }
        // Serialization is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn corruption_is_detected() {
        let run = sample_run();
        let mut bytes = run.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = CapturedRun::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "got: {err}");
    }

    #[test]
    fn truncation_is_detected() {
        let run = sample_run();
        let bytes = run.to_bytes();
        assert!(CapturedRun::from_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(CapturedRun::from_bytes(&bytes[..4]).is_err());
    }

    #[test]
    fn every_bit_flip_and_short_truncation_is_rejected() {
        let bytes = sample_run().to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                CapturedRun::from_bytes(&flipped).is_err(),
                "bit {bit} flipped"
            );
        }
        for cut in 1..=8 {
            assert!(
                CapturedRun::from_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "{cut} byte(s) cut"
            );
        }
    }

    /// Recomputes the trailer over an edited body, so the edit reaches the
    /// decoder instead of the checksum test.
    fn resealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&body_checksum(body).to_le_bytes());
        bytes
    }

    fn body(run: &CapturedRun) -> Vec<u8> {
        let mut bytes = run.to_bytes();
        bytes.truncate(bytes.len() - 8);
        bytes
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut body = body(&sample_run());
        body[8] = 99; // version field follows the 8-byte magic
        let err = CapturedRun::from_bytes(&resealed(&body)).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }

    #[test]
    fn every_resealed_prefix_is_an_error() {
        let body = body(&sample_run());
        let err = CapturedRun::from_bytes(&resealed(&body[..body.len() - 1])).unwrap_err();
        assert!(err.contains("truncated"), "got: {err}");
        for cut in 0..body.len() {
            assert!(
                CapturedRun::from_bytes(&resealed(&body[..cut])).is_err(),
                "cut at {cut}"
            );
        }
    }

    /// One event whose only descriptor is an index array.
    fn indexed_run(indices: Vec<u32>) -> CapturedRun {
        let mut run = sample_run();
        run.meta.losses.clear();
        run.meta.scaling = None;
        run.meta.quality = None;
        run.stream = CapturedStream::default();
        run.stream.push_step(&[OpEvent {
            class: OpClass::Gather,
            kernel: "gather_rows",
            flops: 0,
            iops: 0,
            bytes_read: 0,
            bytes_written: 0,
            threads: 1,
            reads: vec![AccessDesc::Indexed {
                indices: Arc::new(indices),
                row_bytes: 64,
                table_bytes: 8192,
            }],
            writes: vec![],
        }]);
        run
    }

    #[test]
    fn counts_the_body_cannot_hold_are_rejected_before_allocating() {
        // A body that ends ... [n_losses u32][scaling u8][quality u8]
        // [n_steps u32][n_events u64][n_transfers u32]: every list empty.
        let mut empty = indexed_run(vec![]);
        empty.stream = CapturedStream::default();
        let body_of_empty = body(&empty);
        let end = body_of_empty.len();
        for (what, at, width) in [
            ("transfers", end - 4, 4),
            ("events", end - 12, 8),
            ("steps", end - 16, 4),
            ("losses", end - 22, 4),
        ] {
            let mut body = body_of_empty.clone();
            body[at..at + width].fill(0xff);
            let err = CapturedRun::from_bytes(&resealed(&body)).unwrap_err();
            assert!(
                err.contains("truncated") && err.contains(what),
                "{what}: {err}"
            );
        }
        // ... [n_reads u32][tag u8][n_indices u32][row u64][table u64]
        // [n_writes u32][n_transfers u32].
        let body_of_indexed = body(&indexed_run(vec![]));
        let end = body_of_indexed.len();
        for (what, at) in [
            ("access descriptors", end - 8),
            ("indices", end - 28),
            ("access descriptors", end - 33),
        ] {
            let mut body = body_of_indexed.clone();
            body[at..at + 4].fill(0xff);
            let err = CapturedRun::from_bytes(&resealed(&body)).unwrap_err();
            assert!(
                err.contains("truncated") && err.contains(what),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn empty_and_million_entry_index_arrays_roundtrip() {
        let million = (0..1_000_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        for indices in [vec![], million] {
            let run = indexed_run(indices.clone());
            let back = CapturedRun::from_bytes(&run.to_bytes()).expect("roundtrip");
            match &back.stream.events[0].reads[..] {
                [AccessDesc::Indexed {
                    indices: got,
                    row_bytes: 64,
                    table_bytes: 8192,
                }] => {
                    assert_eq!(**got, indices)
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn step_counts_that_miss_the_event_count_are_rejected() {
        let mut run = indexed_run(vec![1, 2]);
        let event = run.stream.events[0].clone();
        run.stream.events = vec![event; 3];
        run.stream.per_step = vec![5];
        let err = CapturedRun::from_bytes(&run.to_bytes()).unwrap_err();
        assert!(err.contains("per-step counts"), "got: {err}");
        // A sum that wraps a u64 is not taken for a match.
        run.stream.per_step = vec![u32::MAX; 2];
        assert!(CapturedRun::from_bytes(&run.to_bytes()).is_err());
        run.stream.per_step = vec![1, 2];
        assert!(CapturedRun::from_bytes(&run.to_bytes()).is_ok());
    }

    #[test]
    fn step_events_cut_the_stream_without_losing_an_event() {
        let run = sample_run();
        let lens: Vec<usize> = run.stream.step_events().map(<[_]>::len).collect();
        assert_eq!(lens, [2, 0], "an empty step is a step");
        let mut odd = run.stream.clone();
        odd.per_step = vec![1];
        let lens: Vec<usize> = odd.step_events().map(<[_]>::len).collect();
        assert_eq!(lens, [1, 1], "uncounted events come last");
        odd.per_step = vec![5, 1];
        let lens: Vec<usize> = odd.step_events().map(<[_]>::len).collect();
        assert_eq!(lens, [2, 0], "counts are cut at the last event");
    }

    #[test]
    fn interner_returns_stable_references() {
        let a = intern_static("sgemm_test_kernel");
        let b = intern_static("sgemm_test_kernel");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "sgemm_test_kernel");
    }
}
