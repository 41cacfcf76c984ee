//! Out-of-core streaming CSR store: a chunked on-disk graph format read
//! through a byte-budgeted LRU chunk cache, so graph scale is bounded by
//! disk rather than RAM.
//!
//! No mmap — chunks are plain `seek + read` blobs, each guarded by an
//! FNV-1a checksum so a torn write (crash mid-flush, truncated copy) is
//! detected at read time with a clear error instead of silently corrupt
//! training data.
//!
//! ## File layout
//!
//! ```text
//! header (64 B): magic "GNMKOOC1" · num_nodes u64 · num_edges u64
//!                feature_dim u32 · num_classes u32 · chunk_nodes u32
//!                num_chunks u32 · table_offset u64 · reserved 16 B
//! chunk 0 … chunk k-1 (variable-size blobs, see below)
//! table: num_chunks × { offset u64, len u64, checksum u64 }
//! ```
//!
//! Each chunk holds `chunk_nodes` consecutive nodes (the last may be
//! short): chunk-local `row_ptr` (u64), `col_idx` (u64, global ids),
//! `values` (f32), dense `features` (f32) and `labels` (i64). All
//! integers little-endian.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use gnnmark_tensor::{IntTensor, Tensor, TensorError};

use crate::dataset::{CsrSource, GraphDataset};
use crate::{Graph, Result};

const MAGIC: &[u8; 8] = b"GNMKOOC1";
const HEADER_LEN: u64 = 64;
const TABLE_ENTRY_LEN: u64 = 24;

fn io_err(op: &'static str, e: &std::io::Error) -> TensorError {
    TensorError::InvalidArgument {
        op,
        reason: format!("io error: {e}"),
    }
}

fn corrupt(reason: String) -> TensorError {
    TensorError::InvalidArgument {
        op: "StreamGraph",
        reason,
    }
}

// The repo's digest is `gnnmark_gpusim::stream::fnv1a_64`; this copy exists
// only because no dependency of `gnnmark-graph` owns one.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

/// Metadata of an on-disk streaming graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// Total nodes.
    pub num_nodes: u64,
    /// Total stored (directed) edges.
    pub num_edges: u64,
    /// Node feature width.
    pub feature_dim: u32,
    /// Number of label classes (0 if unlabeled).
    pub num_classes: u32,
    /// Nodes per chunk (last chunk may be short).
    pub chunk_nodes: u32,
    /// Number of chunks.
    pub num_chunks: u32,
}

impl StreamMeta {
    /// Bytes an in-RAM full-graph load of this dataset would need, using
    /// the same accounting as [`gnnmark_tensor::CsrMatrix::byte_len`]
    /// (4-byte indices) plus dense features and labels.
    pub fn full_graph_bytes(&self) -> u64 {
        let csr = (self.num_nodes + 1 + self.num_edges) * 4 + self.num_edges * 4;
        let feats = self.num_nodes * self.feature_dim as u64 * 4;
        let labels = self.num_nodes * 8;
        csr + feats + labels
    }
}

#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    len: u64,
    checksum: u64,
}

/// One decoded chunk, resident in the cache.
#[derive(Debug)]
struct Chunk {
    first_node: usize,
    row_ptr: Vec<u64>,
    col_idx: Vec<u64>,
    values: Vec<f32>,
    features: Vec<f32>,
    labels: Vec<i64>,
}

impl Chunk {
    fn bytes(&self) -> u64 {
        (self.row_ptr.len() * 8
            + self.col_idx.len() * 8
            + self.values.len() * 4
            + self.features.len() * 4
            + self.labels.len() * 8) as u64
    }

    fn decode(first_node: usize, expect_nodes: usize, feature_dim: usize, blob: &[u8]) -> Result<Chunk> {
        let need = |n: usize| -> Result<()> {
            if blob.len() < n {
                Err(corrupt(format!(
                    "chunk blob too short: {} bytes, need ≥ {n}",
                    blob.len()
                )))
            } else {
                Ok(())
            }
        };
        need(4)?;
        let nodes = read_u32(blob, 0) as usize;
        if nodes != expect_nodes {
            return Err(corrupt(format!(
                "chunk node count {nodes} != expected {expect_nodes}"
            )));
        }
        let mut at = 4usize;
        let mut row_ptr = Vec::with_capacity(nodes + 1);
        need(at + (nodes + 1) * 8)?;
        for _ in 0..=nodes {
            row_ptr.push(read_u64(blob, at));
            at += 8;
        }
        let nnz = *row_ptr.last().expect("non-empty") as usize;
        if row_ptr[0] != 0 || row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("chunk row_ptr not monotonic from 0".to_string()));
        }
        need(at + nnz * 12 + nodes * feature_dim * 4 + nodes * 8)?;
        let mut col_idx = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            col_idx.push(read_u64(blob, at));
            at += 8;
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(f32::from_le_bytes(blob[at..at + 4].try_into().expect("4 bytes")));
            at += 4;
        }
        let mut features = Vec::with_capacity(nodes * feature_dim);
        for _ in 0..nodes * feature_dim {
            features.push(f32::from_le_bytes(blob[at..at + 4].try_into().expect("4 bytes")));
            at += 4;
        }
        let mut labels = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            labels.push(i64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes")));
            at += 8;
        }
        Ok(Chunk {
            first_node,
            row_ptr,
            col_idx,
            values,
            features,
            labels,
        })
    }
}

/// Cache hit/miss/eviction counters (monotonic over the store's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunk lookups served from the cache.
    pub hits: u64,
    /// Chunk lookups that read from disk.
    pub misses: u64,
    /// Chunks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes currently resident in the cache.
    pub resident_bytes: u64,
}

struct CacheState {
    file: File,
    chunks: HashMap<usize, (Rc<Chunk>, u64)>,
    tick: u64,
    budget: u64,
    stats: CacheStats,
}

/// An out-of-core graph: CSR adjacency + features + labels streamed from
/// disk chunk by chunk through an LRU cache.
///
/// Implements [`CsrSource`] and [`GraphDataset`], so the fanout sampler
/// and minibatch training run over it exactly as over an in-RAM graph —
/// and byte-identically, since chunking never changes row contents.
pub struct StreamGraph {
    path: PathBuf,
    name: String,
    meta: StreamMeta,
    table: Vec<ChunkEntry>,
    state: RefCell<CacheState>,
}

impl std::fmt::Debug for StreamGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamGraph({:?}, {} nodes, {} chunks)",
            self.path, self.meta.num_nodes, self.meta.num_chunks
        )
    }
}

impl StreamGraph {
    /// Opens a streaming graph with the given cache byte budget (at least
    /// one chunk is always kept regardless of budget).
    ///
    /// # Errors
    /// Returns a clear error for a missing/truncated file, bad magic, or an
    /// inconsistent chunk table.
    pub fn open(path: &Path, cache_bytes: u64) -> Result<StreamGraph> {
        let mut file = File::open(path).map_err(|e| io_err("StreamGraph::open", &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("StreamGraph::open", &e))?
            .len();
        if file_len < HEADER_LEN {
            return Err(corrupt(format!(
                "file {} is {} bytes — too short for the {HEADER_LEN}-byte header (truncated?)",
                path.display(),
                file_len
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(|e| io_err("StreamGraph::open", &e))?;
        if &header[..8] != MAGIC {
            return Err(corrupt(format!(
                "bad magic in {} (not a GNMKOOC1 stream graph)",
                path.display()
            )));
        }
        let meta = StreamMeta {
            num_nodes: read_u64(&header, 8),
            num_edges: read_u64(&header, 16),
            feature_dim: read_u32(&header, 24),
            num_classes: read_u32(&header, 28),
            chunk_nodes: read_u32(&header, 32),
            num_chunks: read_u32(&header, 36),
        };
        let table_offset = read_u64(&header, 40);
        if meta.chunk_nodes == 0 {
            return Err(corrupt("chunk_nodes is 0".to_string()));
        }
        let expect_chunks = meta.num_nodes.div_ceil(meta.chunk_nodes as u64);
        if meta.num_chunks as u64 != expect_chunks {
            return Err(corrupt(format!(
                "num_chunks {} inconsistent with {} nodes / {} per chunk",
                meta.num_chunks, meta.num_nodes, meta.chunk_nodes
            )));
        }
        let table_len = meta.num_chunks as u64 * TABLE_ENTRY_LEN;
        if file_len < table_offset.saturating_add(table_len) {
            return Err(corrupt(format!(
                "file {} truncated: {} bytes, chunk table needs {}..{}",
                path.display(),
                file_len,
                table_offset,
                table_offset + table_len
            )));
        }
        file.seek(SeekFrom::Start(table_offset))
            .map_err(|e| io_err("StreamGraph::open", &e))?;
        let mut raw = vec![0u8; table_len as usize];
        file.read_exact(&mut raw)
            .map_err(|e| io_err("StreamGraph::open", &e))?;
        let mut table = Vec::with_capacity(meta.num_chunks as usize);
        for k in 0..meta.num_chunks as usize {
            let at = k * TABLE_ENTRY_LEN as usize;
            let entry = ChunkEntry {
                offset: read_u64(&raw, at),
                len: read_u64(&raw, at + 8),
                checksum: read_u64(&raw, at + 16),
            };
            if entry.offset < HEADER_LEN || entry.offset.saturating_add(entry.len) > table_offset {
                return Err(corrupt(format!(
                    "chunk {k} extent {}..{} outside data region {HEADER_LEN}..{table_offset}",
                    entry.offset,
                    entry.offset + entry.len
                )));
            }
            table.push(entry);
        }
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "stream".to_string());
        Ok(StreamGraph {
            path: path.to_path_buf(),
            name,
            meta,
            table,
            state: RefCell::new(CacheState {
                file,
                chunks: HashMap::new(),
                tick: 0,
                budget: cache_bytes,
                stats: CacheStats::default(),
            }),
        })
    }

    /// The on-disk metadata.
    pub fn meta(&self) -> StreamMeta {
        self.meta
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.borrow().stats
    }

    fn chunk_of(&self, node: usize) -> usize {
        node / self.meta.chunk_nodes as usize
    }

    fn chunk_nodes_in(&self, k: usize) -> usize {
        let first = k as u64 * self.meta.chunk_nodes as u64;
        (self.meta.num_nodes - first).min(self.meta.chunk_nodes as u64) as usize
    }

    fn load_chunk(&self, k: usize) -> Result<Rc<Chunk>> {
        let mut st = self.state.borrow_mut();
        st.tick += 1;
        let tick = st.tick;
        if let Some((chunk, stamp)) = st.chunks.get_mut(&k) {
            *stamp = tick;
            let hit = Rc::clone(chunk);
            st.stats.hits += 1;
            return Ok(hit);
        }
        st.stats.misses += 1;
        let entry = self.table[k];
        st.file
            .seek(SeekFrom::Start(entry.offset))
            .map_err(|e| io_err("StreamGraph::load_chunk", &e))?;
        let mut blob = vec![0u8; entry.len as usize];
        st.file
            .read_exact(&mut blob)
            .map_err(|e| io_err("StreamGraph::load_chunk", &e))?;
        let sum = fnv1a(&blob);
        if sum != entry.checksum {
            return Err(corrupt(format!(
                "chunk {k} of {} failed checksum (stored {:016x}, computed {sum:016x}) — torn or corrupt write",
                self.path.display(),
                entry.checksum
            )));
        }
        let first_node = k * self.meta.chunk_nodes as usize;
        let chunk = Rc::new(Chunk::decode(
            first_node,
            self.chunk_nodes_in(k),
            self.meta.feature_dim as usize,
            &blob,
        )?);
        st.stats.resident_bytes += chunk.bytes();
        st.chunks.insert(k, (Rc::clone(&chunk), tick));
        // Evict least-recently-used chunks past the budget, keeping the
        // one just loaded.
        while st.stats.resident_bytes > st.budget && st.chunks.len() > 1 {
            let victim = st
                .chunks
                .iter()
                .filter(|(&id, _)| id != k)
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    if let Some((gone, _)) = st.chunks.remove(&id) {
                        st.stats.resident_bytes -= gone.bytes();
                        st.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
        Ok(chunk)
    }

    fn locate(&self, node: usize) -> Result<(Rc<Chunk>, usize)> {
        if node as u64 >= self.meta.num_nodes {
            return Err(TensorError::InvalidArgument {
                op: "StreamGraph::locate",
                reason: format!("node {node} out of range ({})", self.meta.num_nodes),
            });
        }
        let chunk = self.load_chunk(self.chunk_of(node))?;
        let local = node - chunk.first_node;
        Ok((chunk, local))
    }
}

impl CsrSource for StreamGraph {
    fn num_nodes(&self) -> usize {
        self.meta.num_nodes as usize
    }

    fn num_edges(&self) -> u64 {
        self.meta.num_edges
    }

    fn degree(&self, node: usize) -> Result<usize> {
        let (chunk, local) = self.locate(node)?;
        Ok((chunk.row_ptr[local + 1] - chunk.row_ptr[local]) as usize)
    }

    fn row_into(&self, node: usize, cols: &mut Vec<usize>, vals: &mut Vec<f32>) -> Result<()> {
        let (chunk, local) = self.locate(node)?;
        let (lo, hi) = (chunk.row_ptr[local] as usize, chunk.row_ptr[local + 1] as usize);
        cols.clear();
        vals.clear();
        cols.extend(chunk.col_idx[lo..hi].iter().map(|&c| c as usize));
        vals.extend_from_slice(&chunk.values[lo..hi]);
        Ok(())
    }
}

impl GraphDataset for StreamGraph {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_nodes(&self) -> usize {
        self.meta.num_nodes as usize
    }

    fn feature_dim(&self) -> usize {
        self.meta.feature_dim as usize
    }

    fn num_classes(&self) -> usize {
        self.meta.num_classes as usize
    }

    fn adjacency(&self) -> &dyn CsrSource {
        self
    }

    fn gather_features(&self, nodes: &[i64]) -> Result<Tensor> {
        let d = self.meta.feature_dim as usize;
        let mut out = vec![0.0f32; nodes.len() * d];
        for (i, &n) in nodes.iter().enumerate() {
            let node = usize::try_from(n).map_err(|_| TensorError::InvalidArgument {
                op: "StreamGraph::gather_features",
                reason: format!("negative node id {n}"),
            })?;
            let (chunk, local) = self.locate(node)?;
            out[i * d..(i + 1) * d].copy_from_slice(&chunk.features[local * d..(local + 1) * d]);
        }
        Tensor::from_vec(&[nodes.len(), d], out)
    }

    fn gather_labels(&self, nodes: &[i64]) -> Result<IntTensor> {
        let mut out = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let node = usize::try_from(n).map_err(|_| TensorError::InvalidArgument {
                op: "StreamGraph::gather_labels",
                reason: format!("negative node id {n}"),
            })?;
            let (chunk, local) = self.locate(node)?;
            out.push(chunk.labels[local]);
        }
        IntTensor::from_vec(&[nodes.len()], out)
    }

    fn resident_bytes(&self) -> u64 {
        let table = self.table.len() as u64 * TABLE_ENTRY_LEN;
        HEADER_LEN + table + self.state.borrow().stats.resident_bytes
    }
}

/// Incremental writer for the streaming format: push nodes in id order,
/// then [`StreamGraphWriter::finish`].
pub struct StreamGraphWriter {
    file: File,
    path: PathBuf,
    feature_dim: usize,
    num_classes: u32,
    chunk_nodes: usize,
    offset: u64,
    num_nodes: u64,
    num_edges: u64,
    table: Vec<ChunkEntry>,
    // Current chunk buffers.
    row_ptr: Vec<u64>,
    col_idx: Vec<u64>,
    values: Vec<f32>,
    features: Vec<f32>,
    labels: Vec<i64>,
}

impl StreamGraphWriter {
    /// Creates (truncates) the file at `path`.
    ///
    /// # Errors
    /// Returns an error on zero `chunk_nodes`/`feature_dim` or I/O failure.
    pub fn create(
        path: &Path,
        feature_dim: usize,
        num_classes: u32,
        chunk_nodes: usize,
    ) -> Result<StreamGraphWriter> {
        if chunk_nodes == 0 || feature_dim == 0 {
            return Err(TensorError::InvalidArgument {
                op: "StreamGraphWriter::create",
                reason: "chunk_nodes and feature_dim must be positive".to_string(),
            });
        }
        let mut file = File::create(path).map_err(|e| io_err("StreamGraphWriter::create", &e))?;
        // Placeholder header; rewritten by finish().
        file.write_all(&[0u8; HEADER_LEN as usize])
            .map_err(|e| io_err("StreamGraphWriter::create", &e))?;
        Ok(StreamGraphWriter {
            file,
            path: path.to_path_buf(),
            feature_dim,
            num_classes,
            chunk_nodes,
            offset: HEADER_LEN,
            num_nodes: 0,
            num_edges: 0,
            table: Vec::new(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
            features: Vec::new(),
            labels: Vec::new(),
        })
    }

    /// Appends the next node (ids are implicit and sequential): its
    /// adjacency row, feature row and label.
    ///
    /// # Errors
    /// Returns an error on length mismatches or I/O failure.
    pub fn push_node(&mut self, cols: &[usize], vals: &[f32], feats: &[f32], label: i64) -> Result<()> {
        if cols.len() != vals.len() || feats.len() != self.feature_dim {
            return Err(TensorError::InvalidArgument {
                op: "StreamGraphWriter::push_node",
                reason: format!(
                    "row lengths {}:{} or feature width {} (want {}) mismatch",
                    cols.len(),
                    vals.len(),
                    feats.len(),
                    self.feature_dim
                ),
            });
        }
        self.col_idx.extend(cols.iter().map(|&c| c as u64));
        self.values.extend_from_slice(vals);
        self.row_ptr.push(self.col_idx.len() as u64);
        self.features.extend_from_slice(feats);
        self.labels.push(label);
        self.num_nodes += 1;
        self.num_edges += cols.len() as u64;
        if self.row_ptr.len() - 1 == self.chunk_nodes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<()> {
        let nodes = self.row_ptr.len() - 1;
        if nodes == 0 {
            return Ok(());
        }
        let mut blob = Vec::with_capacity(
            4 + self.row_ptr.len() * 8 + self.col_idx.len() * 12 + self.features.len() * 4 + self.labels.len() * 8,
        );
        blob.extend_from_slice(&(nodes as u32).to_le_bytes());
        for &p in &self.row_ptr {
            blob.extend_from_slice(&p.to_le_bytes());
        }
        for &c in &self.col_idx {
            blob.extend_from_slice(&c.to_le_bytes());
        }
        for &v in &self.values {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        for &x in &self.features {
            blob.extend_from_slice(&x.to_le_bytes());
        }
        for &l in &self.labels {
            blob.extend_from_slice(&l.to_le_bytes());
        }
        self.file
            .write_all(&blob)
            .map_err(|e| io_err("StreamGraphWriter::flush_chunk", &e))?;
        self.table.push(ChunkEntry {
            offset: self.offset,
            len: blob.len() as u64,
            checksum: fnv1a(&blob),
        });
        self.offset += blob.len() as u64;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
        self.features.clear();
        self.labels.clear();
        Ok(())
    }

    /// Flushes the last chunk, writes the chunk table and final header, and
    /// syncs the file.
    ///
    /// # Errors
    /// Returns an error on I/O failure or an empty graph.
    pub fn finish(mut self) -> Result<StreamMeta> {
        if self.num_nodes == 0 {
            return Err(TensorError::InvalidArgument {
                op: "StreamGraphWriter::finish",
                reason: "no nodes were written".to_string(),
            });
        }
        self.flush_chunk()?;
        let table_offset = self.offset;
        for e in &self.table {
            self.file
                .write_all(&e.offset.to_le_bytes())
                .and_then(|_| self.file.write_all(&e.len.to_le_bytes()))
                .and_then(|_| self.file.write_all(&e.checksum.to_le_bytes()))
                .map_err(|e| io_err("StreamGraphWriter::finish", &e))?;
        }
        let meta = StreamMeta {
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            feature_dim: self.feature_dim as u32,
            num_classes: self.num_classes,
            chunk_nodes: self.chunk_nodes as u32,
            num_chunks: self.table.len() as u32,
        };
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&meta.num_nodes.to_le_bytes());
        header[16..24].copy_from_slice(&meta.num_edges.to_le_bytes());
        header[24..28].copy_from_slice(&meta.feature_dim.to_le_bytes());
        header[28..32].copy_from_slice(&meta.num_classes.to_le_bytes());
        header[32..36].copy_from_slice(&meta.chunk_nodes.to_le_bytes());
        header[36..40].copy_from_slice(&meta.num_chunks.to_le_bytes());
        header[40..48].copy_from_slice(&table_offset.to_le_bytes());
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(&header))
            .and_then(|_| self.file.sync_all())
            .map_err(|e| io_err("StreamGraphWriter::finish", &e))?;
        let _ = self.path;
        Ok(meta)
    }
}

/// Writes an in-RAM [`Graph`] (normalized adjacency + features + labels)
/// to the streaming format, so streaming and in-RAM runs read identical
/// rows.
///
/// # Errors
/// Propagates writer errors.
pub fn write_graph(path: &Path, graph: &Graph, chunk_nodes: usize) -> Result<StreamMeta> {
    let norm = graph.normalized_adjacency()?;
    let num_classes = graph
        .labels()
        .map(|l| l.as_slice().iter().map(|&c| c + 1).max().unwrap_or(0) as u32)
        .unwrap_or(0);
    let mut w = StreamGraphWriter::create(path, graph.feature_dim(), num_classes, chunk_nodes)?;
    let feats = graph.features().as_slice();
    let d = graph.feature_dim();
    for node in 0..graph.num_nodes() {
        let (cols, vals) = norm.row(node);
        let label = graph.labels().map(|l| l.as_slice()[node]).unwrap_or(0);
        w.push_node(cols, vals, &feats[node * d..(node + 1) * d], label)?;
    }
    w.finish()
}

/// Parameters of the deterministic synthetic graph generator used for the
/// out-of-core demo: a ring augmented with hashed long-range edges, mean-
/// normalized rows with self-loops, and features that weakly encode the
/// label so a GCN can actually learn.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSpec {
    /// Node count (the demo uses ≥ 1M).
    pub nodes: u64,
    /// Extra hashed edges per node on top of the ring (average degree ≈
    /// `2 + extra_edges`).
    pub extra_edges: u32,
    /// Feature width.
    pub feature_dim: u32,
    /// Label classes.
    pub num_classes: u32,
    /// RNG seed.
    pub seed: u64,
}

fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Streams a synthetic graph straight to disk, never materializing it in
/// RAM — O(chunk) memory regardless of node count.
///
/// # Errors
/// Propagates writer errors.
pub fn write_synthetic(path: &Path, spec: &SyntheticSpec, chunk_nodes: usize) -> Result<StreamMeta> {
    if spec.nodes < 3 || spec.num_classes == 0 || spec.feature_dim < spec.num_classes {
        return Err(TensorError::InvalidArgument {
            op: "write_synthetic",
            reason: "need ≥3 nodes, ≥1 class, feature_dim ≥ num_classes".to_string(),
        });
    }
    let n = spec.nodes;
    let mut w = StreamGraphWriter::create(path, spec.feature_dim as usize, spec.num_classes, chunk_nodes)?;
    let mut cols: Vec<usize> = Vec::new();
    let mut feats: Vec<f32> = Vec::with_capacity(spec.feature_dim as usize);
    for i in 0..n {
        cols.clear();
        cols.push(i as usize); // self-loop
        cols.push(((i + n - 1) % n) as usize);
        cols.push(((i + 1) % n) as usize);
        for j in 0..spec.extra_edges as u64 {
            let t = mix64(spec.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (j << 1 | 1)) % n;
            if t != i {
                cols.push(t as usize);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        let wgt = 1.0 / cols.len() as f32;
        let vals = vec![wgt; cols.len()];
        let label = (mix64(spec.seed ^ mix64(i)) >> 17) % spec.num_classes as u64;
        feats.clear();
        for k in 0..spec.feature_dim as u64 {
            let noise = (mix64(spec.seed ^ (i << 20) ^ k) % 1000) as f32 / 1000.0 * 0.2;
            let signal = if k % spec.num_classes as u64 == label { 1.0 } else { 0.0 };
            feats.push(signal + noise);
        }
        w.push_node(&cols, &vals, &feats, label as i64)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_tensor::Tensor;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gnnmark-stream-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn small_graph() -> Graph {
        let edges: Vec<(usize, usize)> = (0..19).map(|i| (i, i + 1)).collect();
        Graph::from_undirected_edges(20, &edges, Tensor::from_fn(&[20, 3], |i| i as f32 * 0.1))
            .unwrap()
            .with_labels(IntTensor::from_vec(&[20], (0..20).map(|i| i % 4).collect()).unwrap())
            .unwrap()
    }

    #[test]
    fn roundtrip_rows_match_in_ram() {
        let path = tmp("roundtrip.gnm");
        let g = small_graph();
        let meta = write_graph(&path, &g, 6).unwrap();
        assert_eq!(meta.num_nodes, 20);
        assert_eq!(meta.num_chunks, 4);
        assert_eq!(meta.num_classes, 4);
        let sg = StreamGraph::open(&path, 1 << 20).unwrap();
        let norm = g.normalized_adjacency().unwrap();
        let (mut c, mut v) = (Vec::new(), Vec::new());
        for node in 0..20 {
            sg.row_into(node, &mut c, &mut v).unwrap();
            let (ec, ev) = norm.row(node);
            assert_eq!(c, ec, "row {node} cols");
            assert_eq!(v, ev, "row {node} vals");
            assert_eq!(sg.degree(node).unwrap(), ec.len());
        }
        let f = sg.gather_features(&[19, 0, 7]).unwrap();
        let idx = IntTensor::from_vec(&[3], vec![19, 0, 7]).unwrap();
        assert_eq!(f.as_slice(), g.features().gather_rows(&idx).unwrap().as_slice());
        assert_eq!(sg.gather_labels(&[5, 13]).unwrap().as_slice(), &[1, 1]);
    }

    #[test]
    fn lru_cache_evicts_under_budget() {
        let path = tmp("lru.gnm");
        write_graph(&path, &small_graph(), 4).unwrap();
        // Budget of 1 byte: only the most recent chunk stays.
        let sg = StreamGraph::open(&path, 1).unwrap();
        let (mut c, mut v) = (Vec::new(), Vec::new());
        for node in [0usize, 19, 0, 19] {
            sg.row_into(node, &mut c, &mut v).unwrap();
        }
        let stats = sg.cache_stats();
        assert_eq!(stats.misses, 4, "every access misses under a 1-byte budget");
        assert_eq!(stats.evictions, 3);
        // Generous budget: repeats hit.
        let sg2 = StreamGraph::open(&path, 1 << 20).unwrap();
        for node in [0usize, 19, 0, 19] {
            sg2.row_into(node, &mut c, &mut v).unwrap();
        }
        let stats2 = sg2.cache_stats();
        assert_eq!(stats2.misses, 2);
        assert_eq!(stats2.hits, 2);
        assert_eq!(stats2.evictions, 0);
    }

    #[test]
    fn torn_chunk_is_detected() {
        let path = tmp("torn.gnm");
        write_graph(&path, &small_graph(), 5).unwrap();
        // Flip one byte inside chunk 1's blob.
        let mut bytes = std::fs::read(&path).unwrap();
        let sg = StreamGraph::open(&path, 1 << 20).unwrap();
        let off = sg.table[1].offset as usize + 10;
        drop(sg);
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let sg = StreamGraph::open(&path, 1 << 20).unwrap();
        let (mut c, mut v) = (Vec::new(), Vec::new());
        // Chunk 0 still reads fine.
        sg.row_into(0, &mut c, &mut v).unwrap();
        // Chunk 1 (nodes 5..10) reports the torn write.
        let err = sg.row_into(7, &mut c, &mut v).unwrap_err().to_string();
        assert!(err.contains("checksum"), "unexpected error: {err}");
        assert!(err.contains("torn"), "unexpected error: {err}");
    }

    #[test]
    fn truncated_file_is_detected() {
        let path = tmp("trunc.gnm");
        write_graph(&path, &small_graph(), 5).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 30]).unwrap();
        let err = StreamGraph::open(&path, 1 << 20).unwrap_err().to_string();
        assert!(err.contains("truncated"), "unexpected error: {err}");
        // Header-only truncation.
        std::fs::write(&path, &bytes[..20]).unwrap();
        assert!(StreamGraph::open(&path, 1 << 20).is_err());
        // Bad magic.
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        std::fs::write(&path, &garbled).unwrap();
        let err = StreamGraph::open(&path, 1 << 20).unwrap_err().to_string();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }

    #[test]
    fn synthetic_generator_is_bounded_and_learnable_shape() {
        let path = tmp("synth.gnm");
        let spec = SyntheticSpec {
            nodes: 1000,
            extra_edges: 3,
            feature_dim: 8,
            num_classes: 4,
            seed: 42,
        };
        let meta = write_synthetic(&path, &spec, 128).unwrap();
        assert_eq!(meta.num_nodes, 1000);
        assert_eq!(meta.num_chunks, 8);
        let sg = StreamGraph::open(&path, 64 << 10).unwrap();
        let (mut c, mut v) = (Vec::new(), Vec::new());
        for node in [0usize, 499, 999] {
            sg.row_into(node, &mut c, &mut v).unwrap();
            assert!(c.contains(&node), "self-loop present");
            assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted unique cols");
            let s: f32 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "mean-normalized row sums to 1");
        }
        let labels = sg.gather_labels(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert!(labels.as_slice().iter().all(|&l| (0..4).contains(&l)));
        assert!(meta.full_graph_bytes() > StreamGraph::open(&path, 1 << 10).unwrap().resident_bytes());
    }
}
