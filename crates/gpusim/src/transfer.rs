//! Host↔device transfers with sparsity measurement.
//!
//! The paper instruments PyTorch's CPU→GPU copies and finds the
//! transferred data is 43.2 % zero on average (Figure 7), with a clear
//! periodic pattern over training (Figure 8) — the motivation for its
//! compression proposal. [`TransferEngine`] measures the same quantity on
//! the *actual* buffers workloads upload.

use gnnmark_tensor::{CsrMatrix, IntTensor, Tensor};

use crate::device::DeviceSpec;

/// Direction of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// CPU → GPU (the direction the paper characterizes).
    HostToDevice,
    /// GPU → CPU.
    DeviceToHost,
}

/// One recorded transfer.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Direction.
    pub direction: TransferDirection,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Number of zero-valued elements.
    pub zeros: u64,
    /// Number of elements.
    pub elements: u64,
    /// Modeled PCIe transfer time, nanoseconds.
    pub time_ns: f64,
}

impl Transfer {
    /// Fraction of transferred values that are exactly zero.
    pub fn sparsity(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.zeros as f64 / self.elements as f64
        }
    }

    /// Payload size under zero-value compression: nonzero values plus a
    /// one-bit-per-element presence bitmap — the compression scheme the
    /// paper proposes (after Rhu et al.) to exploit transfer sparsity.
    pub fn compressed_bytes(&self) -> u64 {
        if self.elements == 0 {
            return self.bytes;
        }
        let elem_size = self.bytes / self.elements.max(1);
        let nonzero = self.elements - self.zeros;
        nonzero * elem_size + self.elements.div_ceil(8)
    }
}

/// Measures and times host↔device copies.
#[derive(Debug, Default)]
pub struct TransferEngine {
    transfers: Vec<Transfer>,
    pcie_gbps: f64,
}

impl TransferEngine {
    /// Creates an engine for a device.
    pub fn new(spec: &DeviceSpec) -> Self {
        TransferEngine {
            transfers: Vec::new(),
            pcie_gbps: spec.pcie_gbps,
        }
    }

    fn record(&mut self, direction: TransferDirection, bytes: u64, zeros: u64, elements: u64) {
        let time_ns = bytes as f64 / self.pcie_gbps + 2_000.0; // + launch latency
        self.transfers.push(Transfer {
            direction,
            bytes,
            zeros,
            elements,
            time_ns,
        });
    }

    /// Records a transfer from pre-measured payload counts, re-timing it
    /// under this engine's device. Used when replaying a captured stream
    /// ([`crate::stream::TransferRecord`]) on a different device config.
    pub fn record_raw(
        &mut self,
        direction: TransferDirection,
        bytes: u64,
        zeros: u64,
        elements: u64,
    ) {
        self.record(direction, bytes, zeros, elements);
    }

    /// Uploads a dense tensor, counting its zeros.
    pub fn upload(&mut self, t: &Tensor) {
        let zeros = t.as_slice().iter().filter(|v| **v == 0.0).count() as u64;
        self.record(
            TransferDirection::HostToDevice,
            t.byte_len(),
            zeros,
            t.numel() as u64,
        );
    }

    /// Uploads an integer tensor (indices), counting zero values.
    pub fn upload_int(&mut self, t: &IntTensor) {
        let zeros = t.as_slice().iter().filter(|v| **v == 0).count() as u64;
        self.record(
            TransferDirection::HostToDevice,
            (t.numel() * 8) as u64,
            zeros,
            t.numel() as u64,
        );
    }

    /// Uploads a CSR matrix (structure arrays + values).
    pub fn upload_csr(&mut self, m: &CsrMatrix) {
        let zeros = m.values().iter().filter(|v| **v == 0.0).count() as u64
            + m.row_ptr().iter().filter(|v| **v == 0).count() as u64
            + m.col_idx().iter().filter(|v| **v == 0).count() as u64;
        let elements = (m.values().len() + m.row_ptr().len() + m.col_idx().len()) as u64;
        self.record(
            TransferDirection::HostToDevice,
            m.byte_len(),
            zeros,
            elements,
        );
    }

    /// Downloads a dense tensor.
    pub fn download(&mut self, t: &Tensor) {
        let zeros = t.as_slice().iter().filter(|v| **v == 0.0).count() as u64;
        self.record(
            TransferDirection::DeviceToHost,
            t.byte_len(),
            zeros,
            t.numel() as u64,
        );
    }

    /// All recorded transfers, in order.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Element-weighted mean sparsity of host→device transfers.
    pub fn mean_h2d_sparsity(&self) -> f64 {
        let (mut zeros, mut elems) = (0u64, 0u64);
        for t in &self.transfers {
            if t.direction == TransferDirection::HostToDevice {
                zeros += t.zeros;
                elems += t.elements;
            }
        }
        if elems == 0 {
            0.0
        } else {
            zeros as f64 / elems as f64
        }
    }

    /// Per-transfer H2D sparsity series (Figure 8's x-axis is transfer
    /// order during training).
    pub fn h2d_sparsity_series(&self) -> Vec<f64> {
        self.transfers
            .iter()
            .filter(|t| t.direction == TransferDirection::HostToDevice)
            .map(Transfer::sparsity)
            .collect()
    }

    /// Total modeled transfer time, nanoseconds.
    pub fn total_time_ns(&self) -> f64 {
        self.transfers.iter().map(|t| t.time_ns).sum()
    }

    /// Total H2D payload bytes, uncompressed.
    pub fn total_h2d_bytes(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == TransferDirection::HostToDevice)
            .map(|t| t.bytes)
            .sum()
    }

    /// Total H2D payload bytes under zero-value compression (the paper's
    /// proposal for training graphs larger than device memory).
    pub fn total_h2d_compressed_bytes(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == TransferDirection::HostToDevice)
            .map(Transfer::compressed_bytes)
            .sum()
    }

    /// Clears recorded transfers.
    pub fn clear(&mut self) {
        self.transfers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_counts_zeros() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        let t = Tensor::from_vec(&[4], vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        eng.upload(&t);
        assert_eq!(eng.transfers().len(), 1);
        assert!((eng.transfers()[0].sparsity() - 0.75).abs() < 1e-12);
        assert!((eng.mean_h2d_sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_sparsity_is_element_weighted() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        eng.upload(&Tensor::zeros(&[30])); // 30 zeros
        eng.upload(&Tensor::ones(&[10])); // 0 zeros
        assert!((eng.mean_h2d_sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn downloads_excluded_from_h2d_sparsity() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        eng.download(&Tensor::zeros(&[100]));
        assert_eq!(eng.mean_h2d_sparsity(), 0.0);
        assert_eq!(eng.h2d_sparsity_series().len(), 0);
        assert_eq!(eng.transfers().len(), 1);
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        eng.upload(&Tensor::zeros(&[1_000_000]));
        eng.upload(&Tensor::zeros(&[10]));
        assert!(eng.transfers()[0].time_ns > eng.transfers()[1].time_ns);
        assert!(eng.total_time_ns() > 0.0);
        eng.clear();
        assert!(eng.transfers().is_empty());
    }

    #[test]
    fn compression_shrinks_sparse_payloads_only() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        // 75 % zeros → compressed well below original.
        let sparse = Tensor::from_vec(&[8], vec![0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]).unwrap();
        eng.upload(&sparse);
        let t = &eng.transfers()[0];
        assert!(t.compressed_bytes() < t.bytes);
        assert_eq!(t.compressed_bytes(), 2 * 4 + 1); // 2 nonzeros + 1-byte bitmap
                                                     // Dense payload: compression only adds the bitmap.
        eng.upload(&Tensor::ones(&[8]));
        let d = &eng.transfers()[1];
        assert_eq!(d.compressed_bytes(), 8 * 4 + 1);
        assert_eq!(eng.total_h2d_bytes(), 64);
        assert_eq!(eng.total_h2d_compressed_bytes(), 9 + 33);
    }

    #[test]
    fn csr_upload_counts_structure() {
        let mut eng = TransferEngine::new(&DeviceSpec::v100());
        let m = CsrMatrix::identity(4);
        eng.upload_csr(&m);
        let t = &eng.transfers()[0];
        // 5 row_ptr + 4 col_idx + 4 values.
        assert_eq!(t.elements, 13);
    }
}
