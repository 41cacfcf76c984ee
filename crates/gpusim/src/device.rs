//! GPU device descriptions.

/// Hardware parameters of a modeled GPU.
///
/// Defaults are the NVIDIA V100 (SXM2, 16 GB) used by the paper; builder
/// methods support the ablation studies (L1 size sweep, interconnect
/// bandwidth sweep, half precision).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device name for reports.
    pub name: String,
    /// Streaming multiprocessor count.
    pub sms: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// fp32 lanes (CUDA cores) per SM; each retires an FMA (2 flops)/cycle.
    pub fp32_lanes_per_sm: u32,
    /// Warp schedulers per SM (issue slots per cycle).
    pub schedulers_per_sm: u32,
    /// Combined L1/shared capacity per SM, bytes.
    pub l1_bytes: u64,
    /// Shared L2 capacity, bytes.
    pub l2_bytes: u64,
    /// Cache line size, bytes.
    pub line_bytes: u64,
    /// HBM2 bandwidth, GB/s.
    pub hbm_gbps: f64,
    /// Aggregate L2 bandwidth, GB/s (~2–3× DRAM on Volta).
    pub l2_gbps: f64,
    /// Fixed kernel-launch overhead, nanoseconds.
    pub launch_overhead_ns: f64,
    /// Host↔device (PCIe) bandwidth, GB/s.
    pub pcie_gbps: f64,
    /// Per-GPU NVLink bandwidth, GB/s (6 links aggregate on the paper's
    /// 4×V100 node: 300 GB/s).
    pub nvlink_gbps: f64,
    /// Device memory capacity, bytes.
    pub memory_bytes: u64,
    /// Bytes per scalar element (4 = fp32; 2 models half-precision
    /// training, one of the paper's future-work proposals).
    pub elem_bytes: u32,
}

impl DeviceSpec {
    /// The NVIDIA V100 configuration from the paper's test system.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "NVIDIA V100 (16GB, SXM2)".to_string(),
            sms: 80,
            clock_ghz: 1.38,
            fp32_lanes_per_sm: 64,
            schedulers_per_sm: 4,
            l1_bytes: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024 + 144 * 1024, // 6.14 MB
            line_bytes: 128,
            hbm_gbps: 900.0,
            l2_gbps: 2200.0,
            launch_overhead_ns: 1200.0,
            pcie_gbps: 12.0,
            nvlink_gbps: 300.0,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            elem_bytes: 4,
        }
    }

    /// An NVIDIA A100 (SXM4, 40 GB) configuration, for cross-device
    /// studies beyond the paper's V100 testbed.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100 (40GB, SXM4)".to_string(),
            sms: 108,
            clock_ghz: 1.41,
            fp32_lanes_per_sm: 64,
            schedulers_per_sm: 4,
            l1_bytes: 192 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            line_bytes: 128,
            hbm_gbps: 1555.0,
            l2_gbps: 4500.0,
            launch_overhead_ns: 1100.0,
            pcie_gbps: 25.0,
            nvlink_gbps: 600.0,
            memory_bytes: 40 * 1024 * 1024 * 1024,
            elem_bytes: 4,
        }
    }

    /// The device a CLI flag or a campaign spec names: `"v100"` or
    /// `"a100"`.
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        match name {
            "v100" => Some(DeviceSpec::v100()),
            "a100" => Some(DeviceSpec::a100()),
            _ => None,
        }
    }

    /// Theoretical peak fp32 throughput, GFLOPS.
    pub fn peak_gflops(&self) -> f64 {
        self.sms as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_ghz
    }

    /// DRAM bytes transferred per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.hbm_gbps / self.clock_ghz
    }

    /// L2 bytes transferred per core cycle.
    pub fn l2_bytes_per_cycle(&self) -> f64 {
        self.l2_gbps / self.clock_ghz
    }

    /// Returns a copy with a different L1 capacity (cache ablation).
    pub fn with_l1_bytes(mut self, bytes: u64) -> Self {
        self.l1_bytes = bytes;
        self
    }

    /// Returns a copy with a different NVLink bandwidth (scaling ablation).
    pub fn with_nvlink_gbps(mut self, gbps: f64) -> Self {
        self.nvlink_gbps = gbps;
        self
    }

    /// Returns a copy modeling half-precision storage (2-byte elements),
    /// which halves memory traffic and doubles effective cache capacity.
    pub fn with_half_precision(mut self) -> Self {
        self.elem_bytes = 2;
        self.name.push_str(" [fp16]");
        self
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peak_matches_datasheet() {
        let v = DeviceSpec::v100();
        // 80 × 64 × 2 × 1.38 ≈ 14.1 TFLOPS.
        assert!((v.peak_gflops() - 14131.2).abs() < 1.0);
    }

    #[test]
    fn bandwidth_per_cycle() {
        let v = DeviceSpec::v100();
        assert!((v.dram_bytes_per_cycle() - 900.0 / 1.38).abs() < 1e-9);
    }

    #[test]
    fn builders_modify_copies() {
        let v = DeviceSpec::v100();
        let small = v.clone().with_l1_bytes(32 * 1024);
        assert_eq!(small.l1_bytes, 32 * 1024);
        assert_eq!(v.l1_bytes, 128 * 1024);
        let half = v.clone().with_half_precision();
        assert_eq!(half.elem_bytes, 2);
        assert!(half.name.contains("fp16"));
    }
}
