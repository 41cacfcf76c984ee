//! Declarative campaign (sweep) specifications.
//!
//! A campaign is one training configuration (workloads × scale × seed ×
//! epochs — the replay-cache key space) crossed with any number of
//! *device configurations* that replay the captured streams. The JSON
//! grammar:
//!
//! ```json
//! {
//!   "name": "device-ablation",
//!   "scale": "small",
//!   "seed": 42,
//!   "epochs": 2,
//!   "precision": "fp32",
//!   "workloads": ["TLSTM", "ARGA"],
//!   "configs": [
//!     {"name": "v100",          "device": "v100"},
//!     {"name": "a100",          "device": "a100"},
//!     {"name": "v100-l1-64k",   "device": "v100", "l1_kb": 64},
//!     {"name": "v100-nvl-150",  "device": "v100", "nvlink_gbps": 150},
//!     {"name": "v100-fp16",     "device": "v100", "half_precision": true},
//!     {"name": "v100-ddp4",     "device": "v100", "gpus": 4}
//!   ]
//! }
//! ```
//!
//! `workloads` is optional (default: the full paper suite). Parsing uses
//! the dependency-free JSON parser from `gnnmark-telemetry`; every error
//! is a human-readable string naming the offending field.

use gnnmark::infer::ExecPhase;
use gnnmark_gpusim::DeviceSpec;
use gnnmark_telemetry::export::{parse_json, JsonValue};
use gnnmark_tensor::half::Precision;
use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

use crate::CacheKey;

/// One device configuration of a campaign: a base device plus optional
/// architectural overrides, and a DDP GPU count.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Unique config name (directory / column label in merged results).
    pub name: String,
    /// Base device: `"v100"` or `"a100"`.
    pub base: String,
    /// L1 capacity override, KiB per SM.
    pub l1_kb: Option<u64>,
    /// NVLink bandwidth override, GB/s.
    pub nvlink_gbps: Option<f64>,
    /// Model fp16 storage (halves modeled memory traffic).
    pub half_precision: bool,
    /// DDP GPU count (1 = single-GPU timing only).
    pub gpus: u32,
}

impl DeviceConfig {
    /// Materializes the [`DeviceSpec`] this config simulates under.
    ///
    /// # Errors
    /// Unknown base device name.
    pub fn to_device_spec(&self) -> Result<DeviceSpec, String> {
        let mut spec = DeviceSpec::by_name(&self.base)
            .ok_or_else(|| format!("unknown base device \"{}\" (v100|a100)", self.base))?;
        if let Some(kb) = self.l1_kb {
            spec = spec.with_l1_bytes(kb * 1024);
        }
        if let Some(gbps) = self.nvlink_gbps {
            spec = spec.with_nvlink_gbps(gbps);
        }
        if self.half_precision {
            spec = spec.with_half_precision();
        }
        Ok(spec)
    }
}

/// A parsed and validated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (output directory component).
    pub name: String,
    /// Dataset scale every training uses.
    pub scale: Scale,
    /// Training seed.
    pub seed: u64,
    /// Epochs trained per workload.
    pub epochs: usize,
    /// Parameter/activation storage precision every training uses
    /// (optional; defaults to fp32). Part of the replay-cache key: an fp16
    /// run records a different op stream than an fp32 run.
    pub precision: Precision,
    /// Training mode every training uses (optional; defaults to
    /// full-graph). Part of the replay-cache key: a minibatch run records
    /// a different op stream than a full-graph run. Set via `"mode":
    /// "minibatch"` plus optional `"batch_size"` and `"fanouts"` fields.
    pub mode: TrainMode,
    /// Job kind (optional `"kind"` field; defaults to `"train"`). An
    /// `"infer"` campaign captures and replays forward-only inference
    /// streams instead of training streams; for infer jobs `epochs`
    /// doubles as the batched-step count.
    pub phase: ExecPhase,
    /// Workloads swept (defaults to the full suite).
    pub workloads: Vec<WorkloadKind>,
    /// Device configurations replayed against each captured stream.
    pub configs: Vec<DeviceConfig>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field \"{key}\""))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field \"{key}\" must be a string"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field \"{key}\" must be a non-negative integer"))
}

impl CampaignSpec {
    /// Parses and validates a campaign spec from JSON text.
    ///
    /// # Errors
    /// A human-readable message naming the malformed field.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let v = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&v)
    }

    /// Builds a spec from an already-parsed JSON value (the daemon parses
    /// request bodies once).
    ///
    /// # Errors
    /// A human-readable message naming the malformed field.
    pub fn from_value(v: &JsonValue) -> Result<CampaignSpec, String> {
        let name = str_field(v, "name")?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!(
                "campaign name \"{name}\" must be non-empty [A-Za-z0-9_-] \
                 (it becomes a directory name)"
            ));
        }
        let scale_s = str_field(v, "scale")?;
        let scale = Scale::parse(&scale_s)
            .ok_or_else(|| format!("unknown scale \"{scale_s}\" (test|small|paper)"))?;
        let seed = u64_field(v, "seed")?;
        let epochs = u64_field(v, "epochs")? as usize;
        if epochs == 0 {
            return Err("field \"epochs\" must be >= 1".to_string());
        }
        let precision = match v.get("precision") {
            None => Precision::Fp32,
            Some(x) => {
                let s = x.as_str().ok_or("field \"precision\" must be a string")?;
                Precision::parse(s)
                    .ok_or_else(|| format!("unknown precision \"{s}\" (fp32|fp16|bf16)"))?
            }
        };

        let mode = match v.get("mode") {
            None => TrainMode::FullGraph,
            Some(x) => {
                let s = x.as_str().ok_or("field \"mode\" must be a string")?;
                match s {
                    "fullgraph" => TrainMode::FullGraph,
                    "minibatch" => {
                        let mut cfg = gnnmark_workloads::MinibatchConfig::default();
                        if let Some(b) = v.get("batch_size") {
                            let b = b
                                .as_u64()
                                .ok_or("field \"batch_size\" must be a positive integer")?;
                            if b == 0 {
                                return Err("field \"batch_size\" must be >= 1".to_string());
                            }
                            cfg.batch_size = b as usize;
                        }
                        if let Some(f) = v.get("fanouts") {
                            let arr = f
                                .as_array()
                                .ok_or("field \"fanouts\" must be an array of integers")?;
                            if arr.is_empty() {
                                return Err("field \"fanouts\" must not be empty".to_string());
                            }
                            cfg.fanouts = arr
                                .iter()
                                .map(|x| {
                                    x.as_u64().map(|v| v as usize).ok_or_else(|| {
                                        "\"fanouts\" entries must be non-negative integers"
                                            .to_string()
                                    })
                                })
                                .collect::<Result<Vec<_>, _>>()?;
                        }
                        TrainMode::Minibatch(cfg)
                    }
                    other => return Err(format!("unknown mode \"{other}\" (fullgraph|minibatch)")),
                }
            }
        };

        let phase = match v.get("kind") {
            None => ExecPhase::Train,
            Some(x) => {
                let s = x.as_str().ok_or("field \"kind\" must be a string")?;
                ExecPhase::parse(s).ok_or_else(|| format!("unknown kind \"{s}\" (train|infer)"))?
            }
        };

        let workloads = match v.get("workloads") {
            None => WorkloadKind::ALL.to_vec(),
            Some(w) => {
                let arr = w
                    .as_array()
                    .ok_or("field \"workloads\" must be an array of labels")?;
                let mut kinds = Vec::with_capacity(arr.len());
                for item in arr {
                    let label = item
                        .as_str()
                        .ok_or("\"workloads\" entries must be strings")?;
                    let kind = WorkloadKind::parse(label).ok_or_else(|| {
                        format!(
                            "unknown workload \"{label}\" (expected one of: {})",
                            WorkloadKind::ALL
                                .iter()
                                .map(|k| k.label())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?;
                    if kinds.contains(&kind) {
                        return Err(format!("duplicate workload \"{label}\""));
                    }
                    kinds.push(kind);
                }
                if kinds.is_empty() {
                    return Err("\"workloads\" must not be empty".to_string());
                }
                kinds
            }
        };

        let cfg_arr = field(v, "configs")?
            .as_array()
            .ok_or("field \"configs\" must be an array")?;
        if cfg_arr.is_empty() {
            return Err("\"configs\" must not be empty".to_string());
        }
        let mut configs = Vec::with_capacity(cfg_arr.len());
        for (i, c) in cfg_arr.iter().enumerate() {
            let cfg = Self::parse_config(c).map_err(|e| format!("configs[{i}]: {e}"))?;
            if configs.iter().any(|p: &DeviceConfig| p.name == cfg.name) {
                return Err(format!(
                    "configs[{i}]: duplicate config name \"{}\"",
                    cfg.name
                ));
            }
            configs.push(cfg);
        }

        Ok(CampaignSpec {
            name,
            scale,
            seed,
            epochs,
            precision,
            mode,
            phase,
            workloads,
            configs,
        })
    }

    fn parse_config(c: &JsonValue) -> Result<DeviceConfig, String> {
        let name = str_field(c, "name")?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        {
            return Err(format!(
                "config name \"{name}\" must be non-empty [A-Za-z0-9_.-]"
            ));
        }
        let base = str_field(c, "device")?;
        let l1_kb = match c.get("l1_kb") {
            None => None,
            Some(x) => Some(
                x.as_u64()
                    .ok_or("\"l1_kb\" must be a non-negative integer")?,
            ),
        };
        let nvlink_gbps = match c.get("nvlink_gbps") {
            None => None,
            Some(x) => {
                let f = x.as_f64().ok_or("\"nvlink_gbps\" must be a number")?;
                if f <= 0.0 {
                    return Err("\"nvlink_gbps\" must be positive".to_string());
                }
                Some(f)
            }
        };
        let half_precision = match c.get("half_precision") {
            None => false,
            Some(x) => x.as_bool().ok_or("\"half_precision\" must be a boolean")?,
        };
        let gpus = match c.get("gpus") {
            None => 1,
            Some(x) => {
                let g = x.as_u64().ok_or("\"gpus\" must be a positive integer")?;
                if g == 0 || g > 16 {
                    return Err("\"gpus\" must be in 1..=16".to_string());
                }
                g as u32
            }
        };
        let cfg = DeviceConfig {
            name,
            base,
            l1_kb,
            nvlink_gbps,
            half_precision,
            gpus,
        };
        cfg.to_device_spec()?; // validate the base device eagerly
        Ok(cfg)
    }

    /// The replay-cache key of one of this campaign's workloads.
    pub(crate) fn cache_key(&self, workload: WorkloadKind) -> CacheKey {
        CacheKey {
            workload,
            scale: self.scale,
            seed: self.seed,
            epochs: self.epochs,
            precision: self.precision,
            mode: self.mode.clone(),
            phase: self.phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "name": "abl",
        "scale": "test",
        "seed": 42,
        "epochs": 1,
        "workloads": ["TLSTM", "ARGA"],
        "configs": [
            {"name": "v100", "device": "v100"},
            {"name": "a100-fp16", "device": "a100", "half_precision": true},
            {"name": "v100-l1", "device": "v100", "l1_kb": 64, "gpus": 4}
        ]
    }"#;

    #[test]
    fn parses_a_full_spec() {
        let s = CampaignSpec::parse(GOOD).unwrap();
        assert_eq!(s.name, "abl");
        assert_eq!(s.scale, Scale::Test);
        assert_eq!(s.seed, 42);
        assert_eq!(s.epochs, 1);
        assert_eq!(
            s.workloads,
            vec![WorkloadKind::Tlstm, WorkloadKind::ArgaCora]
        );
        assert_eq!(s.configs.len(), 3);
        let spec = s.configs[2].to_device_spec().unwrap();
        assert_eq!(spec.l1_bytes, 64 * 1024);
        assert_eq!(s.configs[2].gpus, 4);
        let fp16 = s.configs[1].to_device_spec().unwrap();
        assert_eq!(fp16.elem_bytes, 2);
    }

    #[test]
    fn parses_minibatch_mode() {
        let s = CampaignSpec::parse(
            r#"{"name":"mb","scale":"test","seed":1,"epochs":1,
                "mode":"minibatch","batch_size":16,"fanouts":[8,4],
                "workloads":["ARGA"],
                "configs":[{"name":"v100","device":"v100"}]}"#,
        )
        .unwrap();
        assert_eq!(s.mode.key(), "minibatch-b16-f8x4");
        // Defaults: no mode field means full-graph.
        let d = CampaignSpec::parse(
            r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                "configs":[{"name":"v100","device":"v100"}]}"#,
        )
        .unwrap();
        assert_eq!(d.mode, TrainMode::FullGraph);
        // Bad values are named errors.
        for (frag, what) in [
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,"mode":"turbo",
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "mode",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                    "mode":"minibatch","batch_size":0,
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "batch_size",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                    "mode":"minibatch","fanouts":[],
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "fanouts",
            ),
        ] {
            let err = CampaignSpec::parse(frag).unwrap_err();
            assert!(err.contains(what), "expected {what} error, got: {err}");
        }
    }

    #[test]
    fn parses_job_kind() {
        // Default is a training campaign.
        let s = CampaignSpec::parse(GOOD).unwrap();
        assert_eq!(s.phase, ExecPhase::Train);
        let i = CampaignSpec::parse(
            r#"{"name":"inf","scale":"test","seed":1,"epochs":1,"kind":"infer",
                "workloads":["TLSTM"],
                "configs":[{"name":"v100","device":"v100"}]}"#,
        )
        .unwrap();
        assert_eq!(i.phase, ExecPhase::Infer);
        let err = CampaignSpec::parse(
            r#"{"name":"x","scale":"test","seed":1,"epochs":1,"kind":"predict",
                "configs":[{"name":"v100","device":"v100"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("kind"), "got: {err}");
    }

    #[test]
    fn defaults_workloads_to_full_suite() {
        let s = CampaignSpec::parse(
            r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                "configs":[{"name":"v100","device":"v100"}]}"#,
        )
        .unwrap();
        assert_eq!(s.workloads.len(), WorkloadKind::ALL.len());
    }

    #[test]
    fn rejects_malformed_specs() {
        for (frag, what) in [
            (
                r#"{"scale":"test","seed":1,"epochs":1,"configs":[]}"#,
                "name",
            ),
            (
                r#"{"name":"x","scale":"huge","seed":1,"epochs":1,
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "scale",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":0,
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "epochs",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,"configs":[]}"#,
                "configs",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                    "configs":[{"name":"c","device":"tpu"}]}"#,
                "device",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                    "workloads":["NOPE"],
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "workload",
            ),
            (
                r#"{"name":"x","scale":"test","seed":1,"epochs":1,
                    "configs":[{"name":"c","device":"v100"},
                               {"name":"c","device":"a100"}]}"#,
                "duplicate",
            ),
            (
                r#"{"name":"../evil","scale":"test","seed":1,"epochs":1,
                    "configs":[{"name":"c","device":"v100"}]}"#,
                "name",
            ),
            ("not json", "JSON"),
        ] {
            let err = CampaignSpec::parse(frag).unwrap_err();
            assert!(
                err.to_lowercase().contains(&what.to_lowercase()),
                "spec {frag} expected error about {what}, got: {err}"
            );
        }
    }
}
