//! The one flag grammar of the `gnnmark` and `bench-check` binaries.
//!
//! Every command reads its argv through a [`Flags`] reader, and the
//! suite-backed commands (`gnnmark <target>`, `infer` and `report`) read
//! the shared suite flags through [`parse_suite_args`], so one setting
//! means the same thing on every path. Parsers return `Err(message)`;
//! the binary prints it with its usage text and exits with code 2.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use gnnmark::suite::SuiteConfig;
use gnnmark::{MinibatchConfig, Scale, TrainMode};
use gnnmark_tensor::half::Precision;

/// An argv reader: hands out flags one at a time and reads each flag's
/// value with its check.
pub struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// A reader over `args` (the program name already skipped).
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// Feeds every argument to `f`, with the reader positioned after it so
    /// `f` can take the flag's value. `f` returns `Ok(false)` for an
    /// argument it does not know, which is an error.
    ///
    /// # Errors
    /// The first error `f` returns, or the first unknown argument.
    pub fn each(
        mut self,
        mut f: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
    ) -> Result<(), String> {
        while let Some(arg) = self.args.next() {
            if !f(&arg, &mut self)? {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(())
    }

    /// The value that follows `flag`.
    ///
    /// # Errors
    /// `flag` is the last argument.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, parsed as a `T`.
    ///
    /// # Errors
    /// A missing or unparseable value.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|e| format!("bad {flag} value `{v}`: {e}"))
    }

    /// A count of at least 1.
    ///
    /// # Errors
    /// A missing or unparseable value, or 0.
    pub fn count(&mut self, flag: &str) -> Result<usize, String> {
        match self.parse(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A positive, finite number of seconds.
    ///
    /// # Errors
    /// A missing or unparseable value, or one that is not a positive
    /// duration.
    pub fn secs(&mut self, flag: &str) -> Result<Duration, String> {
        let s: f64 = self.parse(flag)?;
        Duration::try_from_secs_f64(s)
            .ok()
            .filter(|d| !d.is_zero())
            .ok_or_else(|| format!("{flag} must be a positive number of seconds"))
    }
}

/// Parses the argv of a suite-backed command. The suite flags (`--scale
/// --epochs --seed --threads --precision --mode --batch-size --fanout`)
/// update `cfg`; every other argument goes to `other`, as in
/// [`Flags::each`]. `--threads` takes effect at once, so paths that never
/// start a suite (`table1`) see it too. `--batch-size` and `--fanout`
/// imply `--mode minibatch`; with `--mode fullgraph` they are an error.
///
/// # Errors
/// A bad suite-flag value, an error from `other`, or an unknown flag.
pub fn parse_suite_args(
    args: impl IntoIterator<Item = String>,
    mut cfg: SuiteConfig,
    mut other: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Result<SuiteConfig, String> {
    let mut mode: Option<String> = None;
    let mut batch_size = None;
    let mut fanouts = None;
    Flags::new(args).each(|flag, f| {
        match flag {
            "--scale" => {
                let v = f.value(flag)?;
                cfg.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale `{v}` (tiny|test|small|paper)"))?;
            }
            "--epochs" => cfg.epochs = f.count(flag)?,
            "--seed" => cfg.seed = f.parse(flag)?,
            "--threads" => {
                let n = f.count(flag)?;
                cfg.threads = Some(n);
                gnnmark_tensor::par::set_threads(n);
            }
            "--precision" => {
                let v = f.value(flag)?;
                cfg.precision = Precision::parse(&v)
                    .ok_or_else(|| format!("unknown precision `{v}` (fp32|fp16|bf16)"))?;
            }
            "--mode" => {
                let v = f.value(flag)?;
                if !matches!(v.as_str(), "fullgraph" | "minibatch") {
                    return Err(format!("unknown mode `{v}` (fullgraph|minibatch)"));
                }
                mode = Some(v);
            }
            "--batch-size" => batch_size = Some(f.count(flag)?),
            "--fanout" => {
                let v = f.value(flag)?;
                let levels: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse()).collect();
                fanouts = Some(levels.map_err(|e| format!("bad fanout list `{v}`: {e}"))?);
            }
            _ => return other(flag, f),
        }
        Ok(true)
    })?;
    let wants_minibatch = batch_size.is_some() || fanouts.is_some();
    match (mode.as_deref(), wants_minibatch) {
        (Some("fullgraph"), true) => {
            return Err("--batch-size/--fanout only apply to --mode minibatch".to_string());
        }
        (Some("fullgraph"), false) => cfg.mode = TrainMode::FullGraph,
        (Some(_), _) | (None, true) => {
            let mut mb = MinibatchConfig::default();
            if let Some(b) = batch_size {
                mb.batch_size = b;
            }
            if let Some(f) = fanouts {
                mb.fanouts = f;
            }
            cfg.mode = TrainMode::Minibatch(mb);
        }
        (None, false) => {}
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn suite(s: &[&str]) -> Result<SuiteConfig, String> {
        parse_suite_args(argv(s), SuiteConfig::small(), |_, _| Ok(false))
    }

    #[test]
    fn suite_flags_set_the_config() {
        let cfg = suite(&[
            "--scale",
            "TINY",
            "--epochs",
            "3",
            "--seed",
            "7",
            "--threads",
            "2",
            "--precision",
            "bf16",
            "--batch-size",
            "16",
            "--fanout",
            "6, 4",
        ])
        .unwrap();
        assert_eq!(cfg.scale, Scale::Test);
        assert_eq!((cfg.epochs, cfg.seed, cfg.threads), (3, 7, Some(2)));
        assert_eq!(cfg.precision, Precision::Bf16);
        assert_eq!(
            cfg.mode,
            TrainMode::Minibatch(MinibatchConfig {
                batch_size: 16,
                fanouts: vec![6, 4],
            })
        );
        assert_eq!(
            suite(&["--mode", "minibatch"]).unwrap().mode,
            TrainMode::Minibatch(MinibatchConfig::default())
        );
        assert_eq!(
            suite(&["--mode", "fullgraph"]).unwrap().mode,
            TrainMode::FullGraph
        );
        assert_eq!(
            format!("{:?}", suite(&[]).unwrap()),
            format!("{:?}", SuiteConfig::small())
        );
    }

    #[test]
    fn value_readers_check_their_values() {
        let mut f = Flags::new(argv(&["2.5", "0", "nan", "1e30", "x"]));
        assert_eq!(f.secs("--t").unwrap(), Duration::from_millis(2500));
        assert!(f.secs("--t").is_err());
        assert!(f.secs("--t").is_err());
        assert!(
            f.secs("--t").is_err(),
            "an overflowing duration is an error"
        );
        assert!(f.count("--n").unwrap_err().contains("bad --n value `x`"));
        assert_eq!(f.value("--v").unwrap_err(), "--v needs a value");
    }

    #[test]
    fn other_flags_and_positionals_reach_the_caller() {
        let mut seen = Vec::new();
        let cfg = parse_suite_args(
            argv(&["a.stream", "--epochs", "2", "--out", "x"]),
            SuiteConfig::test(),
            |flag, f| {
                match flag {
                    "--out" => seen.push(f.value(flag)?),
                    p if !p.starts_with('-') => seen.push(p.to_string()),
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(cfg.epochs, 2);
        assert_eq!(seen, ["a.stream", "x"]);
    }
}
