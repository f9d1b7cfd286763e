//! Command-line options shared by all experiment binaries.

use cf_tensor::Dtype;

/// Options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Reduced-budget mode: fewer seeds, shorter series, smaller epoch
    /// budgets. Intended for CI and for reproducing table *shapes* quickly.
    pub quick: bool,
    /// Number of random seeds per (method, dataset) cell.
    pub seeds: usize,
    /// Optional JSON output path.
    pub json_out: Option<String>,
    /// Also write a per-run metrics artifact (wall times, tape op profile,
    /// span summary) next to the `--json` output.
    pub metrics: bool,
    /// Worker-thread override; `None` keeps the `CF_THREADS` / core-count
    /// default. Results are bitwise identical at any thread count, so this
    /// only affects wall time.
    pub threads: Option<usize>,
    /// Compute precision for CausalFormer cells (`--dtype f32|f64`). The
    /// baselines always run f64; f64 is the bitwise-reproducible default.
    pub dtype: Dtype,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            quick: false,
            seeds: 5,
            json_out: None,
            metrics: false,
            threads: None,
            dtype: Dtype::F64,
        }
    }
}

/// Parses `--quick`, `--seeds K`, and `--json PATH` from an argument
/// iterator (binary name already stripped). Unknown arguments abort with a
/// usage message.
pub fn parse_options(args: impl Iterator<Item = String>) -> Options {
    let mut options = Options::default();
    let mut explicit_seeds = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--seeds" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--seeds requires a value"));
                options.seeds = v
                    .parse()
                    .unwrap_or_else(|_| usage_abort("--seeds must be a positive integer"));
                if options.seeds == 0 {
                    usage_abort("--seeds must be ≥ 1");
                }
                explicit_seeds = true;
            }
            "--json" => {
                options.json_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_abort("--json requires a path")),
                );
            }
            "--metrics" => options.metrics = true,
            "--dtype" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--dtype requires f32 or f64"));
                options.dtype = v
                    .parse()
                    .unwrap_or_else(|_| usage_abort("--dtype must be f32 or f64"));
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_abort("--threads requires a value"));
                options.threads = Some(
                    cf_par::parse_threads(&v)
                        .unwrap_or_else(|e| usage_abort(&format!("--threads: {e}"))),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_abort(&format!("unknown argument: {other}")),
        }
    }
    if options.quick && !explicit_seeds {
        options.seeds = 2;
    }
    if let Some(n) = options.threads {
        cf_par::set_threads(n);
    }
    options
}

const USAGE: &str = "\
usage: <experiment> [--quick] [--seeds K] [--json PATH] [--metrics]
                    [--threads N] [--dtype D]
  --quick      reduced budgets (2 seeds, shorter series, fewer epochs)
  --seeds K    seeds per cell (default 5; 2 with --quick)
  --json PATH  dump machine-readable results
  --metrics    also write wall times + op profile to <PATH>.metrics.json
               (metrics.json without --json)
  --threads N  worker threads, 1 to 1024 (default: CF_THREADS env, else
               all cores; results are identical at any thread count)
  --dtype D    CausalFormer compute precision: f64 (default, bitwise-
               reproducible) or f32 (~2× faster; baselines stay f64)";

fn usage_abort(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_options(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert!(!o.quick);
        assert_eq!(o.seeds, 5);
        assert!(o.json_out.is_none());
    }

    #[test]
    fn quick_lowers_default_seeds() {
        let o = parse(&["--quick"]);
        assert!(o.quick);
        assert_eq!(o.seeds, 2);
    }

    #[test]
    fn explicit_seeds_override_quick_default() {
        let o = parse(&["--quick", "--seeds", "7"]);
        assert_eq!(o.seeds, 7);
        let o2 = parse(&["--seeds", "3", "--quick"]);
        assert_eq!(o2.seeds, 3);
    }

    #[test]
    fn json_path_captured() {
        let o = parse(&["--json", "/tmp/out.json"]);
        assert_eq!(o.json_out.as_deref(), Some("/tmp/out.json"));
    }

    #[test]
    fn metrics_flag_captured() {
        assert!(!parse(&[]).metrics);
        assert!(parse(&["--metrics"]).metrics);
    }

    #[test]
    fn dtype_flag_captured_with_f64_default() {
        assert_eq!(parse(&[]).dtype, Dtype::F64);
        assert_eq!(parse(&["--dtype", "f32"]).dtype, Dtype::F32);
        assert_eq!(parse(&["--dtype", "f64"]).dtype, Dtype::F64);
    }

    #[test]
    fn threads_flag_captured_and_applied() {
        assert_eq!(parse(&[]).threads, None);
        let o = parse(&["--threads", "2"]);
        assert_eq!(o.threads, Some(2));
        assert_eq!(cf_par::threads(), 2);
    }
}
