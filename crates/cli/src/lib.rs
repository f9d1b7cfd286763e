//! # cf-cli
//!
//! Library backing the `causalformer` command-line tool. The CLI logic
//! lives here (parsing, command execution against in-memory buffers) so it
//! is unit-testable; `main.rs` is a thin shell.
//!
//! Commands:
//!
//! * `discover` — run CausalFormer on a CSV of time series (column per
//!   series), print the causal graph, optionally write DOT and a model
//!   checkpoint.
//! * `generate` — synthesise one of the benchmark datasets to CSV (for
//!   trying the tool without data).
//! * `report` — render the artifacts a `discover` run wrote
//!   (`--metrics-out`, `--trace-out`, `--diag-out`) into one
//!   self-contained HTML dashboard.
//!
//! ```text
//! causalformer discover --input series.csv --preset fmri --dot graph.dot
//! causalformer generate --dataset fork --length 600 --output fork.csv
//! causalformer report --metrics run.jsonl --trace trace.json --out report.html
//! ```

pub mod analyze;
#[cfg(test)]
mod jsonl_damage;
pub mod monitor;
pub mod report;

pub use analyze::{run_analyze, AnalyzeArgs};
pub use monitor::{run_monitor, MonitorArgs};
pub use report::{run_report, ReportArgs};

use causalformer::{presets, CausalFormer, CheckpointConfig, Dtype, StreamOptions, Windows};
use cf_data::{io as csv_io, lorenz96, synthetic};
use cf_metrics::graph_dot_plain;
use cf_store::{FsStorage, SeriesStore, SeriesWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// CLI errors with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is the usage hint.
    Usage(String),
    /// Anything that went wrong executing the command.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
causalformer — temporal causal discovery (CausalFormer, ICDE 2025)

usage:
  causalformer discover (--input FILE.csv | --store DIR) [--preset NAME]
                        [--window T] [--epochs E] [--seed S] [--threads N]
                        [--dtype D] [--max-windows N]
                        [--dot FILE] [--save FILE] [--metrics-out FILE.jsonl]
                        [--trace-out FILE.json] [--diag-out FILE.cfdiag]
                        [--heartbeat-out FILE.jsonl]
                        [--checkpoint-dir DIR] [--checkpoint-every N]
                        [--resume] [--log-level LEVEL] [--quiet]
  causalformer generate --dataset NAME [--length L] [--seed S]
                        (--output FILE.csv | --store-out DIR)
                        [--chunk-len N] [--codec NAME]
  causalformer report   --out FILE.html [--metrics FILE.jsonl]
                        [--trace FILE.json] [--compare-trace FILE.json]
                        [--diag FILE.cfdiag]
  causalformer analyze  (--trace FILE.json | --compare BASE.json SCALED.json)
                        [--top N] [--threads-base N] [--threads-scaled N]
                        [--max-serial-fraction S] [--flamegraph FILE.folded]
                        [--json]
  causalformer monitor  HEARTBEAT.jsonl [--once] [--interval MS]

discover options:
  --store DIR          read the series from a chunked cf-store directory
                       (written by generate --store-out) instead of a CSV;
                       one scan reads each chunk once and keeps only the
                       windows, so peak memory is set by --max-windows,
                       not the series length
  --max-windows N      window budget for --store (default 4096); when the
                       natural window count exceeds it, the stride widens
                       deterministically to N evenly spaced windows
  --preset NAME        synthetic-dense | synthetic-sparse | lorenz | fmri | sst
                       (default: fmri — the most general setting)
  --window T           observation window override
  --epochs E           training epoch override
  --seed S             RNG seed (default 0)
  --threads N          worker threads, 1 to 1024 (default: CF_THREADS env,
                       else all cores; results are identical at any
                       thread count)
  --dtype D            compute precision: f64 (default; bitwise-
                       reproducible) or f32 (faster training — speedup
                       grows with model width — with f64-accumulated
                       reductions; results may differ in the last bits,
                       discovered graphs agree in practice)
  --dot FILE           write the discovered graph as Graphviz DOT
  --save FILE          write the trained model (.json — readable JSON;
                       .cft — compact CFTENS1 binary at the run's dtype)
  --metrics-out FILE   write JSONL telemetry (stage timings, per-epoch
                       records, tape op profile, discovery summary)
  --trace-out FILE     write a Chrome trace_event JSON timeline (load it
                       in Perfetto / chrome://tracing): per-thread spans,
                       worker activity, pool counters
  --diag-out FILE      write per-epoch model diagnostics (cfdiag JSONL:
                       mask sparsity/entropy, causal-score trajectories,
                       grad norms, relevance quantiles); the artifact is
                       bitwise identical at any --threads value
  --heartbeat-out FILE write live runtime telemetry as line-atomic JSONL:
                       a background sampler (CF_HEARTBEAT_MS, default 250)
                       records RSS, pool and scheduler counters, per-unit
                       progress/ETA, and stall flags — tail it live with
                       `causalformer monitor FILE`; the sampler never
                       touches the training path, so discovery stays
                       bitwise identical with or without it
                       (CF_WATCHDOG=warn:SECS | fatal:SECS arms a stall
                       watchdog that dumps open spans — and under fatal
                       exits nonzero — when no worker makes progress)
  --checkpoint-dir DIR write crash-safe training checkpoints into DIR
  --checkpoint-every N checkpoint every N epochs (default 1)
  --resume             continue from the newest checkpoint in DIR; the
                       result is bitwise identical to an uninterrupted run
  --log-level LEVEL    off | error | warn | info | debug | trace
                       (default info; the CF_LOG env var also works)
  --quiet              suppress per-epoch progress (same as --log-level warn)

generate options:
  --dataset NAME  diamond | mediator | v-structure | fork | lorenz96
  --length L      series length (default 600)
  --seed S        RNG seed (default 0)
  --store-out DIR write a chunked, checksummed cf-store instead of (or in
                  addition to) the CSV; lorenz96 streams straight into the
                  chunks, so --length can far exceed RAM
  --chunk-len N   store chunk length in time steps (default 65536)
  --codec NAME    store chunk codec: raw | delta | delta-varint
                  (default delta-varint)

report options:
  --out FILE      HTML output path (required)
  --metrics FILE  JSONL telemetry from discover --metrics-out
  --trace FILE    Chrome trace from discover --trace-out
  --diag FILE     diagnostics from discover --diag-out
                  (at least one input is required; panels whose input is
                  missing render a note instead of a chart)
  --compare-trace FILE
                  second Chrome trace of the same workload at a higher
                  thread count; adds a scaling-attribution panel

analyze options:
  --trace FILE         analyze one Chrome trace: top self-time spans,
                       thread utilization, serial fraction, critical path
  --compare BASE SCALED
                       compare two traces of the same workload (e.g. a
                       1-thread and a 4-thread run): ranks spans whose
                       wall time fails to shrink with more threads
  --top N              rows per table (default 15)
  --threads-base N     baseline parallelism (default: inferred from
                       cf-par worker timelines in the trace)
  --threads-scaled N   scaled-trace parallelism (default: inferred)
  --max-serial-fraction S
                       with --compare: exit 1 when the Amdahl serial
                       fraction exceeds S (skipped, with a note, when a
                       trace ran oversubscribed)
  --flamegraph FILE    with --trace: also write collapsed stacks
                       (`frame;frame value` lines, integer µs self-time) —
                       feed to any flamegraph renderer, or inline via
                       `report --trace` (panel-flame)
  --json               machine-readable JSON instead of tables

monitor options:
  tails a heartbeat JSONL written by discover --heartbeat-out and
  redraws a terminal view: RSS sparkline, pool hit rate, per-thread busy
  fractions, per-unit progress bars with ETA, and a stall banner; exits
  when the producer writes its run_end record
  --once          render the current state once and exit (no tailing)
  --interval MS   redraw period in follow mode (default 500)";

/// Parsed `discover` arguments.
#[derive(Debug, Clone)]
pub struct DiscoverArgs {
    /// Input CSV path (empty when reading from `store`).
    pub input: String,
    /// Chunked series-store directory to stream from instead of a CSV.
    pub store: Option<String>,
    /// Window budget for store streaming (`StreamOptions::max_windows`).
    pub max_windows: Option<usize>,
    /// Preset name.
    pub preset: String,
    /// Window override.
    pub window: Option<usize>,
    /// Epoch override.
    pub epochs: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Worker-thread override (`cf_par::set_threads`).
    pub threads: Option<usize>,
    /// Compute precision (element type) for training and detection.
    pub dtype: Dtype,
    /// DOT output path.
    pub dot: Option<String>,
    /// Checkpoint output path.
    pub save: Option<String>,
    /// JSONL telemetry output path.
    pub metrics_out: Option<String>,
    /// Chrome trace_event JSON output path.
    pub trace_out: Option<String>,
    /// Model-diagnostics (cfdiag JSONL) output path.
    pub diag_out: Option<String>,
    /// Heartbeat JSONL output path (live runtime telemetry).
    pub heartbeat_out: Option<String>,
    /// Training-checkpoint directory (enables crash-safe training).
    pub checkpoint_dir: Option<String>,
    /// Epochs between checkpoints (requires `checkpoint_dir`).
    pub checkpoint_every: Option<usize>,
    /// Resume from the newest checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Log level override (parsed in `run_discover`).
    pub log_level: Option<String>,
    /// Suppress per-epoch progress lines.
    pub quiet: bool,
}

impl Default for DiscoverArgs {
    fn default() -> Self {
        Self {
            input: String::new(),
            store: None,
            max_windows: None,
            preset: "fmri".into(),
            window: None,
            epochs: None,
            seed: 0,
            threads: None,
            dtype: Dtype::F64,
            dot: None,
            save: None,
            metrics_out: None,
            trace_out: None,
            diag_out: None,
            heartbeat_out: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            log_level: None,
            quiet: false,
        }
    }
}

/// Parsed `generate` arguments.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    /// Dataset name.
    pub dataset: String,
    /// Series length.
    pub length: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output CSV path (empty when only `store_out` is requested).
    pub output: String,
    /// Chunked series-store output directory.
    pub store_out: Option<String>,
    /// Store chunk length in time steps.
    pub chunk_len: usize,
    /// Store chunk codec name.
    pub codec: String,
}

impl Default for GenerateArgs {
    fn default() -> Self {
        Self {
            dataset: String::new(),
            length: 600,
            seed: 0,
            output: String::new(),
            store_out: None,
            chunk_len: 65536,
            codec: "delta-varint".into(),
        }
    }
}

/// A parsed command.
// One instance exists per process invocation, so the size spread between
// `Discover` and the flag-less variants is irrelevant — not worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Command {
    /// `discover` subcommand.
    Discover(DiscoverArgs),
    /// `generate` subcommand.
    Generate(GenerateArgs),
    /// `report` subcommand.
    Report(ReportArgs),
    /// `analyze` subcommand.
    Analyze(AnalyzeArgs),
    /// `monitor` subcommand.
    Monitor(MonitorArgs),
    /// `--help`.
    Help,
}

/// Parses the full argument list (program name already stripped).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut f = Flags {
        rest,
        i: 0,
        positionals: sub == "monitor",
    };
    match sub.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "discover" => {
            let mut a = DiscoverArgs::default();
            while let Some(flag) = f.next() {
                match flag {
                    "--quiet" => a.quiet = true,
                    "--resume" => a.resume = true,
                    "--input" => a.input = f.value(flag)?,
                    "--store" => a.store = Some(f.value(flag)?),
                    "--max-windows" => a.max_windows = Some(f.count(flag)?),
                    "--preset" => a.preset = f.value(flag)?,
                    "--window" => a.window = Some(f.num(flag)?),
                    "--epochs" => a.epochs = Some(f.num(flag)?),
                    "--seed" => a.seed = f.num(flag)?,
                    "--threads" => {
                        a.threads = Some(
                            cf_par::parse_threads(&f.value(flag)?)
                                .map_err(|e| CliError::Usage(format!("{flag}: {e}")))?,
                        )
                    }
                    "--dtype" => a.dtype = f.value(flag)?.parse().map_err(CliError::Usage)?,
                    "--dot" => a.dot = Some(f.value(flag)?),
                    "--save" => a.save = Some(f.value(flag)?),
                    "--metrics-out" => a.metrics_out = Some(f.value(flag)?),
                    "--trace-out" => a.trace_out = Some(f.value(flag)?),
                    "--diag-out" => a.diag_out = Some(f.value(flag)?),
                    "--heartbeat-out" => a.heartbeat_out = Some(f.value(flag)?),
                    "--checkpoint-dir" => a.checkpoint_dir = Some(f.value(flag)?),
                    "--checkpoint-every" => a.checkpoint_every = Some(f.count(flag)?),
                    "--log-level" => a.log_level = Some(f.value(flag)?),
                    other => return Err(f.unknown(other)),
                }
            }
            if a.input.is_empty() && a.store.is_none() {
                return usage("discover requires --input or --store");
            }
            if !a.input.is_empty() && a.store.is_some() {
                return usage("--input and --store are mutually exclusive");
            }
            if a.store.is_none() && a.max_windows.is_some() {
                return usage("--max-windows requires --store");
            }
            if a.checkpoint_dir.is_none() && (a.resume || a.checkpoint_every.is_some()) {
                return usage("--resume / --checkpoint-every require --checkpoint-dir");
            }
            Ok(Command::Discover(a))
        }
        "generate" => {
            let mut a = GenerateArgs::default();
            while let Some(flag) = f.next() {
                match flag {
                    "--dataset" => a.dataset = f.value(flag)?,
                    "--length" => a.length = f.num(flag)?,
                    "--seed" => a.seed = f.num(flag)?,
                    "--output" => a.output = f.value(flag)?,
                    "--store-out" => a.store_out = Some(f.value(flag)?),
                    "--chunk-len" => a.chunk_len = f.count(flag)?,
                    "--codec" => a.codec = f.value(flag)?,
                    other => return Err(f.unknown(other)),
                }
            }
            if a.dataset.is_empty() || (a.output.is_empty() && a.store_out.is_none()) {
                return usage("generate requires --dataset and one of --output / --store-out");
            }
            Ok(Command::Generate(a))
        }
        "report" => {
            let mut a = ReportArgs::default();
            while let Some(flag) = f.next() {
                match flag {
                    "--metrics" => a.metrics = Some(f.value(flag)?),
                    "--trace" => a.trace = Some(f.value(flag)?),
                    "--compare-trace" => a.compare_trace = Some(f.value(flag)?),
                    "--diag" => a.diag = Some(f.value(flag)?),
                    "--out" => a.out = f.value(flag)?,
                    other => return Err(f.unknown(other)),
                }
            }
            if a.out.is_empty() {
                return usage("report requires --out");
            }
            if a.metrics.is_none() && a.trace.is_none() && a.diag.is_none() {
                return usage("report requires at least one of --metrics, --trace, --diag");
            }
            if a.compare_trace.is_some() && a.trace.is_none() {
                return usage("--compare-trace requires --trace (the baseline trace)");
            }
            Ok(Command::Report(a))
        }
        "analyze" => {
            let mut a = AnalyzeArgs::default();
            while let Some(flag) = f.next() {
                match flag {
                    "--json" => a.json = true,
                    "--compare" => {
                        let two = || CliError::Usage("--compare requires two files".into());
                        let base = f.next().ok_or_else(two)?.to_string();
                        let scaled = f.next().ok_or_else(two)?.to_string();
                        a.compare = Some((base, scaled));
                    }
                    "--trace" => a.trace = Some(f.value(flag)?),
                    "--top" => a.top = f.count(flag)?,
                    "--threads-base" => a.threads_base = Some(f.num(flag)?),
                    "--threads-scaled" => a.threads_scaled = Some(f.num(flag)?),
                    "--max-serial-fraction" => a.max_serial_fraction = Some(f.num(flag)?),
                    "--flamegraph" => a.flamegraph = Some(f.value(flag)?),
                    other => return Err(f.unknown(other)),
                }
            }
            match (&a.trace, &a.compare) {
                (Some(_), None) | (None, Some(_)) => Ok(Command::Analyze(a)),
                _ => usage("analyze requires exactly one of --trace FILE or --compare BASE SCALED"),
            }
        }
        "monitor" => {
            let mut a = MonitorArgs::default();
            while let Some(flag) = f.next() {
                match flag {
                    "--once" => a.once = true,
                    "--interval" => a.interval_ms = f.count(flag)?,
                    other if !a.path.is_empty() => {
                        f.positional(other)?;
                        return usage("monitor takes exactly one HEARTBEAT.jsonl file");
                    }
                    other => a.path = f.positional(other)?,
                }
            }
            if a.path.is_empty() {
                return usage("monitor requires a HEARTBEAT.jsonl file");
            }
            Ok(Command::Monitor(a))
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// The one flag parser behind every subcommand: a cursor over the
/// arguments. Each subcommand's `match` on [`Flags::next`] is its flag
/// table; an arm takes as many values as its flag needs (none for a
/// switch, one through [`Flags::value`] and its typed variants, two for
/// `analyze --compare`), so errors surface in argument order.
struct Flags<'a> {
    rest: &'a [String],
    i: usize,
    /// Whether bare (non `--`) arguments are positional files
    /// (`monitor`).
    positionals: bool,
}

impl<'a> Flags<'a> {
    /// The next argument, if any.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.rest.get(self.i)?;
        self.i += 1;
        Some(arg)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.next()
            .map(str::to_string)
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    }

    /// The value following `flag`, parsed as a number.
    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| CliError::Usage(format!("{flag}: cannot parse {value:?}")))
    }

    /// The value following `flag`, parsed as a count of at least 1.
    fn count<T: std::str::FromStr + PartialEq + From<u8>>(
        &mut self,
        flag: &str,
    ) -> Result<T, CliError> {
        let n = self.num(flag)?;
        if n == T::from(0) {
            return Err(CliError::Usage(format!("{flag} must be at least 1")));
        }
        Ok(n)
    }

    /// `arg` as a positional file, or the error for an unknown flag.
    fn positional(&mut self, arg: &str) -> Result<String, CliError> {
        if arg.starts_with("--") {
            return Err(self.unknown(arg));
        }
        Ok(arg.to_string())
    }

    /// The error for an unrecognised `flag`. Subcommands without
    /// positional files read every argument as a flag and its value, so
    /// there a trailing unknown flag reports its missing value first.
    fn unknown(&mut self, flag: &str) -> CliError {
        if !self.positionals {
            if let Err(missing) = self.value(flag) {
                return missing;
            }
        }
        CliError::Usage(format!("unknown flag {flag}"))
    }
}

/// A usage error with message `m`.
fn usage<T>(m: &str) -> Result<T, CliError> {
    Err(CliError::Usage(m.into()))
}

/// Builds the pipeline for a preset name and series count.
pub fn preset_by_name(name: &str, n: usize) -> Result<CausalFormer, CliError> {
    Ok(match name {
        "synthetic-dense" => presets::synthetic_dense(n),
        "synthetic-sparse" => presets::synthetic_sparse(n),
        "lorenz" => presets::lorenz96(n),
        "fmri" => presets::fmri(n),
        "sst" => presets::sst(n),
        other => {
            return Err(CliError::Usage(format!(
                "unknown preset {other:?} (expected synthetic-dense, synthetic-sparse, lorenz, fmri, sst)"
            )))
        }
    })
}

/// Configures logging and the current recorder — its two switches (op
/// detail, ring recording), metrics sink and diagnostics sink — from the
/// parsed `discover` flags.
fn setup_observability(a: &DiscoverArgs) -> Result<(), CliError> {
    if a.quiet {
        cf_obs::log::set_level(cf_obs::log::Level::Warn);
    } else if let Some(name) = &a.log_level {
        let level = cf_obs::log::Level::parse(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown log level {name:?} (expected off, error, warn, info, debug, trace)"
            ))
        })?;
        cf_obs::log::set_level(level);
    } else if std::env::var_os("CF_LOG").is_none() {
        // Interactive default: show per-epoch progress unless the user
        // opted out via --quiet, --log-level, or CF_LOG.
        cf_obs::log::set_level(cf_obs::log::Level::Info);
    }
    cf_obs::span::set_op_detail(a.metrics_out.is_some());
    cf_obs::trace::set_enabled(a.trace_out.is_some());
    let recorder = cf_obs::Recorder::current();
    for (path, sink) in [
        (&a.metrics_out, &recorder.metrics_sink),
        (&a.diag_out, &recorder.diag),
    ] {
        if let Some(path) = path {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Run(format!("opening {path}: {e}")))?;
            sink.install(Box::new(std::io::BufWriter::new(file)));
        }
    }
    // The metrics stream's first record identifies it, so consumers
    // (`report`) can refuse files newer than they understand. See
    // DESIGN.md for the schema; bump METRICS_SCHEMA_VERSION on breaking
    // changes. Without `--metrics-out` the emit is a no-op.
    recorder.metrics_sink.emit(
        &cf_obs::json::Obj::new()
            .str("event", "meta")
            .str("schema_version", METRICS_SCHEMA_VERSION)
            .str("producer", "causalformer")
            .f64("ts", cf_obs::unix_time())
            .finish(),
    );
    Ok(())
}

/// Version of the `--metrics-out` JSONL schema, written in the leading
/// `meta` event. Major bumps mean existing consumers must not parse the
/// file; minor bumps are additive. Files without a `meta` event predate
/// versioning and are treated as `1.0`.
///
/// 2.1 (additive): `span_summary` entries carry streaming percentile
/// estimates (`p50_secs`/`p95_secs`/`p99_secs`), and a `span_hist`
/// summary event records the raw fixed-bucket duration histograms
/// (schema `log2us-v1`, see `cf_obs::hist`).
///
/// 2.2 (additive): the same version also stamps the `--heartbeat-out`
/// stream (`meta` / `heartbeat` / `progress` / `run_end` events, see
/// DESIGN.md §5.7); the `--metrics-out` stream is unchanged.
pub const METRICS_SCHEMA_VERSION: &str = "2.2";

/// Executes `discover`, returning the human-readable report that `main`
/// prints.
pub fn run_discover(a: &DiscoverArgs) -> Result<String, CliError> {
    // The run records into a recorder of its own. It drops on every exit,
    // error returns included, which flushes and closes the run's sinks.
    let _run = cf_obs::Recorder::new().enter();
    setup_observability(a)?;
    // Inside the run's recorder, so the `par.threads` gauge the new pool
    // publishes lands in its metrics summary and heartbeat.
    if let Some(n) = a.threads {
        cf_par::set_threads(n);
    }
    // Live telemetry: the sampler thread runs whenever a heartbeat file is
    // requested, and also (file-less) when CF_WATCHDOG arms the stall
    // watchdog. It only ever *reads* runtime state, so the discovery
    // result is bitwise identical with or without it.
    let heartbeat = if a.heartbeat_out.is_some() || std::env::var_os("CF_WATCHDOG").is_some() {
        let cfg = cf_obs::heartbeat::Config::from_env(METRICS_SCHEMA_VERSION);
        let path = a.heartbeat_out.as_ref().map(std::path::Path::new);
        Some(
            cf_obs::heartbeat::start(path, cfg)
                .map_err(|e| CliError::Run(format!("starting heartbeat: {e}")))?,
        )
    } else {
        None
    };
    let started = std::time::Instant::now();
    let defaults = StreamOptions::default();
    let stream = StreamOptions {
        max_windows: a.max_windows.unwrap_or(defaults.max_windows),
        ..defaults
    };
    let store = match &a.store {
        Some(dir) => Some(
            SeriesStore::open_dir(dir)
                .map_err(|e| CliError::Run(format!("opening store {dir}: {e}")))?,
        ),
        None => None,
    };
    let csv = match &store {
        Some(_) => None,
        None => Some(
            csv_io::read_series_csv_file(&a.input)
                .map_err(|e| CliError::Run(format!("reading {}: {e}", a.input)))?,
        ),
    };
    let (source, names, len) = match (&store, &csv) {
        (Some(st), _) => {
            let m = st.manifest();
            let names = (1..=m.n_series).map(|i| format!("S{i}")).collect();
            (Windows::Store(st, stream), names, m.length)
        }
        (None, Some(parsed)) => {
            let len = parsed.series.shape()[1];
            (Windows::InRam(&parsed.series), parsed.names.clone(), len)
        }
        (None, None) => unreachable!("exactly one series source"),
    };
    let n = names.len();

    let mut cf = preset_by_name(&a.preset, n)?;
    cf.train.dtype = a.dtype;
    if let Some(w) = a.window {
        cf.model.window = w;
    }
    if let Some(e) = a.epochs {
        cf.train.max_epochs = e;
    }
    if cf.model.window >= len {
        return Err(CliError::Run(format!(
            "window {} does not fit series of length {len}",
            cf.model.window
        )));
    }

    let mut rng = StdRng::seed_from_u64(a.seed);
    let result = match (&a.checkpoint_dir, source) {
        (Some(dir), source) => {
            let ckpt = CheckpointConfig::new(dir).every(a.checkpoint_every.unwrap_or(1));
            cf.discover_resumable(&mut rng, source, ckpt, a.resume)
                .map_err(|e| CliError::Run(format!("resumable discovery: {e}")))?
        }
        (None, Windows::InRam(series)) => cf.discover(&mut rng, series),
        (None, Windows::Store(st, stream)) => cf
            .discover_store(&mut rng, st, &stream)
            .map_err(|e| CliError::Run(format!("streaming discovery: {e}")))?,
    };

    let mut out = String::new();
    out.push_str(&format!(
        "discovered {} causal relations over {n} series ({len} slots):\n",
        result.graph.num_edges()
    ));
    for e in result.graph.edges() {
        let delay = e.delay.map(|d| format!(" (delay {d})")).unwrap_or_default();
        out.push_str(&format!("  {} -> {}{delay}\n", names[e.from], names[e.to]));
    }

    if let Some(path) = &a.dot {
        std::fs::write(path, graph_dot_plain(&result.graph, "discovered"))
            .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
        out.push_str(&format!("DOT graph written to {path}\n"));
    }
    if let Some(path) = &a.save {
        // The model discovery trained: `.cft` keeps the run's dtype,
        // `.json` widens to f64.
        result
            .model
            .save(path)
            .map_err(|e| CliError::Run(format!("saving model to {path}: {e}")))?;
        out.push_str(&format!("model checkpoint written to {path}\n"));
    }

    if let Some(path) = &a.metrics_out {
        cf_obs::sink::emit(
            &cf_obs::json::Obj::new()
                .str("event", "discovery")
                .f64("ts", cf_obs::unix_time())
                .str("input", a.store.as_deref().unwrap_or(a.input.as_str()))
                .str("preset", &a.preset)
                .u64("seed", a.seed)
                .u64("n_series", n as u64)
                .u64("series_len", len as u64)
                .u64("edges", result.graph.num_edges() as u64)
                .u64(
                    "epochs_trained",
                    result.train_report.train_losses.len() as u64,
                )
                .f64("wall_secs", started.elapsed().as_secs_f64())
                .finish(),
        );
        cf_obs::sink::emit_summaries();
        out.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = &a.diag_out {
        out.push_str(&format!("diagnostics written to {path}\n"));
    }
    if let Some(path) = &a.trace_out {
        // Stop recording before the drain so the write itself is not
        // traced.
        cf_obs::trace::set_enabled(false);
        cf_obs::export::write_chrome_trace(std::path::Path::new(path))
            .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    if let Some(hb) = heartbeat {
        // Takes one final sample and writes the run_end record so a
        // tailing `monitor` knows the run completed.
        hb.stop();
        if let Some(path) = &a.heartbeat_out {
            out.push_str(&format!("heartbeat written to {path}\n"));
        }
    }
    Ok(out)
}

/// Executes `generate`, returning the report string.
pub fn run_generate(a: &GenerateArgs) -> Result<String, CliError> {
    let mut rng = StdRng::seed_from_u64(a.seed);

    // Pure store output of lorenz96 streams sample-by-sample into the
    // chunked store — the N×L matrix is never materialised, so --length
    // can exceed RAM by orders of magnitude. (With --output too, the CSV
    // needs the matrix anyway, so the in-RAM path below handles both.)
    if let (Some(dir), "lorenz96", true) = (&a.store_out, a.dataset.as_str(), a.output.is_empty()) {
        // Mirrors lorenz96::generate_random_forcing — forcing first, then
        // the trajectory — so the samples are bitwise those of the in-RAM
        // path on the same seed.
        let forcing = rng.gen_range(30.0..=40.0);
        let config = lorenz96::Lorenz96Config {
            n: 10,
            length: a.length,
            forcing,
            ..lorenz96::Lorenz96Config::default()
        };
        let mut writer = SeriesWriter::new(
            Arc::new(FsStorage::new(dir)),
            config.n,
            config.n,
            a.chunk_len,
            &a.codec,
        )
        .map_err(|e| CliError::Run(format!("creating store {dir}: {e}")))?;
        lorenz96::stream(&mut rng, config, |x| writer.append(x))
            .map_err(|e| CliError::Run(format!("writing store {dir}: {e}")))?;
        let manifest = writer
            .finish()
            .map_err(|e| CliError::Run(format!("finishing store {dir}: {e}")))?;
        return Ok(format!(
            "wrote store {dir} ({} series × {} slots, {}×{} chunk grid, codec {}); \
             ground truth: {}\n",
            manifest.n_series,
            manifest.length,
            manifest.v_blocks(),
            manifest.t_blocks(),
            manifest.codec,
            lorenz96::truth(config.n)
        ));
    }

    let dataset = match a.dataset.as_str() {
        "diamond" => synthetic::generate(&mut rng, synthetic::Structure::Diamond, a.length),
        "mediator" => synthetic::generate(&mut rng, synthetic::Structure::Mediator, a.length),
        "v-structure" => synthetic::generate(&mut rng, synthetic::Structure::VStructure, a.length),
        "fork" => synthetic::generate(&mut rng, synthetic::Structure::Fork, a.length),
        "lorenz96" => lorenz96::generate_random_forcing(&mut rng, 10, a.length),
        other => {
            return Err(CliError::Usage(format!(
            "unknown dataset {other:?} (expected diamond, mediator, v-structure, fork, lorenz96)"
        )))
        }
    };
    let names: Vec<String> = (1..=dataset.num_series())
        .map(|i| format!("S{i}"))
        .collect();
    let mut out = String::new();
    if !a.output.is_empty() {
        let mut buf = Vec::new();
        csv_io::write_series_csv(&mut buf, &dataset.series, &names)
            .map_err(|e| CliError::Run(format!("serialising CSV: {e}")))?;
        std::fs::write(&a.output, buf)
            .map_err(|e| CliError::Run(format!("writing {}: {e}", a.output)))?;
        out.push_str(&format!(
            "wrote {} ({} series × {} slots); ground truth: {}\n",
            a.output,
            dataset.num_series(),
            dataset.len(),
            dataset.truth
        ));
    }
    if let Some(dir) = &a.store_out {
        let (n, l) = (dataset.num_series(), dataset.len());
        let mut writer =
            SeriesWriter::new(Arc::new(FsStorage::new(dir)), n, n, a.chunk_len, &a.codec)
                .map_err(|e| CliError::Run(format!("creating store {dir}: {e}")))?;
        let data = dataset.series.data();
        let mut sample = vec![0.0; n];
        for t in 0..l {
            for (i, s) in sample.iter_mut().enumerate() {
                *s = data[i * l + t];
            }
            writer
                .append(&sample)
                .map_err(|e| CliError::Run(format!("writing store {dir}: {e}")))?;
        }
        let manifest = writer
            .finish()
            .map_err(|e| CliError::Run(format!("finishing store {dir}: {e}")))?;
        out.push_str(&format!(
            "wrote store {dir} ({n} series × {l} slots, {}×{} chunk grid, codec {}); \
             ground truth: {}\n",
            manifest.v_blocks(),
            manifest.t_blocks(),
            manifest.codec,
            dataset.truth
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causalformer::{persist, DiscoveredModel};
    use cf_tensor::{Scalar, TensorBase};

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_discover_with_all_flags() {
        let cmd = parse(&s(&[
            "discover",
            "--input",
            "x.csv",
            "--preset",
            "lorenz",
            "--window",
            "8",
            "--epochs",
            "5",
            "--seed",
            "7",
            "--threads",
            "2",
            "--dtype",
            "f32",
            "--dot",
            "g.dot",
            "--save",
            "m.json",
            "--metrics-out",
            "m.jsonl",
            "--trace-out",
            "t.json",
            "--diag-out",
            "d.cfdiag",
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "2",
            "--resume",
            "--log-level",
            "debug",
            "--quiet",
        ]))
        .unwrap();
        match cmd {
            Command::Discover(a) => {
                assert_eq!(a.input, "x.csv");
                assert_eq!(a.preset, "lorenz");
                assert_eq!(a.window, Some(8));
                assert_eq!(a.epochs, Some(5));
                assert_eq!(a.seed, 7);
                assert_eq!(a.threads, Some(2));
                assert_eq!(a.dtype, Dtype::F32);
                assert_eq!(a.dot.as_deref(), Some("g.dot"));
                assert_eq!(a.save.as_deref(), Some("m.json"));
                assert_eq!(a.metrics_out.as_deref(), Some("m.jsonl"));
                assert_eq!(a.trace_out.as_deref(), Some("t.json"));
                assert_eq!(a.diag_out.as_deref(), Some("d.cfdiag"));
                assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpts"));
                assert_eq!(a.checkpoint_every, Some(2));
                assert!(a.resume);
                assert_eq!(a.log_level.as_deref(), Some("debug"));
                assert!(a.quiet);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn quiet_takes_no_value() {
        // --quiet followed by another flag must not swallow it.
        let cmd = parse(&s(&["discover", "--quiet", "--input", "x.csv"])).unwrap();
        match cmd {
            Command::Discover(a) => {
                assert!(a.quiet);
                assert_eq!(a.input, "x.csv");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn resume_requires_checkpoint_dir() {
        for args in [
            vec!["discover", "--input", "x.csv", "--resume"],
            vec!["discover", "--input", "x.csv", "--checkpoint-every", "2"],
        ] {
            match parse(&s(&args)) {
                Err(CliError::Usage(m)) => assert!(m.contains("--checkpoint-dir"), "{m}"),
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
        assert!(matches!(
            parse(&s(&[
                "discover",
                "--input",
                "x.csv",
                "--checkpoint-dir",
                "d",
                "--checkpoint-every",
                "0"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn dtype_defaults_to_f64_and_rejects_unknown_names() {
        let cmd = parse(&s(&["discover", "--input", "x.csv"])).unwrap();
        match cmd {
            Command::Discover(a) => assert_eq!(a.dtype, Dtype::F64),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&s(&["discover", "--input", "x.csv", "--dtype", "f16"])) {
            Err(CliError::Usage(m)) => assert!(m.contains("unknown dtype"), "{m}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn threads_flag_is_bounded() {
        let threads = |n: &str| parse(&s(&["discover", "--input", "x.csv", "--threads", n]));
        match threads(&cf_par::MAX_THREADS.to_string()).unwrap() {
            Command::Discover(a) => assert_eq!(a.threads, Some(cf_par::MAX_THREADS)),
            other => panic!("wrong command {other:?}"),
        }
        for bad in ["0", "1025", "x"] {
            match threads(bad) {
                Err(CliError::Usage(m)) => assert!(m.contains("--threads"), "{m}"),
                other => panic!("--threads {bad}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_missing_input_and_unknown_flags() {
        assert!(matches!(parse(&s(&["discover"])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&s(&["discover", "--wat", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&s(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn no_args_means_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&s(&["--help"])).unwrap(), Command::Help));
    }

    #[test]
    fn preset_names_resolve() {
        for name in [
            "synthetic-dense",
            "synthetic-sparse",
            "lorenz",
            "fmri",
            "sst",
        ] {
            assert!(preset_by_name(name, 4).is_ok(), "{name}");
        }
        assert!(matches!(preset_by_name("nope", 4), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_then_discover_end_to_end() {
        let dir = std::env::temp_dir();
        let csv_path = dir.join("cf_cli_test_fork.csv");
        let dot_path = dir.join("cf_cli_test_fork.dot");
        let gen = GenerateArgs {
            dataset: "fork".into(),
            length: 200,
            seed: 1,
            output: csv_path.to_string_lossy().into_owned(),
            store_out: None,
            chunk_len: 65536,
            codec: "delta-varint".into(),
        };
        let report = run_generate(&gen).unwrap();
        assert!(report.contains("3 series"));

        let metrics_path = dir.join("cf_cli_test_fork.jsonl");
        let disc = DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            store: None,
            max_windows: None,
            preset: "synthetic-sparse".into(),
            window: Some(8),
            epochs: Some(3),
            seed: 1,
            threads: None,
            dtype: Dtype::F64,
            dot: Some(dot_path.to_string_lossy().into_owned()),
            save: None,
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            trace_out: None,
            diag_out: None,
            heartbeat_out: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            log_level: None,
            quiet: true,
        };
        let report = run_discover(&disc).unwrap();
        assert!(
            report.contains("causal relations over 3 series"),
            "{report}"
        );
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("digraph"));

        // The telemetry file holds stage spans, one record per epoch, the
        // op profile, and the discovery summary — one JSON object per line.
        let telemetry = std::fs::read_to_string(&metrics_path).unwrap();
        let events: Vec<&str> = telemetry.lines().collect();
        let count = |kind: &str| {
            events
                .iter()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("meta"), 1, "{telemetry}");
        assert!(
            events[0].contains(&format!("\"schema_version\":\"{METRICS_SCHEMA_VERSION}\"")),
            "meta must be the first event: {telemetry}"
        );
        assert_eq!(count("epoch"), 3, "{telemetry}");
        assert_eq!(count("stage"), 3, "{telemetry}"); // windowing, train, detect
        assert_eq!(count("discovery"), 1, "{telemetry}");
        assert_eq!(count("op_profile"), 1, "{telemetry}");
        assert_eq!(count("span_summary"), 1, "{telemetry}");
        assert!(telemetry.contains("\"op\":\"matmul\""), "{telemetry}");

        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(&dot_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    /// What a `--metrics-out` file says about its run, minus wall time:
    /// span paths and counts, op kinds with counts and FLOPs, per-epoch
    /// losses, the discovered edge count, and the buffer-pool lookups
    /// (`mem.pool.hit + mem.pool.miss`; which of them hit depends on how
    /// warm the pool is, their sum does not).
    #[derive(Debug, PartialEq)]
    struct Telemetry {
        spans: Vec<(String, u64)>,
        ops: Vec<(String, u64, f64)>,
        epochs: Vec<(f64, f64)>,
        edges: Vec<u64>,
        lookups: Vec<u64>,
    }

    fn telemetry(path: &std::path::Path) -> Telemetry {
        let text = std::fs::read_to_string(path).unwrap();
        let events: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let of = |kind: &'static str| {
            events
                .iter()
                .filter(move |e| e["event"].as_str() == Some(kind))
        };
        let summary = |kind: &'static str, key: &str| -> Vec<serde_json::Value> {
            of(kind)
                .flat_map(|e| e[key].as_array().unwrap().clone())
                .collect()
        };
        let mut ops: Vec<(String, u64, f64)> = summary("op_profile", "ops")
            .iter()
            .map(|o| {
                let op = o["op"].as_str().unwrap().to_string();
                (
                    op,
                    o["count"].as_u64().unwrap(),
                    o["approx_gflops"].as_f64().unwrap(),
                )
            })
            .collect();
        ops.sort_by(|a, b| a.0.cmp(&b.0));
        Telemetry {
            spans: summary("span_summary", "spans")
                .iter()
                .map(|s| {
                    (
                        s["span"].as_str().unwrap().to_string(),
                        s["count"].as_u64().unwrap(),
                    )
                })
                .collect(),
            ops,
            epochs: of("epoch")
                .map(|e| {
                    (
                        e["train_loss"].as_f64().unwrap(),
                        e["val_loss"].as_f64().unwrap(),
                    )
                })
                .collect(),
            edges: of("discovery")
                .map(|e| e["edges"].as_u64().unwrap())
                .collect(),
            lookups: of("metrics_summary")
                .map(|e| {
                    let count = |name: &str| e["metrics"]["counters"][name].as_u64().unwrap();
                    count("mem.pool.hit") + count("mem.pool.miss")
                })
                .collect(),
        }
    }

    /// Two discoveries at once in one process record into recorders of
    /// their own: each run's metrics, its buffer-pool lookups included,
    /// match the same run done alone, and the fully instrumented run's
    /// cfdiag is byte-identical to its solo artifact.
    #[test]
    fn concurrent_discoveries_keep_their_artifacts_apart() {
        let dir = std::env::temp_dir();
        let tag = format!("cf_cli_test_concurrent_{}", std::process::id());
        let path = |name: &str| dir.join(format!("{tag}_{name}"));
        let csv_path = path("fork.csv");
        run_generate(&GenerateArgs {
            dataset: "fork".into(),
            length: 200,
            seed: 1,
            output: csv_path.to_string_lossy().into_owned(),
            ..GenerateArgs::default()
        })
        .unwrap();
        let out = |name: &str| Some(path(name).to_string_lossy().into_owned());
        // Run A writes every artifact; run B, another seed and epoch
        // count, only metrics.
        let run_a = |round: &str| DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            preset: "synthetic-sparse".into(),
            window: Some(8),
            epochs: Some(3),
            seed: 1,
            metrics_out: out(&format!("a_{round}.jsonl")),
            trace_out: out(&format!("a_{round}.json")),
            diag_out: out(&format!("a_{round}.cfdiag")),
            quiet: true,
            ..DiscoverArgs::default()
        };
        let run_b = |round: &str| DiscoverArgs {
            seed: 2,
            epochs: Some(2),
            metrics_out: out(&format!("b_{round}.jsonl")),
            trace_out: None,
            diag_out: None,
            ..run_a(round)
        };
        run_discover(&run_a("alone")).unwrap();
        run_discover(&run_b("alone")).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                start.wait();
                run_discover(&run_a("together"))
            });
            let b = s.spawn(|| {
                start.wait();
                run_discover(&run_b("together"))
            });
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
        });
        for run in ["a", "b"] {
            let alone = telemetry(&path(&format!("{run}_alone.jsonl")));
            assert!(
                !alone.spans.is_empty() && !alone.ops.is_empty() && alone.lookups.len() == 1,
                "{alone:?}"
            );
            let together = telemetry(&path(&format!("{run}_together.jsonl")));
            assert_eq!(together, alone, "run {run}: concurrent vs alone");
        }
        let diag = |round: &str| std::fs::read(path(&format!("a_{round}.cfdiag"))).unwrap();
        assert!(!diag("alone").is_empty());
        assert_eq!(diag("together"), diag("alone"), "run A's cfdiag");
        for name in [
            "fork.csv",
            "a_alone.jsonl",
            "a_alone.json",
            "a_alone.cfdiag",
        ]
        .into_iter()
        .chain(["a_together.jsonl", "a_together.json", "a_together.cfdiag"])
        .chain(["b_alone.jsonl", "b_together.jsonl"])
        {
            std::fs::remove_file(path(name)).ok();
        }
    }

    /// Span paths name where in the pipeline a span ran, not which
    /// thread ran it: a span opened inside a cf-par task nests under the
    /// span open where the task was published.
    #[test]
    fn span_summary_paths_do_not_depend_on_the_thread_count() {
        let dir = std::env::temp_dir();
        let tag = format!("cf_cli_test_paths_{}", std::process::id());
        let csv_path = dir.join(format!("{tag}.csv"));
        let metrics_path = dir.join(format!("{tag}.jsonl"));
        run_generate(&GenerateArgs {
            dataset: "fork".into(),
            length: 200,
            seed: 1,
            output: csv_path.to_string_lossy().into_owned(),
            ..GenerateArgs::default()
        })
        .unwrap();
        let summary_at = |threads: usize| {
            run_discover(&DiscoverArgs {
                input: csv_path.to_string_lossy().into_owned(),
                preset: "synthetic-sparse".into(),
                window: Some(8),
                epochs: Some(2),
                seed: 1,
                threads: Some(threads),
                metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
                quiet: true,
                ..DiscoverArgs::default()
            })
            .unwrap();
            let text = std::fs::read_to_string(&metrics_path).unwrap();
            let line = text
                .lines()
                .find(|l| l.contains(r#""event":"span_summary""#))
                .expect("span_summary record");
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            v["spans"]
                .as_array()
                .unwrap()
                .iter()
                .map(|s| {
                    (
                        s["span"].as_str().unwrap().to_string(),
                        s["count"].as_u64().unwrap(),
                    )
                })
                .filter(|(path, _)| !path.split('.').any(|part| part == "par"))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let serial = summary_at(1);
        assert_eq!(
            serial.get("discover.detect.aggregate_scores.window_scores"),
            Some(&8),
            "{serial:?}"
        );
        for threads in [2, 4] {
            assert_eq!(
                summary_at(threads),
                serial,
                "span paths at {threads} threads"
            );
        }
        cf_par::set_threads(cf_par::default_threads());
        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn parses_store_flags_and_their_constraints() {
        let cmd = parse(&s(&[
            "discover",
            "--store",
            "data.cfstore",
            "--max-windows",
            "128",
        ]))
        .unwrap();
        match cmd {
            Command::Discover(a) => {
                assert!(a.input.is_empty());
                assert_eq!(a.store.as_deref(), Some("data.cfstore"));
                assert_eq!(a.max_windows, Some(128));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --read-ahead is gone: the store scan reads each chunk once.
        assert!(matches!(
            parse(&s(&["discover", "--store", "d", "--read-ahead", "3"])),
            Err(CliError::Usage(_))
        ));
        // --input and --store are mutually exclusive; the window budget
        // requires --store.
        assert!(matches!(
            parse(&s(&["discover", "--input", "x.csv", "--store", "d"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&s(&["discover", "--input", "x.csv", "--max-windows", "9"])),
            Err(CliError::Usage(_))
        ));

        let cmd = parse(&s(&[
            "generate",
            "--dataset",
            "lorenz96",
            "--store-out",
            "d.cfstore",
            "--chunk-len",
            "512",
            "--codec",
            "delta",
        ]))
        .unwrap();
        match cmd {
            Command::Generate(a) => {
                assert!(a.output.is_empty());
                assert_eq!(a.store_out.as_deref(), Some("d.cfstore"));
                assert_eq!(a.chunk_len, 512);
                assert_eq!(a.codec, "delta");
            }
            other => panic!("wrong command {other:?}"),
        }
        // Neither output nor store-out → usage error.
        assert!(matches!(
            parse(&s(&["generate", "--dataset", "fork"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_store_then_discover_store_end_to_end() {
        let dir = std::env::temp_dir();
        let store_dir = dir.join(format!("cf_cli_test_store_{}", std::process::id()));
        let csv_path = dir.join(format!("cf_cli_test_store_{}.csv", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);

        // Write the same fork dataset as CSV *and* chunked store…
        let report = run_generate(&GenerateArgs {
            dataset: "fork".into(),
            length: 200,
            seed: 3,
            output: csv_path.to_string_lossy().into_owned(),
            store_out: Some(store_dir.to_string_lossy().into_owned()),
            chunk_len: 64, // ragged tail: 200 = 3×64 + 8
            codec: "delta-varint".into(),
        })
        .unwrap();
        assert!(report.contains("wrote store"), "{report}");
        assert!(store_dir.join("manifest.json").exists());

        // …and check discovery from either source prints the same graph.
        let base = DiscoverArgs {
            input: String::new(),
            store: None,
            max_windows: None,
            preset: "synthetic-sparse".into(),
            window: Some(8),
            epochs: Some(3),
            seed: 3,
            threads: None,
            dtype: Dtype::F64,
            dot: None,
            save: None,
            metrics_out: None,
            trace_out: None,
            diag_out: None,
            heartbeat_out: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            log_level: None,
            quiet: true,
        };
        let from_csv = run_discover(&DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            ..base.clone()
        })
        .unwrap();
        let from_store = run_discover(&DiscoverArgs {
            store: Some(store_dir.to_string_lossy().into_owned()),
            ..base
        })
        .unwrap();
        assert_eq!(from_csv, from_store, "store and CSV discovery disagree");

        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn lorenz96_streaming_store_matches_in_ram_generate() {
        let dir = std::env::temp_dir();
        let streamed_dir = dir.join(format!("cf_cli_test_l96s_{}", std::process::id()));
        let in_ram_dir = dir.join(format!("cf_cli_test_l96r_{}", std::process::id()));
        let csv_path = dir.join(format!("cf_cli_test_l96_{}.csv", std::process::id()));
        let _ = std::fs::remove_dir_all(&streamed_dir);
        let _ = std::fs::remove_dir_all(&in_ram_dir);

        // Store-only lorenz96 takes the streaming path…
        run_generate(&GenerateArgs {
            dataset: "lorenz96".into(),
            length: 300,
            seed: 5,
            output: String::new(),
            store_out: Some(streamed_dir.to_string_lossy().into_owned()),
            chunk_len: 128,
            codec: "delta-varint".into(),
        })
        .unwrap();
        // …CSV+store takes the in-RAM path; both stores must hold the
        // bitwise-identical trajectory.
        run_generate(&GenerateArgs {
            dataset: "lorenz96".into(),
            length: 300,
            seed: 5,
            output: csv_path.to_string_lossy().into_owned(),
            store_out: Some(in_ram_dir.to_string_lossy().into_owned()),
            chunk_len: 128,
            codec: "delta-varint".into(),
        })
        .unwrap();

        let a = SeriesStore::open_dir(&streamed_dir)
            .unwrap()
            .read_all()
            .unwrap();
        let b = SeriesStore::open_dir(&in_ram_dir)
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(a, b, "streaming and in-RAM lorenz96 trajectories differ");

        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_dir_all(&streamed_dir).ok();
        std::fs::remove_dir_all(&in_ram_dir).ok();
    }

    #[test]
    fn discover_rejects_oversized_window() {
        let dir = std::env::temp_dir();
        let csv_path = dir.join("cf_cli_test_short.csv");
        std::fs::write(&csv_path, "1,2\n3,4\n5,6\n").unwrap();
        let disc = DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            store: None,
            max_windows: None,
            preset: "fmri".into(),
            window: Some(100),
            epochs: Some(1),
            seed: 0,
            threads: None,
            dtype: Dtype::F64,
            dot: None,
            save: None,
            metrics_out: None,
            trace_out: None,
            diag_out: None,
            heartbeat_out: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            log_level: None,
            quiet: true,
        };
        assert!(matches!(run_discover(&disc), Err(CliError::Run(_))));
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn failing_discover_flushes_and_uninstalls_its_outputs() {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let csv_path = dir.join(format!("cf_cli_test_fail_{id}.csv"));
        let metrics_path = dir.join(format!("cf_cli_test_fail_{id}.jsonl"));
        let diag_path = dir.join(format!("cf_cli_test_fail_{id}.cfdiag"));
        std::fs::write(&csv_path, "1,2\n3,4\n5,6\n").unwrap();
        let disc = DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            window: Some(1000),
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            diag_out: Some(diag_path.to_string_lossy().into_owned()),
            quiet: true,
            ..DiscoverArgs::default()
        };
        let err = run_discover(&disc).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(
            metrics
                .lines()
                .next()
                .unwrap_or("")
                .contains(r#""event":"meta""#),
            "metrics file lacks its meta record: {metrics:?}"
        );
        // The thread is back on its own recorder, which the run never
        // touched.
        assert!(!cf_obs::sink::is_installed(), "metrics sink left installed");
        let diag_installed = cf_obs::Recorder::current().diag.is_installed();
        assert!(!diag_installed, "diagnostics writer left installed");
        for p in [&csv_path, &metrics_path, &diag_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn checkpointed_discover_resumes_to_same_graph() {
        let dir = std::env::temp_dir();
        let csv_path = dir.join("cf_cli_test_ckpt.csv");
        let ckpt_dir = dir.join(format!("cf_cli_test_ckpts_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        run_generate(&GenerateArgs {
            dataset: "fork".into(),
            length: 200,
            seed: 2,
            output: csv_path.to_string_lossy().into_owned(),
            store_out: None,
            chunk_len: 65536,
            codec: "delta-varint".into(),
        })
        .unwrap();

        let mut disc = DiscoverArgs {
            input: csv_path.to_string_lossy().into_owned(),
            store: None,
            max_windows: None,
            preset: "synthetic-sparse".into(),
            window: Some(8),
            epochs: Some(3),
            seed: 2,
            threads: None,
            dtype: Dtype::F64,
            dot: None,
            save: None,
            metrics_out: None,
            trace_out: None,
            diag_out: None,
            heartbeat_out: None,
            checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
            checkpoint_every: None,
            resume: false,
            log_level: None,
            quiet: true,
        };
        let first = run_discover(&disc).unwrap();
        assert!(std::fs::read_dir(&ckpt_dir).unwrap().count() > 0);

        // Re-running with --resume restores epoch 3's state (nothing left
        // to train) and must print the identical graph.
        disc.resume = true;
        let second = run_discover(&disc).unwrap();
        assert_eq!(first, second);

        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    fn param_bits<E: Scalar>(params: &[TensorBase<E>]) -> Vec<u64> {
        params
            .iter()
            .flat_map(|p| p.to_f64_vec())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn save_writes_the_model_discovery_trained() {
        let dir = std::env::temp_dir();
        let tag = format!("cf_cli_test_save_{}", std::process::id());
        let csv_path = dir.join(format!("{tag}.csv"));
        // Row `a` is constant. Its standardised image depends on how the
        // zero std is floored, so a model trained on windows standardised
        // any other way than discovery's differs in its bits.
        let mut csv = String::from("a,b,c\n");
        for t in 0..200 {
            let b = (t as f64 * 0.37).sin();
            let c = (t as f64 * 0.11).cos() + 0.5 * b;
            csv.push_str(&format!("0.1,{b},{c}\n"));
        }
        std::fs::write(&csv_path, csv).unwrap();
        let input = csv_path.to_string_lossy().into_owned();
        let series = csv_io::read_series_csv_file(&input).unwrap().series;

        for dtype in [Dtype::F64, Dtype::F32] {
            let mut cf = preset_by_name("synthetic-sparse", 3).unwrap();
            cf.model.window = 8;
            cf.train.max_epochs = 2;
            cf.train.dtype = dtype;
            let discovered = cf.discover(&mut StdRng::seed_from_u64(4), &series);
            let want = match &discovered.model {
                DiscoveredModel::F64(m) => param_bits(&m.store.snapshot()),
                DiscoveredModel::F32(m) => param_bits(&m.store.snapshot()),
            };
            for ext in ["json", "cft"] {
                let model_path = dir.join(format!("{tag}.{ext}"));
                let report = run_discover(&DiscoverArgs {
                    input: input.clone(),
                    preset: "synthetic-sparse".into(),
                    window: Some(8),
                    epochs: Some(2),
                    seed: 4,
                    dtype,
                    save: Some(model_path.to_string_lossy().into_owned()),
                    quiet: true,
                    ..DiscoverArgs::default()
                })
                .unwrap();
                assert!(report.contains("model checkpoint written"), "{report}");
                let loaded = persist::load(&model_path).unwrap();
                assert_eq!(
                    param_bits(&loaded.store.snapshot()),
                    want,
                    "{dtype:?} .{ext} model differs from the one discovery trained"
                );
                std::fs::remove_file(&model_path).ok();
            }
        }
        std::fs::remove_file(&csv_path).ok();
    }
}
