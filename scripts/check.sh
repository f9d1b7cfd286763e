#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The workspace docs build warning-free, so intra-doc links cannot point
# at removed or private items, and a bracketed citation like `\[31\]` must
# be escaped. cf-cli is left out: its `causalformer` binary collides with
# the core crate's doc output name.
echo "== cargo doc --workspace --exclude cf-cli (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude cf-cli --offline

# The suite runs twice — serial and with a 4-worker pool — to enforce the
# determinism contract: results must be identical at any thread count.
echo "== cargo test -q --workspace (CF_THREADS=1)"
CF_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (CF_THREADS=4)"
CF_THREADS=4 cargo test -q --workspace

# Scheduler soak: the cf-par suite 20 times in a row, so a lost wakeup or
# a drain race in the pool's queue fails the gate instead of flaking later.
echo "== cf-par scheduler soak (20 consecutive runs)"
for run in $(seq 20); do
  out=$(cargo test -q -p cf-par 2>&1) \
    || { echo "$out"; echo "cf-par soak run $run/20 failed"; exit 1; }
done

# Resume-determinism gate: interrupted-then-resumed training (3 epochs →
# checkpoint → resume 3 more) must be bitwise identical to 6 epochs straight
# — parameters, loss history, and the downstream causal matrix — and the
# fault drills (injected NaN, injected I/O failure, kill between epochs,
# on-disk corruption) must recover. The store-pipeline gate rides along:
# discovery streamed from a chunked on-disk store must be bitwise identical
# to the in-RAM path, and a corrupted chunk must fail loudly naming its
# file. Run at 1, 2, and 4 worker threads: recovery and store/RAM
# equivalence must be exact on any machine.
for threads in 1 2 4; do
  echo "== resume determinism + fault drills + store pipeline (CF_THREADS=$threads)"
  CF_THREADS=$threads cargo test -q -p causalformer \
    --test resume_determinism --test fault_injection --test store_pipeline
done

# Dtype gate: the f64 pipeline must reproduce the pre-generic-backend
# golden bits, and f32 training must land discovery F1 within ±0.02 of
# f64 — the test sweeps 1/2/4 worker threads internally.
echo "== dtype equivalence gate (f64 goldens + f32 tolerance)"
cargo test -q -p causalformer --test dtype_equivalence

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

# Out-of-core peak-RSS gate: stream a 320 MB lorenz96 series into a
# chunked store, discover from it, and fail if the discover process's
# VmHWM (sampled by its heartbeat) crosses the budget the script derives
# from the run's geometry (baseline + windows + one chunk). CI runs the
# same script.
echo "== out-of-core peak-RSS gate (scripts/rss_gate.sh)"
scripts/rss_gate.sh "$smoke_dir/rss"

# Report smoke: a real discover run must produce a loadable trace, a
# diagnostics stream, and an HTML dashboard containing every panel.
# Two discover runs (1 and 2 threads) give the analyze/report compare
# path a real trace pair.
echo "== causalformer report smoke"
cargo run -q -p cf-cli --bin causalformer -- \
  generate --dataset fork --length 200 --seed 1 --output "$smoke_dir/fork.csv"
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 1 \
  --trace-out "$smoke_dir/trace-1t.json"
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 2 \
  --metrics-out "$smoke_dir/metrics.jsonl" \
  --trace-out "$smoke_dir/trace.json" \
  --diag-out "$smoke_dir/diag.cfdiag" \
  --heartbeat-out "$smoke_dir/hb.jsonl"
# The heartbeat stream must open with its meta header, close with
# run_end, and render through the monitor in one-shot mode.
head -1 "$smoke_dir/hb.jsonl" | grep -q '"event":"meta"'
tail -1 "$smoke_dir/hb.jsonl" | grep -q '"event":"run_end"'
cargo run -q -p cf-cli --bin causalformer -- \
  monitor "$smoke_dir/hb.jsonl" --once > "$smoke_dir/monitor.txt"
grep -q "run ended cleanly" "$smoke_dir/monitor.txt"
# Single-precision leg: the same discover end-to-end at --dtype f32 must
# run clean and emit a metrics stream.
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 2 --dtype f32 \
  --metrics-out "$smoke_dir/metrics-f32.jsonl"
test -s "$smoke_dir/metrics-f32.jsonl"
cargo run -q -p cf-cli --bin causalformer -- \
  report --metrics "$smoke_dir/metrics.jsonl" \
  --trace "$smoke_dir/trace-1t.json" --compare-trace "$smoke_dir/trace.json" \
  --diag "$smoke_dir/diag.cfdiag" \
  --out "$smoke_dir/report.html"
test -s "$smoke_dir/report.html"
for panel in panel-training-loss panel-causal-evolution \
             panel-thread-utilization panel-pool \
             panel-top-self-time panel-flame panel-scaling \
             panel-percentiles panel-scheduler; do
  grep -q "id=\"$panel\"" "$smoke_dir/report.html" \
    || { echo "missing $panel in report.html"; exit 1; }
done
grep -q '"traceEvents"' "$smoke_dir/trace.json"
grep -q '"record":"detect"' "$smoke_dir/diag.cfdiag"

# Trace-analysis smoke: the analyzer must produce self-time and scaling
# tables from the same pair.
echo "== causalformer analyze smoke"
cargo run -q -p cf-cli --bin causalformer -- \
  analyze --trace "$smoke_dir/trace.json" \
  --flamegraph "$smoke_dir/stacks.folded" > "$smoke_dir/analyze.md"
grep -q "top self-time spans" "$smoke_dir/analyze.md"
grep -q ";" "$smoke_dir/stacks.folded"
cargo run -q -p cf-cli --bin causalformer -- \
  analyze --compare "$smoke_dir/trace-1t.json" "$smoke_dir/trace.json" \
  > "$smoke_dir/analyze-compare.md"
grep -q "scaling attribution" "$smoke_dir/analyze-compare.md"

# Perf-gate self-test: CI gates the medians of three perfbench runs per
# workload against three runner-cached baseline runs with
# scripts/perf_gate.py. On synthetic result lines it must pass identical
# results and one outlier run 1.3x slower, and fail when all three runs
# are 1.2x slower or a run has a failed operation.
echo "== perf gate self-test (scripts/perf_gate.py)"
gate="$smoke_dir/perf-gate"
result() {
  printf '{"correct": true, "attempted": 3, "failed": %s, "metrics": {"discover_s": {"value": %s, "unit": "s"}, "f1": {"value": 0.5, "unit": "ratio"}}}\n' "$1" "$2"
}
for case in base same outlier slow failed; do
  mkdir -p "$gate/$case"
  for w in l96_train l96_detect store_stream; do
    for k in 1 2 3; do
      result 0 1.0 > "$gate/$case/$w.$k.json"
    done
  done
done
result 0 1.3 > "$gate/outlier/l96_detect.2.json"
for k in 1 2 3; do
  result 0 1.2 > "$gate/slow/l96_detect.$k.json"
done
result 1 1.0 > "$gate/failed/store_stream.3.json"
for case in same outlier slow failed; do
  python3 scripts/perf_gate.py "$gate/base" "$gate/$case" > "$gate/$case.md" && code=0 || code=$?
  want=1; case "$case" in same|outlier) want=0 ;; esac
  [ "$code" -eq "$want" ] \
    || { echo "perf_gate.py on '$case' exited $code, expected $want"; cat "$gate/$case.md"; exit 1; }
done

# Table 1 gate: `table1 --quick` is deterministic, so its JSON must match
# the committed results/table1.json (wall times aside) at the default
# thread count and at one thread. A change that moves a paper number
# regenerates the results/table1.* files and says so in CHANGES.md.
echo "== table 1 gate (scripts/table1_gate.sh)"
scripts/table1_gate.sh

echo "All checks passed."
