#!/usr/bin/env bash
# Out-of-core peak-RSS gate.
#
#   scripts/rss_gate.sh OUT_DIR
#
# Streams a Lorenz-96 series (n = 10, 4,000,000 steps: 320 MB raw) into a
# chunked store with `causalformer generate --store-out`, discovers from
# it twice with `causalformer discover --store`, at f64 (`--heartbeat-out
# OUT_DIR/hb.jsonl`) and at `--dtype f32` (`OUT_DIR/hb-f32.jsonl`), and
# fails when any heartbeat's `hwm_bytes` (the process's VmHWM) exceeds
# the budget of a streaming scan, derived from the run's own geometry:
#
#   baseline                     the peak of the same discover on a
#                                64-step one-chunk store (binary,
#                                allocator, model, detector), measured
#                                here at each dtype
#   + windows · n · window · 8   the sampled training windows
#   + largest chunk file         one encoded chunk as read from disk
#   + chunk_series · chunk_len · 8   the same chunk decoded
#
# A scan that held a second chunk (about 5 MiB here) fails, not only one
# that materialised the series. The f32 run is gated too because its
# scan stages the windows as f64 before converting them. The heartbeat
# takes a final sample when it stops, so the peak is always recorded.
# The stores are removed on exit; hb.jsonl stays for the monitor smoke.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

WINDOW=8
MAX_WINDOWS=128
out=${1:?usage: scripts/rss_gate.sh OUT_DIR}
mkdir -p "$out"
store="$out/rss-gate-store"
small="$out/rss-gate-baseline-store"
trap 'rm -rf "$store" "$small"' EXIT
rm -rf "$store" "$small"

cf() { cargo run -q --release -p cf-cli --bin causalformer -- "$@"; }
discover() { # STORE DTYPE HEARTBEAT_FILE
  cf discover --store "$1" --preset lorenz --window "$WINDOW" --epochs 2 \
    --max-windows "$MAX_WINDOWS" --threads 1 --seed 96 --quiet --dtype "$2" \
    --heartbeat-out "$3" >/dev/null
}
cf generate --dataset lorenz96 --length 4000000 --seed 96 --store-out "$store" >/dev/null
cf generate --dataset lorenz96 --length 64 --seed 96 --chunk-len 64 \
  --store-out "$small" >/dev/null
for dtype in f64 f32; do
  hb="$out/hb.jsonl"
  [ "$dtype" = f64 ] || hb="$out/hb-$dtype.jsonl"
  discover "$small" "$dtype" "$out/baseline-$dtype.jsonl"
  discover "$store" "$dtype" "$hb"
done

python3 - "$store" "$WINDOW" "$MAX_WINDOWS" "$out" <<'PY'
import json, os, sys
store, window, max_windows, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
manifest = json.load(open(os.path.join(store, "manifest.json")))
n = manifest["n_series"]
windows = min(max_windows, manifest["length"] - window + 1)
window_bytes = windows * n * window * 8
encoded = max(os.path.getsize(os.path.join(store, f))
              for f in os.listdir(store) if f.endswith(".cfc"))
decoded = manifest["chunk_series"] * manifest["chunk_len"] * 8


def peak(path):
    events = [json.loads(l) for l in open(path) if l.strip()]
    hwm = [e["hwm_bytes"] for e in events if e.get("event") == "heartbeat"]
    if not hwm:
        sys.exit(f"rss gate: no heartbeat samples in {path}")
    return max(hwm)


def mib(b):
    return f"{b / 2**20:.1f} MiB"


failed = False
for dtype, hb in (("f64", "hb.jsonl"), ("f32", "hb-f32.jsonl")):
    base, got = peak(f"{out}/baseline-{dtype}.jsonl"), peak(f"{out}/{hb}")
    if base == 0 or got == 0:
        print("rss gate: VmHWM unavailable on this platform, gate skipped")
        continue
    budget = base + window_bytes + encoded + decoded
    print(f"rss gate: {dtype}: peak {mib(got)}, budget {mib(budget)} = baseline "
          f"{mib(base)} + windows {mib(window_bytes)} + one chunk "
          f"{mib(encoded)} encoded + {mib(decoded)} decoded")
    if got > budget:
        failed = True
if failed:
    sys.exit("rss gate: FAIL, a streaming discover exceeded its budget")
PY
