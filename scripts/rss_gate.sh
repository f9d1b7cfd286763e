#!/usr/bin/env bash
# Out-of-core peak-RSS gate.
#
#   scripts/rss_gate.sh OUT_DIR
#
# Streams a Lorenz-96 series (n = 10, 4,000,000 steps: 320 MB raw, more
# than the budget) into a chunked store with `causalformer generate
# --store-out`, discovers from it twice with `causalformer discover
# --store`, at f64 (`--heartbeat-out OUT_DIR/hb.jsonl`) and at `--dtype
# f32` (`OUT_DIR/hb-f32.jsonl`), and fails when any heartbeat's
# `hwm_bytes` (the process's VmHWM) exceeds BUDGET_BYTES. The f32 run is
# gated too because its scan stages the windows as f64 before
# converting them. The heartbeat takes a final sample when it stops, so
# the peak is always recorded. A discover_store that materialised the
# series would need more than the budget and fail here. The store is
# removed on exit; hb.jsonl stays for the monitor smoke.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

BUDGET_BYTES=$((200 * 1024 * 1024))
out=${1:?usage: scripts/rss_gate.sh OUT_DIR}
mkdir -p "$out"
store="$out/rss-gate-store"
trap 'rm -rf "$store"' EXIT
rm -rf "$store"

cf() { cargo run -q --release -p cf-cli --bin causalformer -- "$@"; }
cf generate --dataset lorenz96 --length 4000000 --seed 96 --store-out "$store" >/dev/null
for dtype in f64 f32; do
  hb="$out/hb.jsonl"
  [ "$dtype" = f64 ] || hb="$out/hb-$dtype.jsonl"
  cf discover --store "$store" --preset lorenz --window 8 --epochs 2 \
    --max-windows 128 --threads 1 --seed 96 --quiet --dtype "$dtype" \
    --heartbeat-out "$hb" >/dev/null
done

python3 - "$BUDGET_BYTES" "$out/hb.jsonl" "$out/hb-f32.jsonl" <<'EOF'
import json, sys
budget, paths = int(sys.argv[1]), sys.argv[2:]
failed = False
for path in paths:
    events = [json.loads(l) for l in open(path) if l.strip()]
    hwm = [e["hwm_bytes"] for e in events if e.get("event") == "heartbeat"]
    if not hwm:
        sys.exit(f"rss gate: no heartbeat samples in {path}")
    peak = max(hwm)
    print(f"rss gate: {path}: peak {peak / 2**20:.1f} MiB over {len(hwm)} "
          f"samples, budget {budget / 2**20:.0f} MiB")
    if peak == 0:
        print("rss gate: VmHWM unavailable on this platform, gate skipped")
    elif peak > budget:
        failed = True
if failed:
    sys.exit("rss gate: FAIL, a streaming discover exceeded the budget")
EOF
