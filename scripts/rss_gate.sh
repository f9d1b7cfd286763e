#!/usr/bin/env bash
# Out-of-core peak-RSS gate.
#
#   scripts/rss_gate.sh OUT_DIR
#
# Streams a Lorenz-96 series (n = 10, 4,000,000 steps: 320 MB raw, more
# than the budget) into a chunked store with `causalformer generate
# --store-out`, discovers from it with `causalformer discover --store
# --heartbeat-out OUT_DIR/hb.jsonl`, and fails when any heartbeat's
# `hwm_bytes` (the process's VmHWM) exceeds BUDGET_BYTES. The heartbeat
# takes a final sample when it stops, so the peak is always recorded. A
# discover_store that materialised the series would need more than the
# budget and fail here. The store is removed on exit; hb.jsonl stays for
# the monitor smoke.
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
cf discover --store "$store" --preset lorenz --window 8 --epochs 2 \
  --max-windows 128 --threads 1 --seed 96 --quiet \
  --heartbeat-out "$out/hb.jsonl" >/dev/null

python3 - "$out/hb.jsonl" "$BUDGET_BYTES" <<'EOF'
import json, sys
path, budget = sys.argv[1], int(sys.argv[2])
events = [json.loads(l) for l in open(path) if l.strip()]
hwm = [e["hwm_bytes"] for e in events if e.get("event") == "heartbeat"]
if not hwm:
    sys.exit(f"rss gate: no heartbeat samples in {path}")
peak = max(hwm)
print(f"rss gate: peak {peak / 2**20:.1f} MiB over {len(hwm)} samples, "
      f"budget {budget / 2**20:.0f} MiB")
if peak == 0:
    print("rss gate: VmHWM unavailable on this platform, gate skipped")
elif peak > budget:
    sys.exit("rss gate: FAIL, the streaming discover exceeded the budget")
EOF
