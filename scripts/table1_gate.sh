#!/usr/bin/env bash
# Table 1 gate: reruns `table1 --quick` at the default thread count and at
# CF_THREADS=1, and exits 1 when either run's JSON differs from the
# committed results/table1.json. Cells are compared on every field but
# `wall_secs`, which is time, not a result; everything else is
# deterministic at any thread count.
#
# A change that moves a paper number regenerates results/table1.{json,txt,log}
# with the command recorded in their first lines, rewrites EXPERIMENTS.md's
# Table 1 from them, and says so in CHANGES.md.
#
#   scripts/table1_gate.sh
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cargo build -q --release --offline -p cf-bench --bin table1

status=0
for threads in default 1; do
  if [ "$threads" = default ]; then pin=(-u CF_THREADS); else pin=(CF_THREADS="$threads"); fi
  env "${pin[@]}" cargo run -q --release --offline -p cf-bench --bin table1 -- \
    --quick --json "$out/table1.json" > /dev/null 2>&1
  python3 - "$out/table1.json" results/table1.json "$threads" <<'EOF' || status=1
import json
import sys

def cells(path):
    return [{k: v for k, v in c.items() if k != "wall_secs"} for c in json.load(open(path))]

new, committed, threads = cells(sys.argv[1]), cells(sys.argv[2]), sys.argv[3]
if new == committed:
    print(f"table1 --quick (threads: {threads}) matches results/table1.json")
    sys.exit(0)
print(f"table1 --quick (threads: {threads}) differs from results/table1.json:")
if len(new) != len(committed):
    print(f"  {len(new)} cells, committed {len(committed)}")
for n, c in zip(new, committed):
    if n != c:
        print(f"  {c['method']} / {c['dataset']}")
        print(f"    now {json.dumps(n)}")
        print(f"    was {json.dumps(c)}")
sys.exit(1)
EOF
done
exit "$status"
