#!/usr/bin/env bash
# Repo verification gate: tier-1 build+tests, every crate's own unit
# tests, lint wall, and a throughput-harness smoke run.
#
#   $ scripts/verify.sh
#
# Fails fast on the first broken stage. The throughput smoke uses a
# reduced access budget so the whole script stays interactive-fast;
# the full-size sweep that regenerates BENCH_throughput.json is
# documented in DESIGN.md ("Simulation core performance").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== workspace: every crate's unit tests =="
cargo test --workspace --release -q

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== throughput smoke =="
out="$(mktemp /tmp/pac_tp_smoke.XXXXXX.json)"
trap 'rm -f "$out"' EXIT
./target/release/throughput --accesses 400 --out "$out"
python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
sweeps = doc["sweeps"]
assert len(sweeps) == 2, "expected every-cycle + skip-ahead sweeps"
by_mode = {s["stepping"]: s for s in sweeps}
ec, sa = by_mode["every-cycle"], by_mode["skip-ahead"]
assert len(ec["cells"]) == len(sa["cells"]) == 42, "14 benches x 3 coalescers"
for a, b in zip(ec["cells"], sa["cells"]):
    assert a["simulated_cycles"] == b["simulated_cycles"], (
        f"{a['bench']}/{a['kind']}: stepping modes disagree on cycles")
print(f"throughput smoke OK: {len(sa['cells'])} cells, "
      f"speedup {doc['speedup_skip_ahead_over_every_cycle']:.2f}x")
EOF

echo "== verify: all stages passed =="
