#!/usr/bin/env bash
# Noise self-check: runs the four workloads three times each, back-to-back
# with seed 1, and prints per end-to-end metric (max - min) / median beside
# its bound in BENCHMARK.json. One seed, so every count and quality metric
# must come out equal and the spread is timing noise alone. Exits non-zero
# if a spread exceeds half its bound. NOISE.md holds what this printed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/promips_benchmark"

exec python3 - "$bin" <<'PY'
import json, statistics, subprocess, sys, time

binary = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
over = False
for workload in spec["workloads"]:
    values, walls = {}, []
    for _ in range(3):
        start = time.time()
        out = subprocess.run(
            [binary, "--workload", workload["name"], "--seed", "1",
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        walls.append(time.time() - start)
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"### {workload['name']} (wall {min(walls):.1f}-{max(walls):.1f} s)\n")
    print("| metric | median | (max - min) / median | bound | |")
    print("|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        median = statistics.median(v)
        spread = (max(v) - min(v)) / median
        bad = spread > metric["bound"] / 2
        over |= bad
        print(f"| `{metric['name']}` | {median:.6g} {metric['unit']} | {spread:.4%} "
              f"| {metric['bound']:.1%} | {'**over half**' if bad else 'ok'} |")
    print()
sys.exit(1 if over else 0)
PY
