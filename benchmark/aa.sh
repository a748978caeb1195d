#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the SAME build, per workload.
# Prints, per (workload, end-to-end metric), both medians, both quartile
# pairs, each set's spread (IQR / median), the relative difference of the
# medians in the "worse" direction, and the bound BENCHMARK.json declares.
# Exits non-zero when a difference or a spread exceeds its bound.
#
#   benchmark/aa.sh [runs-per-set (default 10)] > benchmark/AA.md
#   benchmark/aa.sh table > benchmark/AA.md     # re-print from the last runs
#
# Run i of either set uses seed 13 + i: every run of a set has another seed,
# as in the driver's check, and both sets see the same ten inputs, so only
# noise separates them.
set -euo pipefail

cd "$(dirname "$0")/.."
out=benchmark/out/aa

if [ "${1:-}" != table ]; then
  runs=${1:-10}
  rm -rf "$out"
  mkdir -p "$out"
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
  for i in $(seq 1 "$runs"); do
    seed=$((13 + i))
    for workload in capture_ops plan_inproc serve_mix paged_budget25; do
      for set in A B; do
        echo "run $i/$runs set $set $workload seed $seed" >&2
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
          --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
          2>/dev/null | tail -n 1 >>"$out/$workload.$set.jsonl" ||
          echo "  ^ exited non-zero (see the 'correct' field of its line)" >&2
      done
    done
  done
fi

python3 - "$out" <<'PY'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = 0
runs = sum(1 for _ in open(f"{out}/capture_ops.A.jsonl"))
print(f"# A/A: two interleaved sets of {runs} runs of one build\n")
print(f"`run_seconds` = {spec['run_seconds']}; run i of either set uses seed 13 + i. `diff` is how much worse set B's")
print("median is than set A's (negative: better); `spread` is IQR / median of a set's runs.\n")
for w in spec["workloads"]:
    name = w["name"]
    sets = {s: [json.loads(l) for l in open(f"{out}/{name}.{s}.jsonl")] for s in "AB"}
    wrong = sum(not r["correct"] for s in sets.values() for r in s)
    failed = sum(r["failed"] for s in sets.values() for r in s)
    print(f"## {name}\n")
    print(f"runs not correct: {wrong}; failed operations: {failed}\n")
    print("| metric | unit | median A | median B | quartiles A | quartiles B | spread A | spread B | diff | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    bad += wrong
    for m in spec["end_to_end"]:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        q = {s: statistics.quantiles(vals[s], n=4) if len(vals[s]) > 1 else [vals[s][0]] * 3 for s in "AB"}
        spread = {s: (q[s][2] - q[s][0]) / med[s] for s in "AB"}
        diff = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            diff = -diff
        ok = diff <= m["bound"] and (m["name"] == "setup_s" or max(spread.values()) <= m["bound"])
        bad += not ok
        print(
            f"| {m['name']} | {m['unit']} | {med['A']:.5g} | {med['B']:.5g} "
            f"| {q['A'][0]:.5g} – {q['A'][2]:.5g} | {q['B'][0]:.5g} – {q['B'][2]:.5g} "
            f"| {spread['A']:.4f} | {spread['B']:.4f} | {diff:+.4f} | {m['bound']} | {'yes' if ok else '**NO**'} |"
        )
    print()
print("All within bounds." if not bad else f"{bad} check(s) out of bounds.")
sys.exit(1 if bad else 0)
PY
