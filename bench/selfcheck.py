"""Self-check of the benchmark, in seconds:

    python3 bench/selfcheck.py

1. Self-time arithmetic on synthetic nested spans.
2. Every workload at toy size, untraced and traced, through the real
   command line: the last stdout line is the result object, every metric
   BENCHMARK.json names is emitted with its unit, and all outputs pass.
3. The counts a traced run must repeat exactly do so across two seeds.

Exits 1 and lists what failed if any check does not hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPEATING_COUNTS = ("trainer.rounds", "pep.region_pep_bound.calls",
                    "trainer.encode_batch.rows", "feedback.transmit_batch.indices")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_self_time() -> None:
    # a [0, 10] has children b [1, 4] and c [3, 6], which overlap, and e
    # [8, 12], which outlives it; b has a child d [2, 3].
    synthetic = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
                 ["d", 2.0, 3.0, 1, 0], ["e", 8.0, 12.0, 0, 0], ["b", 20.0, 21.0, -1, 1]]
    got = spans.self_times(synthetic)
    want = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 1.0, 4.0, 1.0]
    expect(got == want, f"self_times {got} != {want}")
    table = spans.layer_table(synthetic)
    expect(table["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}, f"layer_table b: {table['b']}")


def run(workload: str, seed: int, trace: int) -> dict | None:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace {trace}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: {json.loads(lines[-2]).get('problems')}")
    return result


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    counts = {}
    for wl in spec["workloads"]:
        for trace, metrics in declared.items():
            result = run(wl["name"], 1, trace)
            if result is None:
                continue
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in metrics},
                   f"{wl['name']} trace {trace}: emitted {sorted(got)}")
            for m in metrics:
                expect(got.get(m["name"], {}).get("unit") == m["unit"],
                       f"{wl['name']}: {m['name']} unit {got.get(m['name'])}")
            if trace:
                counts[wl["name"]] = {c: got[c]["value"] for c in REPEATING_COUNTS}
        again = run(wl["name"], 2, 1)
        if again is not None and wl["name"] in counts:
            repeat = {c: again["metrics"][c]["value"] for c in REPEATING_COUNTS}
            expect(repeat == counts[wl["name"]],
                   f"{wl['name']}: traced counts {counts[wl['name']]} then {repeat}")


def main() -> int:
    check_self_time()
    check_workloads()
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
