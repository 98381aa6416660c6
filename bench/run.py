"""podsim benchmark: one closed-loop workload per run, with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; podsim is imported from ./src, single-process
and single-threaded, with BLAS pinned to one thread before numpy loads.
Workloads are listed in bench/README.md.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones: work_per_s (the
workload's own rate), setup_s and peak_rss_mb. With --trace 1 they are the
per-layer ones, taken from a traced pass over a fixed number of ops that is
compared with an untraced pass over the same ops. The line before it is a
report with run metadata, every named rate and the full per-layer table.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, podsim; "
                "print(time.perf_counter() - t)")

PER_LAYER = (
    "trainer.fit.self_s",
    "trainer.rounds",
    "trainer.projections_per_step",
    "trainer.encode_batch.calls",
    "trainer.encode_batch.rows",
    "trainer.encode_batch.total_s",
    "codebook.project_psd_power.calls",
    "codebook.project_psd_power.total_s",
    "codebook.load_codebook.total_s",
    "channel.complex_gaussian.calls",
    "channel.complex_gaussian.samples",
    "channel.complex_gaussian.total_s",
    "channel.sample_directions.total_s",
    "feedback.transmit_batch.calls",
    "feedback.transmit_batch.indices",
    "feedback.transmit_batch.total_s",
    "feedback.transmit_batch.index_error_frac",
    "feedback.bsc_inversion_matrix.calls",
    "feedback.bsc_inversion_matrix.total_s",
    "feedback.optimize_mapping.total_s",
    "feedback.mapping_cost.calls",
    "pep.average_pep_bound.calls",
    "pep.average_pep_bound.self_s",
    "pep.region_pep_bound.calls",
    "pep.region_pep_bound.total_s",
    "pep.build_evaluation_set.total_s",
    "link.run_ber_sweep.calls",
    "link.run_ber_sweep.self_s",
    "link.candidate_codewords.total_s",
    "stbc.coefficient_tensors.calls",
    "stbc.coefficient_tensors.total_s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.overhead_frac",
)


def load_podsim():
    """Pin BLAS to one thread, then import podsim from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "podsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no podsim sources under {src}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import podsim

    if Path(podsim.__file__).resolve().parent != (src / "podsim").resolve():
        raise SystemExit(f"bench: imported podsim from {podsim.__file__}, not {src}")


def import_seconds() -> float:
    """Time to import numpy and podsim in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def software_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads_pinned": int(BLAS_THREADS)}


def git_sha() -> str:
    """HEAD's commit from .git, read directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timing_summary(walls: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    walls = sorted(walls)
    n = len(walls)
    out = {"n": n, "median_s": statistics.median(walls)}
    if n > 10:
        out[f"p{100 * (n - 10) / n:.0f}_s"] = walls[n - 11]
    return out


def timed_op(wl, seed: int):
    """(result or None, wall seconds, problems). An op that raises has failed."""
    t0 = time.perf_counter()
    try:
        result = wl.op(seed)
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        return None, time.perf_counter() - t0, [f"raised {exc!r}"]
    return result, time.perf_counter() - t0, []


def checked(wl, ops):
    """Add output-check problems to each (result, wall, problems) op."""
    for result, _, problems in ops:
        if result is not None:
            try:
                problems += wl.check(result)
            except Exception as exc:  # noqa: BLE001 - malformed output fails its op
                problems.append(f"check raised {exc!r}")


def traced_run(wl, seeds, spans_mod):
    """Untraced then traced pass over the same trace_ops ops.

    The traced pass repeats the set-up first, so the layers it calls are
    measured too; its spans carry op id -1. An unmeasured op runs before
    both passes, so one-off costs of a fresh process fall on neither.
    """
    timed_op(wl, seeds(wl.trace_ops))
    plain = [timed_op(wl, seeds(i)) for i in range(wl.trace_ops)]
    tracer = spans_mod.Tracer()
    traced = []
    with tracer:
        with tracer.span("setup"):
            wl.setup()
        for i in range(wl.trace_ops):
            tracer.run_id = i
            with tracer.span("op"):
                traced.append(timed_op(wl, seeds(i)))
    for (a, _, _), (b, _, problems) in zip(plain, traced):
        if a is not None and b is not None and wl.fingerprint(a) != wl.fingerprint(b):
            problems.append("traced output differs from the untraced output")
    return plain, traced, tracer


def per_layer_metrics(wl, table, counters, plain, traced) -> dict:
    def value(name):
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            return table.get(span, {}).get(stat, 0)
        return counters.get(name, 0)

    values = {name: value(name) for name in PER_LAYER}
    fits = value("trainer.fit.calls")
    rounds, steps = wl.steps_run([result for result, _, _ in traced])
    values["trainer.rounds"] = rounds / fits if fits else 0
    values["trainer.projections_per_step"] = (
        value("codebook.project_psd_power.calls") / steps if steps else 0.0)
    sent = value("feedback.transmit_batch.indices")
    values["feedback.transmit_batch.index_error_frac"] = (
        value("feedback.transmit_batch.index_errors") / sent if sent else 0.0)
    values["trace.overhead_frac"] = (
        sum(w for _, w, _ in traced) / sum(w for _, w, _ in plain) - 1.0)
    return values


def measure_traced(wl, seeds, args, report, spans_mod):
    """Per-layer metrics from a traced pass; see traced_run."""
    wl.setup()
    plain, traced, tracer = traced_run(wl, seeds, spans_mod)
    ops = plain + traced
    checked(wl, ops)
    if traced[-1][0] is not None:
        traced[-1][2].extend(wl.trace_checks(tracer.counters))
    table = spans_mod.layer_table(tracer.spans)
    values = per_layer_metrics(wl, table, tracer.counters, plain, traced)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    report.update(layers=table, counters=dict(tracer.counters),
                  spans_file=str(spans_file.relative_to(ROOT)))
    return ops, {name: {"value": values[name], "unit": metric_unit(name)} for name in PER_LAYER}


def measure_untraced(wl, seeds, args, report):
    """End-to-end metrics: set-up, then a closed loop for args.seconds."""
    # Set-up is measured SETUP_REPEATS times, each a fresh-interpreter import
    # plus one in-process set-up, and the median is reported.
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setup_runs.append(imported + time.perf_counter() - t0)
    setup_s = statistics.median(setup_runs)
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < args.seconds:
        ops.append(timed_op(wl, seeds(len(ops))))
    rss = peak_rss_mb()
    checked(wl, ops)
    rates: dict[str, list[float]] = {}
    for result, wall, _ in ops:
        if result is not None:
            for name, rate in wl.rates(result, wall).items():
                rates.setdefault(name, []).append(rate)
    medians = {name: statistics.median(v) for name, v in rates.items()}
    report.update(setup_runs_s=setup_runs, setup_s=setup_s, rates=medians,
                  op_rates=rates, peak_rss_mb=rss)
    work = medians.get(wl.primary, 0.0)
    return ops, {"work_per_s": {"value": work, "unit": "1/s"},
                 "setup_s": {"value": setup_s, "unit": "s"},
                 "peak_rss_mb": {"value": rss, "unit": "MB"}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small inputs for the self-check; references at toy size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_podsim()
    import spans
    import workloads

    report = {"import_s": time.perf_counter() - T_START}
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, toy=args.toy,
                  meta={**machine_info(), **software_info(), "git_sha": git_sha()})

    def seeds(i):
        return workloads.op_seed(args.seed, i)

    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        wl = workloads.WORKLOADS[args.workload](args.toy, Path(work_dir))
        report["meta"]["working_set_mb_computed"] = wl.working_set()
        if args.trace:
            ops, metrics = measure_traced(wl, seeds, args, report, spans)
        else:
            ops, metrics = measure_untraced(wl, seeds, args, report)

    failed = sum(1 for _, _, problems in ops if problems)
    report.update(op_wall=timing_summary([w for _, w, _ in ops]),
                  ops_failed_frac=failed / len(ops),
                  problems=[p for _, _, problems in ops for p in problems][:20])
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
