"""Regenerate bench/data/reference.json, the values the output checks compare with.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted: it records what that
commit computes. It runs each workload's op on seeds that benchmark runs do
not use, at full and at toy size:

- train-k16: the median final objective J over TRAIN_OPS fits, and a
  relative tolerance of Z times their relative standard deviation.
- the sweeps: the pooled BER per SNR point over SWEEP_OPS sweeps, its
  standard error, and the design effect deff, the per-sweep BER variance
  over the binomial variance. Bits of one frame share a fading draw, so
  deff > 1. BER does not depend on the frame count, so toy size reuses the
  full-size values.
- bound-grid needs no stored values; its checks recompute the bounds.
"""

import json
import statistics
import sys

from run import OUT, load_podsim

REF_SEED = 2**31 - 1
TRAIN_OPS = 20
SWEEP_OPS = {"sweep-qostbc4-long": 480, "sweep-od4-short": 100}


def train_reference(workloads, toy: bool) -> dict:
    wl = workloads.TrainK16(toy, OUT)
    wl.setup()
    finals = [wl.op(workloads.op_seed(REF_SEED, i)).objective_history[-1]
              for i in range(TRAIN_OPS)]
    median = statistics.median(finals)
    rel_sd = statistics.stdev(finals) / median
    return {"final_j": median, "rel_tol": float(f"{workloads.Z * rel_sd:.2g}"),
            "rel_sd": rel_sd, "fits": TRAIN_OPS}


def sweep_reference(workloads, name: str) -> dict:
    wl = workloads.WORKLOADS[name](False, OUT)
    wl.setup()
    runs = [wl.op(workloads.op_seed(REF_SEED, i)) for i in range(SWEEP_OPS[name])]
    points = []
    for p, snr_db in enumerate(workloads.SNR_DB):
        bers = [r[p].bit_errors / r[p].bits_sent for r in runs]
        bits = runs[0][p].bits_sent
        ber = sum(r[p].bit_errors for r in runs) / (bits * len(runs))
        var = statistics.variance(bers)
        points.append({"snr_db": snr_db, "ber": ber, "se": (var / len(runs)) ** 0.5,
                       "deff": var / (ber * (1.0 - ber) / bits), "sweeps": len(runs)})
    return {"points": points}


def main() -> int:
    load_podsim()
    import workloads

    OUT.mkdir(exist_ok=True)
    ref = {"made_by": "python3 bench/make_reference.py", "ref_seed": REF_SEED,
           "train-k16": {"full": train_reference(workloads, False),
                         "toy": train_reference(workloads, True)},
           "bound-grid": {"full": {}, "toy": {}}}
    for name in SWEEP_OPS:
        values = sweep_reference(workloads, name)
        ref[name] = {"full": values, "toy": values}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(ref, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
