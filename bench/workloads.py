"""The benchmark's four workloads: set-up, one closed-loop op, output checks.

Every op calls podsim through its module namespaces (`podsim.trainer.fit`,
not a bound name), so a traced run sees the wrapped functions. The checks
use small numpy oracles written here, not podsim's own code, wherever a
reference value depends on the op's seed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import podsim.channel
import podsim.cli
import podsim.codebook
import podsim.feedback
import podsim.link
import podsim.stbc
import podsim.trainer

DATA = Path(__file__).resolve().parent / "data"
CODEBOOK = DATA / "k16_m4_rho0.04.pcb"
REFERENCE = DATA / "reference.json"

# A statistical check fails when the observed count lies in a tail of
# probability below ALPHA; a reference's own error is allowed for at Z
# standard errors. A check of a correct op fails with probability < 2e-7.
ALPHA = 1e-7
Z = 5.0
SNR_DB = (6.0, 12.0)
RHO_F = 0.04
BOUND_RHO_F = tuple(round(0.005 * i, 3) for i in range(20))
ANNEAL_RHO_F = 0.05
MB = 1e6


def op_seed(run_seed: int, op_index: int) -> int:
    """Seed of one op, derived from the run's seed and the op's position."""
    return int(np.random.SeedSequence((run_seed, op_index)).generate_state(1)[0])


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def binomial_tail(hits: int, trials: int, p: float) -> float:
    """P(X >= hits) if hits is above the mean of Binomial(trials, p), else
    P(X <= hits); summed outward from hits until it reaches ALPHA."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if hits == round(trials * p) else 0.0
    const = math.lgamma(trials + 1)
    step = 1 if hits >= trials * p else -1
    total, k = 0.0, hits
    while 0 <= k <= trials:
        term = math.exp(const - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * math.log(p) + (trials - k) * math.log1p(-p))
        total += term
        # Terms shrink geometrically away from the mean, so once they are
        # negligible against ALPHA the rest of the tail is too.
        if total >= ALPHA or term < ALPHA * 1e-9:
            break
        k += step
    return total


def binomial_problem(what: str, hits: int, trials: int, p: float, deff: float = 1.0,
                     ref_se: float = 0.0) -> list[str]:
    """Empty unless hits/trials lies in a tail of probability < ALPHA.

    deff > 1 widens the interval for trials that are not independent, such as
    bits sharing one fading draw: the test runs on trials / deff trials. The
    reference p may be off by Z ref_se either way.
    """
    n, x = max(1, round(trials / deff)), round(hits / deff)
    p_low, p_high = max(p - Z * ref_se, 0.0), min(p + Z * ref_se, 1.0)
    p_near = p_high if x >= n * p_high else p_low if x <= n * p_low else None
    if p_near is not None and binomial_tail(x, n, p_near) < ALPHA:
        return [f"{what}: {hits / trials:.6g} is outside the interval around {p:.6g} "
                f"({trials} trials, deff {deff:.3g})"]
    return []


def inversion_oracle(k: int, rho: float, perm=None) -> np.ndarray:
    """p[j, i] = P(receive j | sent i) over log2(k) parallel BSCs."""
    idx = np.arange(k) if perm is None else np.asarray(perm)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float)
    bits = k.bit_length() - 1
    return rho**dist * (1.0 - rho) ** (bits - dist)


class Workload:
    """One workload. `op` returns a result that `check` and `rates` read."""

    name = ""
    primary = ""  # the rate reported as work_per_s
    trace_ops = 1  # ops in each pass of a traced run; fixed so counts repeat

    def __init__(self, toy: bool, work_dir: Path) -> None:
        self.toy = toy
        self.work_dir = work_dir

    @functools.cached_property
    def reference(self) -> dict:
        return load_reference()[self.name]["toy" if self.toy else "full"]

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, seed: int):
        raise NotImplementedError

    def rates(self, result, wall_s: float) -> dict[str, float]:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result):
        """Equal for equal outputs; traced and untraced ops must agree."""
        raise NotImplementedError

    def working_set(self) -> dict[str, float]:
        """Sizes in MB of the largest arrays, computed from the shapes."""
        raise NotImplementedError

    def trace_checks(self, counters: dict[str, float]) -> list[str]:
        return []

    def steps_run(self, results) -> tuple[int, int]:
        """(alternation rounds, gradient steps) the results ran; trainer only."""
        return 0, 0


class TrainK16(Workload):
    name = "train-k16"
    primary = "train_rounds_per_s"
    trace_ops = 2

    def __init__(self, toy: bool, work_dir: Path) -> None:
        super().__init__(toy, work_dir)
        self.n_train = 4_000 if toy else 50_000
        self.rounds = 2 if toy else 3

    def setup(self) -> None:
        trainer = podsim.trainer
        self.cfg = trainer.TrainerConfig(
            m=4, n=4, k=16, eta_c=trainer.eta_c_from_snr_db(4, 4, 10.0), rho_d=0.1,
            n_train=self.n_train, inner_iters=5, step_m=32767.0,
            tol=-math.inf,  # never stop early: every op runs the pinned rounds
            max_rounds=self.rounds, restarts=1,
        )

    def op(self, seed: int):
        return podsim.trainer.fit(self.cfg, np.random.default_rng(seed))

    def rates(self, state, wall_s: float) -> dict[str, float]:
        return {"train_rounds_per_s": len(state.objective_history) / wall_s}

    def check(self, state) -> list[str]:
        history = state.objective_history
        problems = []
        if len(history) != self.rounds:
            problems.append(f"ran {len(history)} rounds, cap is {self.rounds}")
        if any(b > a * (1.0 + 1e-12) for a, b in zip(history, history[1:])):
            problems.append(f"objective history increases: {history}")
        try:
            state.codebook.validate()
        except podsim.codebook.CodebookError as exc:
            problems.append(f"codebook does not validate: {exc}")
        ref, tol = self.reference["final_j"], self.reference["rel_tol"]
        if history and abs(history[-1] - ref) > tol * ref:
            problems.append(f"final J {history[-1]:.6g} not within {tol:g} of {ref:.6g}")
        return problems

    def steps_run(self, states) -> tuple[int, int]:
        rounds = sum(len(s.objective_history) for s in states if s is not None)
        return rounds, rounds * self.cfg.k * self.cfg.inner_iters

    def fingerprint(self, state):
        return tuple(state.objective_history), np.asarray(state.codebook.matrices).tobytes()

    def working_set(self) -> dict[str, float]:
        s, n, k = self.n_train, 4, 16
        return {"training_directions_mb": s * n * 16 / MB, "cost_matrix_mb": s * k * 8 / MB}


class Sweep(Workload):
    """Closed-loop BER sweep at two SNR points with the stored codebook."""

    primary = "frames_per_s"
    design = ""
    constellation = ""
    symbols_per_frame = 0
    full_frames = 0

    def __init__(self, toy: bool, work_dir: Path) -> None:
        super().__init__(toy, work_dir)
        self.frames = 256 if toy else self.full_frames

    def setup(self) -> None:
        stbc = podsim.stbc
        cb = podsim.codebook.load_codebook(CODEBOOK)
        design = stbc.get_design(self.design)
        constellation = stbc.Constellation(self.constellation)
        syms, _ = podsim.link.candidate_codewords(design, constellation)
        alphabet = 2**constellation.bits_per_symbol
        if len(syms) != alphabet**design.n_sym:
            raise RuntimeError(f"{self.design}: {len(syms)} candidates, "
                               f"expected {alphabet ** design.n_sym}")
        self.config = podsim.link.SimulationConfig(
            snr_grid_db=list(SNR_DB), frames=self.frames,
            pod=stbc.PodStructure(inner=design, n=cb.n), constellation=constellation,
            codebook=cb, feedback=podsim.feedback.FeedbackChannel(k=cb.k, rho_f=RHO_F),
            symbols_per_frame=self.symbols_per_frame,
        )
        self.config.validate()
        self.bits_per_point = self.frames * self.symbols_per_frame * constellation.bits_per_symbol

    def op(self, seed: int):
        return podsim.link.run_ber_sweep(dataclasses.replace(self.config, seed=seed))

    def rates(self, results, wall_s: float) -> dict[str, float]:
        return {"frames_per_s": sum(r.frames for r in results) / wall_s}

    def check(self, results) -> list[str]:
        if [r.snr_db for r in results] != list(SNR_DB):
            return [f"SNR points {[r.snr_db for r in results]}, expected {list(SNR_DB)}"]
        problems = []
        for r, ref in zip(results, self.reference["points"]):
            if r.bits_sent != self.bits_per_point:
                problems.append(f"{r.snr_db} dB: bits_sent {r.bits_sent}, "
                                f"expected {self.bits_per_point}")
                continue
            problems += binomial_problem(f"{r.snr_db} dB BER", r.bit_errors, r.bits_sent,
                                         ref["ber"], ref["deff"], ref["se"])
        return problems

    def fingerprint(self, results):
        return [(r.bits_sent, r.bit_errors) for r in results]

    def trace_checks(self, counters: dict[str, float]) -> list[str]:
        sent = int(counters.get("feedback.transmit_batch.indices", 0))
        if sent == 0:
            return ["traced run saw no feedback indices"]
        errors = int(counters["feedback.transmit_batch.index_errors"])
        model = 1.0 - (1.0 - RHO_F) ** 4
        return binomial_problem("feedback index error rate", errors, sent, model)


class SweepQostbc4Long(Sweep):
    name = "sweep-qostbc4-long"
    design = "qostbc-4"
    constellation = "qpsk-rot"
    symbols_per_frame = 128
    # One 256-frame chunk per SNR point keeps the projected candidates at
    # 4.2 MB, twice L2. With full 2048-frame chunks (33.5 MB) the rate swung
    # twofold with other tenants' memory traffic on a shared host.
    full_frames = 256
    trace_ops = 48

    def working_set(self) -> dict[str, float]:
        chunk = min(self.frames, 2048)
        return {"projected_candidates_per_chunk_mb": chunk * 256 * 4 * 16 / MB,
                "candidate_norms_per_chunk_mb": chunk * 256 * 8 / MB}


class SweepOd4Short(Sweep):
    name = "sweep-od4-short"
    design = "real-od-4"
    constellation = "bpsk"
    symbols_per_frame = 4
    full_frames = 65_536
    trace_ops = 16

    def working_set(self) -> dict[str, float]:
        chunk = min(self.frames, 2048)
        return {"channels_per_chunk_mb": chunk * 4 * 16 / MB,
                "direction_costs_per_chunk_mb": chunk * 16 * 8 * 2 / MB}


@dataclasses.dataclass
class BoundGridResult:
    seed: int
    pep_rc: int
    anneal_rc: int
    pep_s: float
    anneal_s: float
    pep_csv: str
    mapping: str


class BoundGrid(Workload):
    name = "bound-grid"
    primary = "bounds_per_s"
    trace_ops = 4

    def __init__(self, toy: bool, work_dir: Path) -> None:
        super().__init__(toy, work_dir)
        self.samples = 20_000 if toy else 50_000
        self.rho_f = BOUND_RHO_F[:4] if toy else BOUND_RHO_F
        self.sa_iters = 1_000 if toy else 10_000

    def setup(self) -> None:
        self.cb = podsim.codebook.load_codebook(CODEBOOK)
        self.rho_text = ",".join(f"{r:g}" for r in self.rho_f)

    def op(self, seed: int) -> BoundGridResult:
        pep_out = self.work_dir / f"pep-{seed}.csv"
        map_out = self.work_dir / f"mapping-{seed}.txt"
        t0 = time.perf_counter()
        pep_rc = podsim.cli.main([
            "eval-pep", "--codebook", str(CODEBOOK), "--rho-f", self.rho_text,
            "--snr-db", "10", "--samples", str(self.samples), "--seed", str(seed),
            "--out", str(pep_out)])
        t1 = time.perf_counter()
        anneal_rc = podsim.cli.main([
            "map-anneal", "--codebook", str(CODEBOOK), "--rho-f", f"{ANNEAL_RHO_F:g}",
            "--sa-iters", str(self.sa_iters), "--seed", str(seed), "--out", str(map_out)])
        t2 = time.perf_counter()
        texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in (pep_out, map_out)]
        return BoundGridResult(seed, pep_rc, anneal_rc, t1 - t0, t2 - t1, *texts)

    def rates(self, result: BoundGridResult, wall_s: float) -> dict[str, float]:
        return {"bounds_per_s": len(self.rho_f) / result.pep_s,
                "anneal_iters_per_s": self.sa_iters / result.anneal_s}

    def check(self, result: BoundGridResult) -> list[str]:
        if result.pep_rc != 0 or result.anneal_rc != 0:
            return [f"exit codes eval-pep {result.pep_rc}, map-anneal {result.anneal_rc}"]
        return self._check_bounds(result) + self._check_mapping(result)

    def _check_bounds(self, result: BoundGridResult) -> list[str]:
        lines = result.pep_csv.split()
        if lines[:1] != ["rho_f,eta_c,bound"] or len(lines) != len(self.rho_f) + 1:
            return [f"eval-pep CSV has an unexpected layout: {lines[:2]}..."]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        # The direction sampler is the input generator; the encoder and the
        # bound are recomputed here. The average bound equals
        # 0.5 (1 + eta_c)^-(m-n) mean_s (W @ inv)[s, a_s], W = (1 + eta_c q)^-n.
        cb = self.cb
        rng = np.random.default_rng(result.seed)
        dirs = podsim.channel.sample_directions(cb.n, self.samples, rng)
        q = np.stack([np.sum(np.abs(dirs @ p.conj()) ** 2, axis=1) for p in cb.matrices], axis=1)
        w = (1.0 + cb.eta_c * q) ** (-cb.n)
        assigned = np.argmin(w @ inversion_oracle(cb.k, cb.rho_d), axis=1)
        head = 0.5 * (1.0 + cb.eta_c) ** (-(cb.m - cb.n))
        problems = []
        for rho, (rho_csv, _, bound) in zip(self.rho_f, rows):
            ref = head * float(np.mean(np.take_along_axis(
                w @ inversion_oracle(cb.k, rho), assigned[:, None], axis=1)))
            if rho_csv != rho or abs(bound - ref) > 1e-9 * ref:
                problems.append(f"rho_f {rho}: bound {bound!r}, oracle {ref!r}")
        return problems

    def _check_mapping(self, result: BoundGridResult) -> list[str]:
        lines = result.mapping.split("\n")
        k = self.cb.k
        try:
            perm = np.array(lines[2].split(), dtype=np.int64) - 1
        except (IndexError, ValueError):
            perm = None
        if lines[:2] != ["PODMAP 1", f"K {k}"] or perm is None or \
                not np.array_equal(np.sort(perm), np.arange(k)):
            return [f"map-anneal output is not a K={k} mapping: {lines[:3]}"]
        mats = np.asarray(self.cb.matrices)
        dirs = np.stack([np.linalg.eigh(p @ p.conj().T)[1][:, -1] for p in mats])
        dist_sq = np.clip(1.0 - np.abs(dirs @ dirs.conj().T) ** 2, 0.0, 1.0)
        marg = np.asarray(self.cb.marginals)[:, None]

        def cost(mapping):
            return float(np.sum(marg * inversion_oracle(k, ANNEAL_RHO_F, mapping) * dist_sq))

        annealed, identity = cost(perm), cost(np.arange(k))
        if annealed > identity * (1.0 + 1e-12):
            return [f"annealed mapping costs {annealed:.6g} > identity {identity:.6g}"]
        return []

    def fingerprint(self, result: BoundGridResult):
        return result.pep_csv, result.mapping

    def working_set(self) -> dict[str, float]:
        s, n, k = self.samples, 4, 16
        return {"evaluation_directions_mb": s * n * 16 / MB,
                "quadratic_forms_mb": s * k * 8 / MB}


WORKLOADS = {w.name: w for w in (TrainK16, SweepQostbc4Long, SweepOd4Short, BoundGrid)}
