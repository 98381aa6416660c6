"""Command line front end: training, bound evaluation, link simulation,
eigenvalue reporting, mapping optimization, and bundled recipes.

Subcommands emit line-oriented CSV or small text artifacts only; plotting
stays out of process. Every subcommand is deterministic given its flags,
input files, and seed. Exit codes: 0 success, 2 usage error, 3 validation
error, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from .codebook import PrecoderCodebook, _check_eta_c, eigen_profile, load_codebook, save_codebook
from .feedback import (
    _MAX_ELEMENTS,
    FeedbackChannel,
    _check_elements,
    _feedback_bits,
    bsc_inversion_matrix,
    load_mapping,
    optimize_mapping,
    save_mapping,
)
from .link import SimulationConfig, run_ber_sweep, write_ber_csv
from .pep import average_pep_bound, build_evaluation_set
from .stbc import Constellation, PodStructure, get_design
from .trainer import (
    TrainerConfig,
    _draw_direction_features,
    eta_c_from_snr_db,
    fit,
    range_design,
)

__all__ = ["main"]

log = logging.getLogger("podsim")

CODE_NAMES = {
    "alamouti": "alamouti",
    "od2": "real-od-2",
    "od4": "real-od-4",
    "od6x8": "real-od-6x8",
    "od8": "real-od-8",
    "qostbc4": "qostbc-4",
}

LOG_LEVELS = ("debug", "info", "warning", "error")

_MAX_SNR_POINTS = 1000  # a longer grid is a typo: the recipes use at most 7 points


def _parse_snr_grid(text: str) -> list[float]:
    """Either one value or an inclusive a:b:step range, counted before it is built."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected VALUE or A:B:STEP, got {text!r}")
    a, b, step = (float(p) for p in parts)
    if not (step > 0 and a <= b):
        raise argparse.ArgumentTypeError(f"need A <= B and STEP > 0 in {text!r}")
    # np.arange makes ceil((b + step / 2 - a) / step) points.
    if not (b + step / 2.0 - a) / step <= _MAX_SNR_POINTS:
        raise argparse.ArgumentTypeError(f"{text!r} has more than {_MAX_SNR_POINTS} SNR points")
    return [float(x) for x in np.arange(a, b + step / 2.0, step)]


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_float_list(text: str) -> list[float]:
    parts = text.split(",")
    if not all(parts):
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _relabeled(cb: PrecoderCodebook, path: str | None) -> PrecoderCodebook:
    """The codebook with entry i moved to label pi(i), for the permutation pi
    in the mapping file at path, or unchanged when there is none. The entry
    order is the index assignment, so this is all a mapping does to the link."""
    if path is None:
        return cb
    perm = load_mapping(path, cb.k)
    matrices, marginals = np.empty_like(cb.matrices), np.empty_like(cb.marginals)
    matrices[perm], marginals[perm] = cb.matrices, cb.marginals
    return dataclasses.replace(cb, matrices=matrices, marginals=marginals)


def cmd_train(args) -> int:
    # A K x K table holds 4^b elements; b is compared before 2^b is formed.
    if 2 * args.feedback_bits > _MAX_ELEMENTS.bit_length() - 1:
        raise ValueError(f"--feedback-bits {args.feedback_bits} needs K x K tables of 4^b "
                         f"elements, more than the ceiling of {_MAX_ELEMENTS}")
    k = 2 ** max(args.feedback_bits, 0)  # b <= 0 leaves one index and no bit to send
    _feedback_bits(k)
    m = args.antennas
    n = args.precoder_dim if args.precoder_dim is not None else min(k, m)

    # The parser lets one eta flag and at most one rho flag (--rho-d 0 if none) through.
    if args.eta_c is not None:
        if args.block_length is not None:
            raise ValueError("--block-length applies only to --design-snr-db")
        eta_c = args.eta_c
    else:
        t = args.block_length if args.block_length is not None else m
        eta_c = eta_c_from_snr_db(m, t, args.design_snr_db)

    rho_range = args.rho_range or args.rho_average
    rule = "fixed" if rho_range is None else "worst-case" if args.rho_range else "average"

    cfg = TrainerConfig(
        m=m,
        n=n,
        k=k,
        eta_c=eta_c,
        rho_d=args.rho_d,
        rho_range=rho_range,
        n_train=args.train_size,
        step_m=args.step_m,
        tol=args.tol,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )
    log.info(
        "training M=%d N=%d K=%d eta_c=%.4g (%s rule)", m, n, k, eta_c, rule
    )
    state = fit(cfg if rho_range is None else range_design(cfg, rule))
    log.info(
        "stopped on %s after %d rounds, J=%.6g; backtracking halvings per round: %s",
        state.stop_reason, len(state.objective_history), state.objective_history[-1],
        " ".join(str(h) for h in state.halvings),
    )
    save_codebook(state.codebook, args.out)
    log.info("wrote %s", args.out)
    return 0


def cmd_eval_pep(args) -> int:
    cb = load_codebook(args.codebook)
    eta_c = args.eta_c if args.eta_c is not None else cb.eta_c
    # Every input is checked before a direction is drawn; the draw itself
    # rejects a negative count before it draws.
    invs = [bsc_inversion_matrix(cb.k, rho_f) for rho_f in args.rho_f]
    _check_eta_c(eta_c)
    if args.samples == 0:
        raise ValueError("need at least one direction, got --samples 0")
    _check_elements(f"--samples {args.samples}", args.samples * cb.n**2)
    dirs = _draw_direction_features(cb.n, args.samples, np.random.default_rng(args.seed))
    evset = build_evaluation_set(cb, dirs, eta_c)
    lines = ["rho_f,eta_c,bound"]
    for rho_f, inv in zip(args.rho_f, invs):
        bound = average_pep_bound(evset, inv)
        # repr is the shortest text that reads back as the same float.
        lines.append(",".join(repr(float(v)) for v in (rho_f, eta_c, bound)))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s", args.out)
    return 0


def cmd_simulate(args) -> int:
    design = get_design(CODE_NAMES[args.code])
    constellation = Constellation("bpsk" if args.constellation == "bpsk" else "qpsk-rot")

    # The inputs decide the run: no codebook is the open loop, a codebook is
    # the closed loop over a feedback link at --rho-f.
    codebook = feedback = None
    if args.codebook is None:
        if args.rho_f != 0.0 or args.mapping is not None:
            raise ValueError("--rho-f and --mapping act on a codebook's feedback; give --codebook")
        pod = PodStructure(inner=design, n=design.m)
    else:
        codebook = _relabeled(load_codebook(args.codebook), args.mapping)
        feedback = FeedbackChannel(k=codebook.k, rho_f=args.rho_f)
        pod = PodStructure(inner=design, n=codebook.n)

    config = SimulationConfig(
        snr_grid_db=args.snr_db,
        frames=args.frames,
        pod=pod,
        constellation=constellation,
        codebook=codebook,
        feedback=feedback,
        symbols_per_frame=args.symbols_per_frame,
        seed=args.seed,
    )
    log.info(
        "simulating %s/%s %s over %d SNR points, %d frames",
        args.code,
        args.constellation,
        "open loop" if codebook is None else "closed loop",
        len(args.snr_db),
        args.frames,
    )
    results = run_ber_sweep(config, workers=args.workers)
    write_ber_csv(args.out, results)
    log.info("wrote %s", args.out)
    return 0


def cmd_eigen(args) -> int:
    cb = load_codebook(args.codebook)
    deltas = eigen_profile(cb)
    header = "index," + ",".join(f"delta_sq_{i + 1}" for i in range(cb.n))
    lines = [header]
    for idx, row in enumerate(deltas, start=1):
        values = ",".join(f"{v * v:.12g}" for v in row)
        lines.append(f"{idx},{values}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s", args.out)
    return 0


def cmd_map_anneal(args) -> int:
    cb = load_codebook(args.codebook)
    perm = optimize_mapping(cb, args.rho_f, args.sa_iters, np.random.default_rng(args.seed))
    save_mapping(args.out, perm)
    log.info("wrote %s", args.out)
    return 0


def _train(cb: str, rho_d: str, snr_db: str, *, antennas: str = "4", bits: str = "4",
           step_m: str = "32767", extra: tuple[str, ...] = ()) -> list[str]:
    """A recipe's training step: N = 4, 20000 training vectors, seed 1."""
    return ["train", "--antennas", antennas, "--feedback-bits", bits, "--precoder-dim", "4",
            "--rho-d", rho_d, "--design-snr-db", snr_db, *extra, "--train-size", "20000",
            "--step-m", step_m, "--seed", "1", "--out", cb]


def _simulate(out: Path, code: str, snr_db: str, frames: str, workers: int,
              cb: str | None = None, rho_f: str | None = None, *,
              constellation: str = "bpsk", seed: str = "7") -> list[str]:
    """A recipe's sweep at 128 symbols per frame: the closed loop over cb at
    crossover rho_f, or the open loop when neither is given."""
    if (cb is None) != (rho_f is None):
        raise ValueError("a recipe's closed loop needs both a codebook and its rho_f")
    codebook, crossover = ([], []) if cb is None else (["--codebook", cb], ["--rho-f", rho_f])
    return ["simulate", *codebook, "--code", code, "--constellation", constellation, *crossover,
            "--snr-db", snr_db, "--frames", frames, "--symbols-per-frame", "128",
            "--seed", seed, "--workers", str(workers), "--out", str(out)]


def _recipe_eigen_spread(out: Path, workers: int) -> list[list[str]]:
    """Eigenvalue structure of trained codebooks across design crossover."""
    steps = []
    for rho in ("0", "0.1", "0.3", "0.5"):
        cb = str(out / f"eigen_cb_rho{rho}.cb")
        steps += [_train(cb, rho, "10"),
                  ["eigen", "--codebook", cb, "--out", str(out / f"eigen_rho{rho}.csv")]]
    return steps


def _recipe_feedback_noise_ber(out: Path, workers: int) -> list[list[str]]:
    """Matched-crossover BER curves against the open-loop reference."""
    steps = []
    for rho in ("0", "0.04", "0.2", "0.5"):
        cb = str(out / f"fn_cb_rho{rho}.cb")
        steps += [_train(cb, rho, "10"),
                  _simulate(out / f"fn_ber_rho{rho}.csv", "od4", "0:12:2", "5000", workers,
                            cb, rho)]
    return steps + [_simulate(out / "fn_ber_open.csv", "od4", "0:12:2", "5000", workers)]


def _recipe_low_rate_six_antenna(out: Path, workers: int) -> list[list[str]]:
    """Six-antenna low-rate construction: matched design vs clean-design mismatch."""
    steps = []
    for rho_d, tag in (("0.04", "matched"), ("0", "mismatch")):
        cb = str(out / f"six_cb_{tag}.cb")
        steps += [_train(cb, rho_d, "10", antennas="6", bits="2", step_m="1023",
                         extra=("--block-length", "8")),
                  _simulate(out / f"six_ber_{tag}.csv", "od6x8", "6:18:3", "20000", workers,
                            cb, "0.04")]
    return steps + [_simulate(out / "six_ber_open.csv", "od6x8", "6:18:3", "20000", workers)]


def _recipe_rotated_qpsk(out: Path, workers: int) -> list[list[str]]:
    """Rate-one quasi-orthogonal code with rotated QPSK, closed vs open loop."""
    cb = str(out / "rq_cb.cb")
    return [
        _train(cb, "0.04", "10"),
        _simulate(out / "rq_ber_closed.csv", "qostbc4", "0:12:3", "2000", workers, cb, "0.04",
                  constellation="qpsk-rot45"),
        _simulate(out / "rq_ber_open.csv", "qostbc4", "0:12:3", "2000", workers,
                  constellation="qpsk-rot45"),
    ]


def _recipe_mismatch_grid(out: Path, workers: int) -> list[list[str]]:
    """Design/operation crossover mismatch at one SNR point."""
    crossovers = ("0", "0.04")
    steps = [_train(str(out / f"mis_cb_rho{d}.cb"), d, "6") for d in crossovers]
    return steps + [
        _simulate(out / f"mis_ber_d{d}_f{f}.csv", "od4", "14", "50000", workers,
                  str(out / f"mis_cb_rho{d}.cb"), f, seed="88")
        for d in crossovers for f in crossovers
    ]


def _recipe_smoke(out: Path, workers: int) -> list[list[str]]:
    """Tiny end-to-end pass through every subcommand; seconds, not minutes."""
    cb = str(out / "smoke_cb.cb")
    return [
        ["train", "--antennas", "2", "--feedback-bits", "1", "--precoder-dim", "2",
         "--rho-d", "0.1", "--design-snr-db", "8", "--train-size", "2000",
         "--step-m", "63", "--max-rounds", "40", "--seed", "5", "--out", cb],
        ["eigen", "--codebook", cb, "--out", str(out / "smoke_eigen.csv")],
        ["eval-pep", "--codebook", cb, "--rho-f", "0,0.1", "--samples", "4000",
         "--seed", "5", "--out", str(out / "smoke_pep.csv")],
        ["map-anneal", "--codebook", cb, "--rho-f", "0.1", "--sa-iters", "2000",
         "--seed", "5", "--out", str(out / "smoke_mapping.txt")],
        _simulate(out / "smoke_ber.csv", "od2", "4:8:2", "400", workers, cb, "0.1", seed="5"),
    ]


RECIPES = {
    "eigen-spread": _recipe_eigen_spread,
    "feedback-noise-ber": _recipe_feedback_noise_ber,
    "low-rate-six-antenna": _recipe_low_rate_six_antenna,
    "rotated-qpsk": _recipe_rotated_qpsk,
    "mismatch-grid": _recipe_mismatch_grid,
    "smoke": _recipe_smoke,
}


def cmd_recipe(args) -> int:
    if args.workers < 1:  # checked before the first step, which may not sweep
        raise ValueError(f"need at least one worker, got {args.workers}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    steps = RECIPES[args.name](out, args.workers)
    for step in steps:
        log.info("recipe step: %s", " ".join(step))
        rc = main(step + ["--log-level", args.log_level])
        if rc != 0:
            return rc
    return 0


def _add_common(parser: argparse.ArgumentParser, seed: bool) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning", help="stderr log level"
    )


@functools.cache  # main() may run many times in one process, once per recipe step
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podsim",
        description=(
            "Train precoder codebooks for noisy quantized feedback, evaluate "
            "pairwise-error bounds, and run closed-loop link simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a precoder codebook")
    p.add_argument("--antennas", type=int, required=True, help="transmit antennas M")
    p.add_argument(
        "--feedback-bits", type=int, required=True, help="feedback bits b; K = 2^b entries"
    )
    p.add_argument(
        "--precoder-dim", type=int, default=None, help="precoder size N (default min(K, M))"
    )
    rho = p.add_mutually_exclusive_group()
    rho.add_argument("--rho-d", type=float, default=0.0, help="design crossover probability")
    rho.add_argument(
        "--rho-range", type=_parse_pair, default=None,
        help="crossover range A,B for the worst-case rule (trains at B)",
    )
    rho.add_argument(
        "--rho-average", type=_parse_pair, default=None,
        help="crossover range A,B for the average rule (trains at the midpoint)",
    )
    eta = p.add_mutually_exclusive_group(required=True)
    eta.add_argument("--eta-c", type=float, default=None, help="design distance parameter")
    eta.add_argument(
        "--design-snr-db", type=float, default=None,
        help="design SNR in dB; eta_c = M * 10^(x/10) / (4 T)",
    )
    p.add_argument(
        "--block-length", type=int, default=None,
        help="block length T for --design-snr-db (default M); not with --eta-c",
    )
    p.add_argument("--train-size", type=int, default=100_000, help="training vectors")
    p.add_argument("--step-m", type=float, default=1.0, help="step size numerator")
    p.add_argument("--tol", type=float, default=1e-5, help="relative stop tolerance")
    p.add_argument("--max-rounds", type=int, default=200, help="alternation round cap")
    p.add_argument("--out", required=True, help="codebook output path")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-pep", help="average pairwise-error bound of a codebook")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument(
        "--rho-f", type=_parse_float_list, default=(0.0,),
        help="comma-separated feedback crossover values, one CSV row each",
    )
    p.add_argument("--eta-c", type=float, default=None, help="override the design eta_c")
    p.add_argument(
        "--snr-db", type=float, default=10.0,
        help="accepted but ignored: no bound this command writes depends on the noise",
    )
    p.add_argument("--samples", type=int, default=20_000, help="direction samples")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_eval_pep)

    p = sub.add_parser("simulate", help="Monte Carlo bit error rate sweep")
    p.add_argument(
        "--codebook", default=None, help="trained codebook file; without one, the open loop"
    )
    p.add_argument("--code", choices=sorted(CODE_NAMES), required=True, help="inner design")
    p.add_argument(
        "--constellation", choices=("bpsk", "qpsk-rot45"), required=True, help="symbol alphabet"
    )
    p.add_argument(
        "--rho-f", type=float, default=0.0, help="feedback crossover probability (needs --codebook)"
    )
    p.add_argument(
        "--snr-db", type=_parse_snr_grid, required=True, help="SNR grid: VALUE or A:B:STEP"
    )
    p.add_argument("--frames", type=int, required=True, help="frames per SNR point")
    p.add_argument(
        "--symbols-per-frame", type=int, default=None,
        help="data symbols per frame (default 130 rounded down to whole code blocks)"
    )
    p.add_argument(
        "--mapping", default=None, metavar="PATH",
        help="map-anneal file that relabels the codebook entries (needs --codebook)",
    )
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eigen", help="per-entry squared eigenvalue profile")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("map-anneal", help="anneal an error-protecting index mapping")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument("--rho-f", type=float, required=True, help="feedback crossover probability")
    p.add_argument("--sa-iters", type=int, default=10_000, help="annealing iterations")
    p.add_argument("--out", required=True, help="mapping output path")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_map_anneal)

    p = sub.add_parser("recipe", help="run a bundled desk-scale experiment")
    p.add_argument("name", choices=sorted(RECIPES), help="recipe name")
    p.add_argument("--out-dir", required=True, help="directory for recipe outputs")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_recipe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = getattr(logging, args.log_level.upper())
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)
    try:
        if hasattr(args, "out"):  # every subcommand but recipe; checked before any work
            out = Path(args.out)
            if out.is_dir():
                raise IsADirectoryError(f"--out {out} is a directory")
            if not out.parent.is_dir():
                raise FileNotFoundError(f"--out {out}: {out.parent} is not a directory")
        return args.func(args)
    except ValueError as exc:
        print(f"podsim: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"podsim: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
