"""Command line front end: training, bound evaluation, link simulation,
eigenvalue reporting, mapping optimization, and bundled recipes.

Subcommands emit line-oriented CSV or small text artifacts only; plotting
stays out of process. Every subcommand is deterministic given its flags,
input files, and seed. Exit codes: 0 success, 2 usage error, 3 validation
error, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .channel import sample_directions
from .codebook import eigen_profile, load_codebook, save_codebook
from .feedback import (
    AnnealSchedule,
    FeedbackChannel,
    _chordal_distance_matrix,
    bsc_inversion_matrix,
    load_mapping,
    mapping_cost,
    optimize_mapping,
    save_mapping,
)
from .link import SimulationConfig, run_ber_sweep, write_ber_csv
from .pep import average_pep_bound, build_evaluation_set
from .stbc import Constellation, PodStructure, get_design
from .trainer import (
    TrainerConfig,
    eta_c_from_snr_db,
    train,
    train_average,
    train_worst_case,
)

__all__ = ["main"]

log = logging.getLogger("podsim")

CODE_NAMES = {
    "od2": "real-od-2",
    "od4": "real-od-4",
    "od6x8": "real-od-6x8",
    "qostbc4": "qostbc-4",
}

LOG_LEVELS = ("debug", "info", "warning", "error")


def _parse_snr_grid(text: str) -> list[float]:
    """Either one value or an inclusive a:b:step range."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected VALUE or A:B:STEP, got {text!r}")
    a, b, step = (float(p) for p in parts)
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"need A <= B and STEP > 0 in {text!r}")
    return [float(x) for x in np.arange(a, b + step / 2.0, step)]


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def _make_constellation(name: str) -> Constellation:
    if name == "bpsk":
        return Constellation("bpsk")
    return Constellation("qpsk-rot", rotation=np.pi / 4)


def cmd_train(args) -> int:
    if args.feedback_bits < 1:
        raise ValueError(f"need at least one feedback bit, got {args.feedback_bits}")
    k = 2**args.feedback_bits
    m = args.antennas
    n = args.precoder_dim if args.precoder_dim is not None else min(k, m)

    if (args.eta_c is None) == (args.design_snr_db is None):
        raise ValueError("give exactly one of --eta-c and --design-snr-db")
    if args.eta_c is not None:
        eta_c = args.eta_c
    else:
        t = args.block_length if args.block_length is not None else m
        eta_c = eta_c_from_snr_db(m, t, args.design_snr_db)

    mapping = None
    if args.mapping != "identity":
        if not args.mapping.startswith("file:"):
            raise ValueError("train accepts --mapping identity or file:<path>")
        mapping = load_mapping(args.mapping[5:], k)

    modes = [
        ("fixed", args.rho_d),
        ("worst-case", args.rho_range),
        ("average", args.rho_average),
    ]
    chosen = [(name, val) for name, val in modes if val is not None]
    if len(chosen) > 1:
        raise ValueError("give at most one of --rho-d, --rho-range, --rho-average")
    mode, value = chosen[0] if chosen else ("fixed", 0.0)

    cfg = TrainerConfig(
        m=m,
        n=n,
        k=k,
        eta_c=eta_c,
        rho_d=value if mode == "fixed" else 0.0,
        rho_range=None if mode == "fixed" else value,
        n_train=args.train_size,
        inner_iters=args.inner_iters,
        step_m=args.step_m,
        tol=args.tol,
        max_rounds=args.max_rounds,
        restarts=args.restarts,
        mapping=mapping,
        seed=args.seed,
    )
    log.info(
        "training M=%d N=%d K=%d eta_c=%.4g (%s rule)", m, n, k, eta_c, mode
    )
    if mode == "fixed":
        cb = train(cfg)
    elif mode == "worst-case":
        cb = train_worst_case(cfg)
    else:
        cb = train_average(cfg)
    save_codebook(cb, args.out)
    log.info("wrote %s", args.out)
    return 0


def cmd_eval_pep(args) -> int:
    cb = load_codebook(args.codebook)
    eta_c = args.eta_c if args.eta_c is not None else cb.eta_c
    rng = np.random.default_rng(args.seed)
    dirs = sample_directions(cb.n, args.samples, rng)
    evset = build_evaluation_set(cb, bsc_inversion_matrix(cb.k, cb.rho_d), dirs, eta_c)
    lines = ["rho_f,eta_c,bound"]
    for rho_f in args.rho_f:
        bound = average_pep_bound(evset, bsc_inversion_matrix(cb.k, rho_f))
        lines.append(f"{rho_f:.12g},{eta_c:.12g},{bound:.12g}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s", args.out)
    return 0


def cmd_simulate(args) -> int:
    design = get_design(CODE_NAMES[args.code])
    constellation = _make_constellation(args.constellation)
    baseline = "closed-loop" if args.baseline == "none" else args.baseline

    codebook = None
    feedback = None
    if baseline == "open-loop":
        pod = PodStructure(inner=design, n=design.m)
    else:
        if args.codebook is None:
            raise ValueError(f"--baseline {args.baseline} needs --codebook")
        codebook = load_codebook(args.codebook)
        pod = PodStructure(inner=design, n=codebook.n)
        mapping = None
        if args.mapping == "anneal":
            rng = np.random.default_rng(args.seed)
            mapping = optimize_mapping(
                np.asarray(codebook.matrices),
                codebook.marginals,
                args.rho_f,
                AnnealSchedule(),
                rng,
            )
        elif args.mapping.startswith("file:"):
            mapping = load_mapping(args.mapping[5:], codebook.k)
        elif args.mapping != "identity":
            raise ValueError(f"unknown mapping rule {args.mapping!r}")
        if baseline == "closed-loop":
            feedback = FeedbackChannel(k=codebook.k, rho_f=args.rho_f, mapping=mapping)

    spf = args.symbols_per_frame
    if spf is None:
        spf = 130 // design.n_sym * design.n_sym

    config = SimulationConfig(
        snr_grid_db=args.snr_db,
        frames=args.frames,
        pod=pod,
        constellation=constellation,
        codebook=codebook,
        feedback=feedback,
        baseline_mode=baseline,
        symbols_per_frame=spf,
        seed=args.seed,
    )
    log.info(
        "simulating %s/%s %s over %d SNR points, %d frames",
        args.code,
        args.constellation,
        baseline,
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
    schedule = AnnealSchedule(t_init=args.sa_t_init, cooling=args.sa_cooling, n_iter=args.sa_iters)
    rng = np.random.default_rng(args.seed)
    perm = optimize_mapping(np.asarray(cb.matrices), cb.marginals, args.rho_f, schedule, rng)
    save_mapping(args.out, perm)
    dist_sq = _chordal_distance_matrix(np.asarray(cb.matrices))
    bit_matrix = bsc_inversion_matrix(cb.k, args.rho_f)
    log.info(
        "identity cost %.6g, annealed cost %.6g, wrote %s",
        mapping_cost(np.arange(cb.k), bit_matrix, cb.marginals, dist_sq),
        mapping_cost(perm, bit_matrix, cb.marginals, dist_sq),
        args.out,
    )
    return 0


def _recipe_eigen_spread(out: Path, workers: int) -> list[list[str]]:
    """Eigenvalue structure of trained codebooks across design crossover."""
    steps = []
    for rho in ("0", "0.1", "0.3", "0.5"):
        cb = str(out / f"eigen_cb_rho{rho}.cb")
        steps.append(
            ["train", "--antennas", "4", "--feedback-bits", "4", "--precoder-dim", "4",
             "--rho-d", rho, "--design-snr-db", "10", "--train-size", "20000",
             "--step-m", "32767", "--seed", "1", "--out", cb]
        )
        steps.append(["eigen", "--codebook", cb, "--out", str(out / f"eigen_rho{rho}.csv")])
    return steps


def _recipe_feedback_noise_ber(out: Path, workers: int) -> list[list[str]]:
    """Matched-crossover BER curves against the open-loop reference."""
    steps = []
    for rho in ("0", "0.04", "0.2", "0.5"):
        cb = str(out / f"fn_cb_rho{rho}.cb")
        steps.append(
            ["train", "--antennas", "4", "--feedback-bits", "4", "--precoder-dim", "4",
             "--rho-d", rho, "--design-snr-db", "10", "--train-size", "20000",
             "--step-m", "32767", "--seed", "1", "--out", cb]
        )
        steps.append(
            ["simulate", "--codebook", cb, "--code", "od4", "--constellation", "bpsk",
             "--rho-f", rho, "--snr-db", "0:12:2", "--frames", "5000",
             "--symbols-per-frame", "128", "--seed", "7", "--workers", str(workers),
             "--out", str(out / f"fn_ber_rho{rho}.csv")]
        )
    steps.append(
        ["simulate", "--code", "od4", "--constellation", "bpsk", "--baseline", "open-loop",
         "--snr-db", "0:12:2", "--frames", "5000", "--symbols-per-frame", "128",
         "--seed", "7", "--workers", str(workers), "--out", str(out / "fn_ber_open.csv")]
    )
    return steps


def _recipe_low_rate_six_antenna(out: Path, workers: int) -> list[list[str]]:
    """Six-antenna low-rate construction: matched design vs clean-design mismatch."""
    steps = []
    for rho_d, tag in (("0.04", "matched"), ("0", "mismatch")):
        cb = str(out / f"six_cb_{tag}.cb")
        steps.append(
            ["train", "--antennas", "6", "--feedback-bits", "2", "--precoder-dim", "4",
             "--rho-d", rho_d, "--design-snr-db", "10", "--block-length", "8",
             "--train-size", "20000", "--step-m", "1023", "--seed", "1", "--out", cb]
        )
        steps.append(
            ["simulate", "--codebook", cb, "--code", "od6x8", "--constellation", "bpsk",
             "--rho-f", "0.04", "--snr-db", "6:18:3", "--frames", "20000",
             "--symbols-per-frame", "128", "--seed", "7", "--workers", str(workers),
             "--out", str(out / f"six_ber_{tag}.csv")]
        )
    steps.append(
        ["simulate", "--code", "od6x8", "--constellation", "bpsk", "--baseline", "open-loop",
         "--snr-db", "6:18:3", "--frames", "20000", "--symbols-per-frame", "128",
         "--seed", "7", "--workers", str(workers), "--out", str(out / "six_ber_open.csv")]
    )
    return steps


def _recipe_rotated_qpsk(out: Path, workers: int) -> list[list[str]]:
    """Rate-one quasi-orthogonal code with rotated QPSK, closed vs open loop."""
    cb = str(out / "rq_cb.cb")
    return [
        ["train", "--antennas", "4", "--feedback-bits", "4", "--precoder-dim", "4",
         "--rho-d", "0.04", "--design-snr-db", "10", "--train-size", "20000",
         "--step-m", "32767", "--seed", "1", "--out", cb],
        ["simulate", "--codebook", cb, "--code", "qostbc4", "--constellation", "qpsk-rot45",
         "--rho-f", "0.04", "--snr-db", "0:12:3", "--frames", "2000",
         "--symbols-per-frame", "128", "--seed", "7", "--workers", str(workers),
         "--out", str(out / "rq_ber_closed.csv")],
        ["simulate", "--code", "qostbc4", "--constellation", "qpsk-rot45",
         "--baseline", "open-loop", "--snr-db", "0:12:3", "--frames", "2000",
         "--symbols-per-frame", "128", "--seed", "7", "--workers", str(workers),
         "--out", str(out / "rq_ber_open.csv")],
    ]


def _recipe_mismatch_grid(out: Path, workers: int) -> list[list[str]]:
    """Design/operation crossover mismatch at one SNR point."""
    cb0 = str(out / "mis_cb_rho0.cb")
    cb4 = str(out / "mis_cb_rho0.04.cb")
    steps = [
        ["train", "--antennas", "4", "--feedback-bits", "4", "--precoder-dim", "4",
         "--rho-d", "0", "--design-snr-db", "6", "--train-size", "20000",
         "--step-m", "32767", "--seed", "1", "--out", cb0],
        ["train", "--antennas", "4", "--feedback-bits", "4", "--precoder-dim", "4",
         "--rho-d", "0.04", "--design-snr-db", "6", "--train-size", "20000",
         "--step-m", "32767", "--seed", "1", "--out", cb4],
    ]
    for cb, design_tag in ((cb0, "d0"), (cb4, "d0.04")):
        for rho_f in ("0", "0.04"):
            steps.append(
                ["simulate", "--codebook", cb, "--code", "od4", "--constellation", "bpsk",
                 "--rho-f", rho_f, "--snr-db", "14", "--frames", "50000",
                 "--symbols-per-frame", "128", "--seed", "88", "--workers", str(workers),
                 "--out", str(out / f"mis_ber_{design_tag}_f{rho_f}.csv")]
            )
    return steps


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
        ["simulate", "--codebook", cb, "--code", "od2", "--constellation", "bpsk",
         "--rho-f", "0.1", "--snr-db", "4:8:2", "--frames", "400",
         "--symbols-per-frame", "128", "--seed", "5", "--workers", str(workers),
         "--out", str(out / "smoke_ber.csv")],
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    steps = RECIPES[args.name](out, args.workers)
    for step in steps:
        log.info("recipe step: %s", " ".join(step))
        rc = main(step)
        if rc != 0:
            return rc
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning", help="stderr log level"
    )


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
    p.add_argument("--rho-d", type=float, default=None, help="design crossover probability")
    p.add_argument(
        "--rho-range", type=_parse_pair, default=None,
        help="crossover range A,B for the worst-case rule (trains at B)",
    )
    p.add_argument(
        "--rho-average", type=_parse_pair, default=None,
        help="crossover range A,B for the average rule (trains at the midpoint)",
    )
    p.add_argument("--eta-c", type=float, default=None, help="design distance parameter")
    p.add_argument(
        "--design-snr-db", type=float, default=None,
        help="design SNR in dB; eta_c = M * 10^(x/10) / (4 T)",
    )
    p.add_argument(
        "--block-length", type=int, default=None,
        help="block length T for --design-snr-db (default M)",
    )
    p.add_argument("--train-size", type=int, default=100_000, help="training vectors")
    p.add_argument("--restarts", type=int, default=1, help="independent initializations")
    p.add_argument("--inner-iters", type=int, default=5, help="gradient steps per entry")
    p.add_argument("--step-m", type=float, default=1.0, help="step size numerator")
    p.add_argument("--tol", type=float, default=1e-5, help="relative stop tolerance")
    p.add_argument("--max-rounds", type=int, default=200, help="alternation round cap")
    p.add_argument(
        "--mapping", default="identity", help="index mapping: identity or file:<path>"
    )
    p.add_argument("--out", required=True, help="codebook output path")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-pep", help="average pairwise-error bound of a codebook")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument(
        "--rho-f", type=_parse_float_list, default=[0.0],
        help="comma-separated feedback crossover values, one CSV row each",
    )
    p.add_argument("--eta-c", type=float, default=None, help="override the design eta_c")
    p.add_argument(
        "--snr-db", type=float, default=10.0,
        help="accepted but ignored: no bound this command writes depends on the noise",
    )
    p.add_argument("--samples", type=int, default=20_000, help="direction samples")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_eval_pep)

    p = sub.add_parser("simulate", help="Monte Carlo bit error rate sweep")
    p.add_argument("--codebook", default=None, help="trained codebook file")
    p.add_argument("--code", choices=sorted(CODE_NAMES), required=True, help="inner design")
    p.add_argument(
        "--constellation", choices=("bpsk", "qpsk-rot45"), required=True, help="symbol alphabet"
    )
    p.add_argument(
        "--baseline", choices=("none", "open-loop", "genie"), default="none",
        help="none = full closed loop",
    )
    p.add_argument("--rho-f", type=float, default=0.0, help="feedback crossover probability")
    p.add_argument(
        "--snr-db", type=_parse_snr_grid, required=True, help="SNR grid: VALUE or A:B:STEP"
    )
    p.add_argument("--frames", type=int, required=True, help="frames per SNR point")
    p.add_argument(
        "--symbols-per-frame", type=int, default=None,
        help="data symbols per frame (default 130 rounded down to whole code blocks)"
    )
    p.add_argument(
        "--mapping", default="identity", help="index mapping: identity, file:<path>, or anneal"
    )
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eigen", help="per-entry squared eigenvalue profile")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("map-anneal", help="anneal an error-protecting index mapping")
    p.add_argument("--codebook", required=True, help="trained codebook file")
    p.add_argument("--rho-f", type=float, required=True, help="feedback crossover probability")
    p.add_argument("--sa-iters", type=int, default=10_000, help="annealing iterations")
    p.add_argument("--sa-t-init", type=float, default=0.05, help="initial temperature")
    p.add_argument("--sa-cooling", type=float, default=0.9995, help="geometric cooling factor")
    p.add_argument("--out", required=True, help="mapping output path")
    _add_common(p)
    p.set_defaults(func=cmd_map_anneal)

    p = sub.add_parser("recipe", help="run a bundled desk-scale experiment")
    p.add_argument("name", choices=sorted(RECIPES), help="recipe name")
    p.add_argument("--out-dir", required=True, help="directory for recipe outputs")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    _add_common(p)
    p.set_defaults(func=cmd_recipe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = getattr(args, "log_level", "warning")
    logging.basicConfig(
        level=getattr(logging, level.upper()), format="%(levelname)s %(name)s: %(message)s"
    )
    log.setLevel(getattr(logging, level.upper()))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"podsim: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"podsim: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
