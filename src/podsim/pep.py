"""Closed-form pairwise error probability bounds for precoded transmission.

The bound chain has three levels:

1. conditional: given the squared codeword distance D seen by the receiver,
   the pairwise error probability Q(sqrt(D / (2 sigma_n^2))) is bounded by
   the Chernoff form (1/2) exp(-D / (4 sigma_n^2)), capped at 1/2.

2. region: conditioning on the receiver's quantization region V_i and the
   transmitter's precoder P_j, the unquantized head of the channel and the
   quantized-tail magnitude integrate out in closed form, leaving

       (1/2) (1 + eta_c)^{-(m - n)} E_{V_i}[(1 + eta_c beta)^{-n}]

   with beta = hbar^H P_j P_j^H hbar for unit directions hbar in the region
   and eta_c the distance-scaled SNR of the worst-case error event.

3. average: the region bounds weighted by the feedback transition
   probabilities p_f(j|i) and the empirical region occupancies p(i). As
   p(i) times a region mean is a sum over the region's rows, this is

       (1/2) (1 + eta_c)^{-(m - n)} mean_s sum_j p_f(j|a_s) (1 + eta_c beta_sj)^{-n}

   over the evaluation rows s with regions a_s: the constant factor times
   the objective that codebook training minimizes.

Expectations over regions are empirical means over a stored evaluation set,
matching the trainer's convention, and every beta comes from the trainer's
quadratic-form kernel. The closed forms rest on two Gamma integrals;
`closed_form_integrals_check` verifies both by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDims
from .codebook import PrecoderCodebook
from .trainer import _cost_matrix, _entry_forms, _quadratic_forms, encode_batch

__all__ = [
    "EvaluationSet",
    "IntegralCheckReport",
    "PepContext",
    "average_pep_bound",
    "build_evaluation_set",
    "closed_form_integrals_check",
    "conditional_pep_bound",
    "region_pep_bound",
]


@dataclass(frozen=True)
class PepContext:
    """Evaluation parameters for the bound chain.

    dims: channel dimensions the bound is evaluated for
    eta_c: distance-scaled SNR of the error event,
        (sum_k |z_k - z'_k|^2) / (4 sigma_n^2)
    sigma_n2: receiver noise variance per complex sample
    """

    dims: ChannelDims
    eta_c: float
    sigma_n2: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eta_c) and self.eta_c >= 0.0):
            raise ValueError(f"eta_c must be finite and nonnegative, got {self.eta_c}")
        if not (np.isfinite(self.sigma_n2) and self.sigma_n2 > 0.0):
            raise ValueError(f"sigma_n2 must be finite and positive, got {self.sigma_n2}")


@dataclass(frozen=True)
class EvaluationSet:
    """Unit channel directions with their encoder assignments.

    dirs: (s, n) complex rows, each a unit vector
    assignments: (s,) entry index chosen by the encoder for each row
    """

    dirs: np.ndarray
    assignments: np.ndarray

    def __post_init__(self) -> None:
        if self.dirs.ndim != 2 or self.assignments.shape != (self.dirs.shape[0],):
            raise ValueError(
                f"need dirs (s, n) with assignments (s,), got {self.dirs.shape} "
                f"and {self.assignments.shape}"
            )


def build_evaluation_set(
    cb: PrecoderCodebook, inv: np.ndarray, dirs: np.ndarray
) -> EvaluationSet:
    """Assign each direction to its encoder region for the given codebook."""
    asg = encode_batch(dirs, np.asarray(cb.matrices), cb.eta_c, inv)
    return EvaluationSet(dirs=np.asarray(dirs), assignments=asg)


def conditional_pep_bound(ctx: PepContext, d: float) -> float:
    """Chernoff bound on the pairwise error probability at distance d.

    d is the squared received-constellation distance h^H (Z - Z')(Z - Z')^H h.
    """
    if not (np.isfinite(d) and d >= 0.0):
        raise ValueError(f"squared distance must be finite and nonnegative, got {d}")
    return min(0.5, 0.5 * math.exp(-d / (4.0 * ctx.sigma_n2)))


def _check_dims(ctx: PepContext, cb: PrecoderCodebook) -> None:
    if ctx.dims.m != cb.m or ctx.dims.n != cb.n:
        raise ValueError(
            f"context dims ({ctx.dims.m}, {ctx.dims.n}) do not match "
            f"codebook ({cb.m}, {cb.n})"
        )


def region_pep_bound(
    ctx: PepContext, cb: PrecoderCodebook, i: int, j: int, evset: EvaluationSet
) -> float:
    """Bound on the worst-case pairwise error probability given that the
    receiver quantized into region i and the transmitter used precoder j."""
    _check_dims(ctx, cb)
    mask = evset.assignments == i
    if not mask.any():
        raise ValueError(f"region {i} is empty in the evaluation set")
    beta = _entry_forms(evset.dirs[mask], cb.matrices[j])[1]
    tail = float(np.mean((1.0 + ctx.eta_c * beta) ** (-cb.n)))
    head = (1.0 + ctx.eta_c) ** (-(cb.m - cb.n))
    return 0.5 * head * tail


def average_pep_bound(
    ctx: PepContext, cb: PrecoderCodebook, inv: np.ndarray, evset: EvaluationSet
) -> float:
    """Average of the region bounds over feedback noise and region occupancy:
    the sum over (i, j) of p_f(j|i) p(i) region_pep_bound(i, j), with p(i) the
    empirical occupancy of region i, in the closed form

        (1/2) (1 + eta_c)^{-(m - n)} mean_s sum_j p_f(j|a_s) (1 + eta_c beta_sj)^{-n}

    over the evaluation rows s in regions a_s; empty regions add nothing.
    """
    _check_dims(ctx, cb)
    costs = _cost_matrix(_quadratic_forms(evset.dirs, cb.matrices), ctx.eta_c, cb.n, inv)
    tail = float(np.take_along_axis(costs, evset.assignments[:, None], axis=1).mean())
    return 0.5 * (1.0 + ctx.eta_c) ** (-(cb.m - cb.n)) * tail


@dataclass(frozen=True)
class IntegralCheckReport:
    """Monte Carlo vs closed-form comparison for the two Gamma integrals.

    head: E[exp(-eta_c * theta)] over theta ~ Gamma(m - n, 1), closed form
        (1 + eta_c)^{-(m - n)}.
    tail: E[exp(-eta_c * gamma * beta)] over gamma ~ Gamma(n, 1), closed
        form (1 + eta_c * beta)^{-n}.
    """

    head_estimate: float
    head_closed_form: float
    head_stderr: float
    tail_estimate: float
    tail_closed_form: float
    tail_stderr: float

    @property
    def ok(self) -> bool:
        """Both estimates within three standard errors of the closed forms."""
        for est, ref, se in (
            (self.head_estimate, self.head_closed_form, self.head_stderr),
            (self.tail_estimate, self.tail_closed_form, self.tail_stderr),
        ):
            if abs(est - ref) > 3.0 * se + 1e-15:
                return False
        return True


def closed_form_integrals_check(
    eta_c: float,
    m: int,
    n: int,
    n_samples: int,
    rng: np.random.Generator,
    beta: float = 1.0,
) -> IntegralCheckReport:
    """Monte Carlo check of the two closed-form integrals behind the bounds."""
    if m <= n:
        raise ValueError(f"need m > n for the head integral, got m={m}, n={n}")
    if n_samples < 2:
        raise ValueError(f"need at least two samples, got {n_samples}")

    theta = rng.gamma(shape=m - n, scale=1.0, size=n_samples)
    head = np.exp(-eta_c * theta)
    gamma = rng.gamma(shape=n, scale=1.0, size=n_samples)
    tail = np.exp(-eta_c * gamma * beta)
    root = math.sqrt(n_samples)
    return IntegralCheckReport(
        head_estimate=float(head.mean()),
        head_closed_form=(1.0 + eta_c) ** (-(m - n)),
        head_stderr=float(head.std(ddof=1)) / root,
        tail_estimate=float(tail.mean()),
        tail_closed_form=(1.0 + eta_c * beta) ** (-n),
        tail_stderr=float(tail.std(ddof=1)) / root,
    )
