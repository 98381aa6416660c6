"""Closed-form pairwise error probability bounds for precoded transmission.

The bound chain has three levels:

1. conditional: given the squared codeword distance D seen by the receiver,
   the pairwise error probability Q(sqrt(D / (2 sigma_n^2))) is bounded by
   the Chernoff form (1/2) exp(-D / (4 sigma_n^2)), capped at 1/2.

2. region: conditioning on the receiver's quantization region V_i and the
   transmitter's precoder P_j, the unquantized head of the channel and the
   quantized-tail magnitude integrate out in closed form, leaving

       head E_{V_i}[(1 + eta_c beta)^{-n}],   head = (1/2) (1 + eta_c)^{-(m - n)}

   with beta = hbar^H P_j P_j^H hbar for unit directions hbar in the region
   and eta_c the distance-scaled SNR of the worst-case error event. Over an
   evaluation set of S directions in encoder regions a_s, the occupancy p(i)
   times the region mean is one entry of the region-pair table

       tail[i, j] = (1/S) sum_{s: a_s = i} (1 + eta_c beta_sj)^{-n},

   so the region bound is head tail[i, j] / p(i).

3. average: the region bounds weighted by the feedback transition
   probabilities p_f(j|i) = inv[j, i] and the occupancies p(i),

       average = head sum_ij inv[j, i] tail[i, j],

   a K x K product. The table depends on the codebook, the directions and
   eta_c but not on the feedback channel, so one table serves every rho_f.
   At the eta_c and inv the regions were encoded with, the sum is the
   objective that codebook training minimizes.

Expectations over regions are empirical means over the evaluation set,
matching the trainer's convention, and every beta comes from the trainer's
quadratic-form kernel. The closed forms rest on two Gamma integrals;
`closed_form_integrals_check` verifies both by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import PrecoderCodebook
from .trainer import _quadratic_forms, encode_batch

__all__ = [
    "EvaluationSet",
    "IntegralCheckReport",
    "average_pep_bound",
    "build_evaluation_set",
    "closed_form_integrals_check",
    "conditional_pep_bound",
    "region_pep_bound",
]


@dataclass(frozen=True)
class EvaluationSet:
    """Region-pair table of one codebook over a set of unit directions.

    occupancy: (K,) p(i), the share of directions the encoder put in region i
    tail: (K, K) tail[i, j] = (1/S) sum_{s: a_s = i} (1 + eta_c beta_sj)^-n
    head: (1/2) (1 + eta_c)^-(m - n)
    """

    occupancy: np.ndarray
    tail: np.ndarray
    head: float

    def __post_init__(self) -> None:
        k = len(self.occupancy)
        if self.occupancy.shape != (k,) or self.tail.shape != (k, k):
            raise ValueError(
                f"need occupancy (K,) with tail (K, K), got {self.occupancy.shape} "
                f"and {self.tail.shape}"
            )


def build_evaluation_set(
    cb: PrecoderCodebook, inv: np.ndarray, dirs: np.ndarray, eta_c: float | None = None
) -> EvaluationSet:
    """Assign each direction to its encoder region (at the codebook's eta_c and
    the index channel inv) and tabulate the region-pair table at eta_c, which
    defaults to the codebook's."""
    eta_c = cb.eta_c if eta_c is None else eta_c
    if not (np.isfinite(eta_c) and eta_c >= 0.0):
        raise ValueError(f"eta_c must be finite and nonnegative, got {eta_c}")
    if len(dirs) < 1:
        raise ValueError(f"need at least one direction, got {len(dirs)}")
    mats = np.asarray(cb.matrices)
    asg = encode_batch(dirs, mats, cb.eta_c, inv)
    # w[s, j] = (1 + eta_c beta_sj)^-n, formed in place and summed by region
    # one column at a time, so no second (S, K) array is allocated.
    w = _quadratic_forms(dirs, mats)
    w *= eta_c
    w += 1.0
    w **= -cb.n
    tail = np.empty((cb.k, cb.k))
    for j in range(cb.k):
        tail[:, j] = np.bincount(asg, weights=w[:, j], minlength=cb.k)
    tail /= len(dirs)
    return EvaluationSet(
        occupancy=np.bincount(asg, minlength=cb.k) / len(dirs),
        tail=tail,
        head=0.5 * (1.0 + eta_c) ** (-(cb.m - cb.n)),
    )


def conditional_pep_bound(sigma_n2: float, d: float) -> float:
    """Chernoff bound on the pairwise error probability at distance d under
    receiver noise variance sigma_n2 per complex sample.

    d is the squared received-constellation distance h^H (Z - Z')(Z - Z')^H h.
    """
    if not (np.isfinite(sigma_n2) and sigma_n2 > 0.0):
        raise ValueError(f"sigma_n2 must be finite and positive, got {sigma_n2}")
    if not (np.isfinite(d) and d >= 0.0):
        raise ValueError(f"squared distance must be finite and nonnegative, got {d}")
    return min(0.5, 0.5 * math.exp(-d / (4.0 * sigma_n2)))


def region_pep_bound(evset: EvaluationSet, i: int, j: int) -> float:
    """Bound on the worst-case pairwise error probability given that the
    receiver quantized into region i and the transmitter used precoder j."""
    k = len(evset.occupancy)
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError(f"need region and entry indices in [0, {k}), got ({i}, {j})")
    if evset.occupancy[i] == 0.0:
        raise ValueError(f"region {i} is empty in the evaluation set")
    return float(evset.head * evset.tail[i, j] / evset.occupancy[i])


def average_pep_bound(evset: EvaluationSet, inv: np.ndarray) -> float:
    """Average of the region bounds over feedback noise and region occupancy:
    the sum over (i, j) of p_f(j|i) p(i) region_pep_bound(i, j), which is
    head sum_ij inv[j, i] tail[i, j]; empty regions add nothing."""
    return evset.head * float(np.trace(inv @ evset.tail))


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
