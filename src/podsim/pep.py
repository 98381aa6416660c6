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

   a K x K product. The regions are encoded the way the codebook was
   designed: at its eta_c and under its design index channel, the BSC at
   rho_d, which a channel-optimized encoder is trained jointly with. So the
   table depends on the codebook, the directions and eta_c but not on the
   operating feedback channel, and one table serves every rho_f. At the
   codebook's eta_c and rho_f = rho_d, the sum is the objective that
   codebook training minimizes.

The evaluation set is the direction features F(hbar), so every beta comes
from the trainer's quadratic-form kernel; expectations over regions are
empirical means over the set, as in the trainer. The closed forms rest on
two Gamma integrals,
E[exp(-eta_c theta)] = (1 + eta_c)^-(m-n) over theta ~ Gamma(m - n, 1) and
E[exp(-eta_c gamma beta)] = (1 + eta_c beta)^-n over gamma ~ Gamma(n, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import PrecoderCodebook, _check_eta_c
from .feedback import bsc_inversion_matrix
from .trainer import _coordinates, _decay, _encode, _gram, _quadratic_forms

__all__ = [
    "EvaluationSet",
    "average_pep_bound",
    "build_evaluation_set",
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
    cb: PrecoderCodebook, dirs: np.ndarray, eta_c: float | None = None
) -> EvaluationSet:
    """Assign each direction, given as its features F(hbar), to its encoder
    region (at the codebook's eta_c and its design index channel, the BSC at
    rho_d) and tabulate the region-pair table at eta_c (default the codebook's)."""
    eta_c = cb.eta_c if eta_c is None else eta_c
    _check_eta_c(eta_c)
    if len(dirs) < 1:
        raise ValueError(f"need at least one direction, got {len(dirs)}")
    # One pass of quadratic forms serves both the encoder (at the codebook's
    # eta_c, decayed in place of q, whose block then takes the encoder's
    # costs) and the table, which takes the encoder's decay unless its eta_c
    # differs: only then is a copy of q decayed a second time. The cost block
    # then takes the one-hot rows of the rows' regions, and the table one
    # (K, rows) @ (rows, K) product, so no (S, K) array is allocated.
    k = cb.k
    design_inv = bsc_inversion_matrix(k, cb.rho_d)
    counts = np.zeros(k)
    tail = np.zeros((k, k))
    identity = np.eye(k)
    coords = _coordinates(_gram(cb.matrices))
    for _, q in _quadratic_forms(dirs, coords):
        w = None if eta_c == cb.eta_c else _decay(q.copy(), eta_c, cb.n)[0]
        w_enc, t = _decay(q, cb.eta_c, cb.n)
        asg = _encode(w_enc, design_inv, out=t)
        counts += np.bincount(asg, minlength=k)
        # take() buffers its output unless the mode is "clip"; every index is in range.
        onehot = np.take(identity, asg, axis=0, out=t, mode="clip")
        tail += onehot.T @ (w_enc if w is None else w)
    return EvaluationSet(
        occupancy=counts / len(dirs),
        tail=tail / len(dirs),
        head=0.5 * (1.0 + eta_c) ** (-(cb.m - cb.n)),
    )


def average_pep_bound(evset: EvaluationSet, inv: np.ndarray) -> float:
    """Average of the region bounds over feedback noise and region occupancy:
    the sum over (i, j) of p_f(j|i) p(i) head tail[i, j] / p(i), which is
    head sum_ij inv[j, i] tail[i, j]; empty regions add nothing."""
    return evset.head * float(np.trace(inv @ evset.tail))
