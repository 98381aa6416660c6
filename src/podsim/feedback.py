"""Noisy feedback link for codebook indices.

The receiver picks one of K = 2^b precoder indices and sends it back as b
bits over parallel binary symmetric channels with crossover rho_f. The
probability that transmitted index i arrives as j is

    p_f(j | i) = rho_f^d * (1 - rho_f)^(b - d),

where d is the Hamming distance between the bit patterns of i and j.
Indices are 0-based throughout the code; persisted mapping files use
1-based values.

A codebook's entry order is its index assignment: the index of entry i is
sent as the bits of i. An index mapping pi only relabels the entries, moving
entry i to label pi(i), so it never reaches the channel itself; the one
place a permutation meets the BSC is `mapping_cost`, which scores pi by the
permuted matrix p_f(pi(j) | pi(i)). A codebook's mapping can be optimized
by simulated annealing so that likely bit errors land on precoders whose
dominant transmit directions are close in chordal distance. The schedule is
fixed (start temperature 0.05, geometric cooling by 0.9995 per move); only
the number of moves is a parameter. `podsim map-anneal` writes a mapping to
a file, and `simulate --mapping <path>` relabels the codebook with it.
A codebook trained against the noisy channel has its labels fixed by the
training already; on such a codebook the annealer may find nothing cheaper
than the identity.

Every layer checks a crossover and an index count by the rules stated here:
`_check_crossover`, `_num_bits` and `_feedback_bits`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from podsim.codebook import PrecoderCodebook

__all__ = [
    "FeedbackChannel",
    "bsc_inversion_matrix",
    "mapping_cost",
    "optimize_mapping",
    "load_mapping",
    "save_mapping",
]

log = logging.getLogger(__name__)

_MAPPING_MAGIC = "PODMAP 1"
_ANNEAL_T_INIT = 0.05
_ANNEAL_COOLING = 0.9995

# The most elements any one array of a request may hold: 2^28 float64 is
# 2 GiB. The recipes, tests and benchmark workloads ask at most 800k (50k
# training directions x 16 features), the default --train-size 1.6M, so a
# request past the ceiling is a typo, which would otherwise fail in the
# allocator, or exhaust memory, only after the run has started.
_MAX_ELEMENTS = 1 << 28


def _check_elements(what: str, elements: int) -> None:
    """Reject a request whose largest array, counted before anything is
    drawn, holds more than _MAX_ELEMENTS elements; what names its inputs."""
    if elements > _MAX_ELEMENTS:
        raise ValueError(f"{what} needs an array of {elements} elements, "
                         f"more than the ceiling of {_MAX_ELEMENTS}")


def _num_bits(k: int) -> int:
    """Feedback bits b for K = 2^b indices; rejects non powers of two and a K
    whose K x K tables, each sized here first, would pass the ceiling."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"index count must be a power of two, got K={k}")
    _check_elements(f"K={k}", k * k)
    return k.bit_length() - 1


def _feedback_bits(k: int) -> int:
    bits = _num_bits(k)
    if bits < 1:
        raise ValueError(f"need at least one feedback bit, got K={k}")
    return bits


def _check_crossover(rho: float, what: str = "crossover") -> None:
    """Reject a BSC crossover probability outside [0, 0.5]; what names it."""
    if not 0.0 <= rho <= 0.5:
        raise ValueError(f"{what} must lie in [0, 0.5], got {rho}")


def _check_mapping(mapping: np.ndarray, k: int) -> np.ndarray:
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (k,) or not np.array_equal(np.sort(mapping), np.arange(k)):
        raise ValueError(f"mapping must be a permutation of 0..{k - 1}")
    return mapping


def bsc_inversion_matrix(k: int, rho_f: float) -> np.ndarray:
    """Index inversion probabilities p[j, i] = P(receive j | sent i).

    Works for K = 1 (zero feedback bits) where the matrix is [[1.0]].
    Columns sum to one; the matrix is symmetric because Hamming distance is.
    Each entry is looked up in the law of the distance d = 0..b by the
    Hamming weight of i ^ j, so at most two K x K arrays are alive at once.
    """
    bits = _num_bits(k)
    _check_crossover(rho_f)
    d = np.arange(bits + 1)
    law = rho_f**d * (1.0 - rho_f) ** (bits - d)
    # Hamming weights of 0..K-1: the upper half of each power-of-two range
    # is the lower half with one more bit set.
    weight = np.zeros(k, dtype=np.intp)
    for b in range(bits):
        weight[1 << b : 2 << b] = weight[: 1 << b] + 1
    idx = np.arange(k)
    return law[weight[idx[:, None] ^ idx[None, :]]]


@dataclass(frozen=True)
class FeedbackChannel:
    """K-index feedback link over b = log2 K parallel BSCs, checked when built.

    k: number of indices, a power of two with k >= 2; it fixes bits, b
    rho_f: bit crossover probability in [0, 0.5]
    """

    k: int
    rho_f: float
    bits: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _feedback_bits(self.k))
        _check_crossover(self.rho_f)

    def transmit_batch(self, indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Send each index through the b parallel BSCs and return the decoded
        indices; one independent bit-flip pattern per entry."""
        indices = np.asarray(indices, dtype=np.int64)
        flips = rng.random((indices.size, self.bits)) < self.rho_f
        return indices ^ flips @ (1 << np.arange(self.bits))


def _chordal_distance_matrix(matrices: np.ndarray) -> np.ndarray:
    """Squared chordal distances 1 - |u_i^H u_j|^2 between the unit dominant
    eigenvectors u_j of P_j P_j^H of all entry pairs, clipped to [0, 1],
    shape (K, K)."""
    grams = matrices @ matrices.conj().swapaxes(-1, -2)
    dirs = np.linalg.eigh(grams)[1][..., -1].copy()
    return np.clip(1.0 - np.abs(dirs @ dirs.conj().T) ** 2, 0.0, 1.0)


def mapping_cost(
    perm: np.ndarray,
    bit_matrix: np.ndarray,
    marginals: np.ndarray,
    dist_sq: np.ndarray,
) -> float:
    """Expected squared chordal distortion of feedback errors under mapping perm.

    bit_matrix is the unmapped inversion matrix (identity mapping), dist_sq the
    pairwise squared chordal distances between dominant directions, marginals
    the index usage probabilities p(i).
    """
    p_mapped = bit_matrix[np.ix_(perm, perm)]
    return float(np.sum(marginals[:, None] * p_mapped * dist_sq))


def optimize_mapping(cb: PrecoderCodebook, rho_f: float, n_iter: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Anneal an index mapping that protects nearby precoders of cb.

    Cost: D(pi) = sum_i p(i) sum_j p_f^(pi)(j|i) d_c^2(u_i, u_j) with p(i)
    the codebook's marginals and u_j the dominant direction of P_j P_j^H,
    which every entry has: its power is N >= 1. Each of the n_iter moves is a
    random transposition, cooling is geometric, and the identity mapping is
    always evaluated: the returned permutation never costs more than the
    identity. Both costs are logged at info level.
    """
    if n_iter < 1:
        raise ValueError(f"need at least one annealing iteration, got {n_iter}")
    k, marginals = cb.k, cb.marginals
    _feedback_bits(k)
    bit_matrix = bsc_inversion_matrix(k, rho_f)
    dist_sq = _chordal_distance_matrix(cb.matrices)

    identity = np.arange(k)
    identity_cost = mapping_cost(identity, bit_matrix, marginals, dist_sq)

    current = identity.copy()
    current_cost = identity_cost
    best = identity.copy()
    best_cost = identity_cost
    temp = _ANNEAL_T_INIT
    for _ in range(n_iter):
        a, b = rng.integers(0, k, size=2)
        while b == a:
            b = rng.integers(0, k)
        cand = current.copy()
        cand[a], cand[b] = cand[b], cand[a]
        cand_cost = mapping_cost(cand, bit_matrix, marginals, dist_sq)
        delta = cand_cost - current_cost
        if delta < 0 or rng.random() < np.exp(-delta / temp):
            current, current_cost = cand, cand_cost
            if current_cost < best_cost:
                best, best_cost = current.copy(), current_cost
        temp *= _ANNEAL_COOLING

    if best_cost >= identity_cost - 1e-15:
        best, best_cost = identity, identity_cost
    log.info("identity cost %.6g, annealed cost %.6g", identity_cost, best_cost)
    return best


def save_mapping(path, perm: np.ndarray) -> None:
    """Write a mapping file: magic line, K line, then 1-based permutation."""
    perm = _check_mapping(perm, len(perm))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAPPING_MAGIC}\n")
        fh.write(f"K {len(perm)}\n")
        fh.write(" ".join(str(int(v) + 1) for v in perm) + "\n")


def load_mapping(path, k: int) -> np.ndarray:
    """Read a mapping file for K = k indices into a 0-based permutation."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MAPPING_MAGIC:
        raise ValueError(f"{path}: not a mapping file (missing '{_MAPPING_MAGIC}' header)")
    head = lines[1].split() if len(lines) >= 3 else []
    if len(head) != 2 or head[0] != "K":
        raise ValueError(f"{path}: malformed mapping file (expected 'K <int>', then the "
                         "permutation)")
    try:
        file_k = int(head[1])
        values = np.array(" ".join(lines[2:]).split(), dtype=np.int64) - 1
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed mapping file: {exc}") from None
    if file_k != k:
        raise ValueError(f"{path}: mapping is for K={file_k}, expected K={k}")
    return _check_mapping(values, k)
