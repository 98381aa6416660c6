"""Noisy feedback link for codebook indices.

The receiver picks one of K = 2^b precoder indices and sends it back as b
bits over parallel binary symmetric channels with crossover rho_f. With an
index mapping pi (a permutation applied before the bits are formed), the
probability that transmitted index i arrives as j is

    p_f(j | i) = rho_f^d * (1 - rho_f)^(b - d),

where d is the Hamming distance between the bit patterns of pi(i) and
pi(j). Indices are 0-based throughout the code; persisted mapping files
use 1-based values.

The mapping itself can be optimized by simulated annealing so that likely
bit errors land on precoders whose dominant transmit directions are close
in chordal distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AnnealSchedule",
    "FeedbackChannel",
    "bsc_inversion_matrix",
    "dominant_directions",
    "chordal_distance_sq",
    "mapping_cost",
    "optimize_mapping",
    "load_mapping",
    "save_mapping",
]

_MAPPING_MAGIC = "PODMAP 1"


def _num_bits(k: int) -> int:
    """Feedback bits b for K = 2^b indices; rejects non powers of two."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"index count must be a power of two, got K={k}")
    return k.bit_length() - 1


def _check_mapping(mapping: np.ndarray, k: int) -> np.ndarray:
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (k,) or not np.array_equal(np.sort(mapping), np.arange(k)):
        raise ValueError(f"mapping must be a permutation of 0..{k - 1}")
    return mapping


def bsc_inversion_matrix(k: int, rho_f: float, mapping: np.ndarray | None = None) -> np.ndarray:
    """Index inversion probabilities p[j, i] = P(receive j | sent i).

    Works for K = 1 (zero feedback bits) where the matrix is [[1.0]].
    Columns sum to one; the matrix is symmetric because Hamming distance is.
    """
    bits = _num_bits(k)
    if not 0.0 <= rho_f <= 0.5:
        raise ValueError(f"crossover must lie in [0, 0.5], got {rho_f}")
    idx = np.arange(k) if mapping is None else _check_mapping(mapping, k)
    # Hamming distances between mapped bit patterns of all index pairs.
    xor = idx[:, None] ^ idx[None, :]
    dist = np.zeros((k, k), dtype=np.int64)
    for b in range(bits):
        dist += (xor >> b) & 1
    return rho_f**dist * (1.0 - rho_f) ** (bits - dist)


@dataclass
class FeedbackChannel:
    """K-index feedback link over b = log2 K parallel BSCs.

    k: number of indices, a power of two with k >= 2
    rho_f: bit crossover probability in [0, 0.5]
    mapping: 0-based index permutation applied before bit conversion
    """

    k: int
    rho_f: float
    mapping: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        bits = _num_bits(self.k)
        if bits < 1:
            raise ValueError(f"need at least one feedback bit, got K={self.k}")
        if not 0.0 <= self.rho_f <= 0.5:
            raise ValueError(f"crossover must lie in [0, 0.5], got {self.rho_f}")
        if self.mapping is None:
            self.mapping = np.arange(self.k)
        else:
            self.mapping = _check_mapping(self.mapping, self.k)

    @property
    def bits(self) -> int:
        return _num_bits(self.k)

    def inversion_matrix(self) -> np.ndarray:
        """p[j, i] = P(transmitter decodes j | receiver sent i)."""
        return bsc_inversion_matrix(self.k, self.rho_f, self.mapping)

    def inversion_probability(self, i: int, j: int) -> float:
        d = int(self.mapping[i] ^ self.mapping[j]).bit_count()
        return float(self.rho_f**d * (1.0 - self.rho_f) ** (self.bits - d))

    def transmit(self, i: int, rng: np.random.Generator) -> int:
        """Send index i through the b parallel BSCs, return the decoded index."""
        return int(self.transmit_batch(np.array([i]), rng)[0])

    def transmit_batch(self, indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized transmit; one independent bit-flip pattern per entry."""
        indices = np.asarray(indices, dtype=np.int64)
        flips = (rng.random((indices.size, self.bits)) < self.rho_f).astype(np.int64)
        masks = (flips << np.arange(self.bits)).sum(axis=1)
        received = self.mapping[indices] ^ masks
        demap = np.empty(self.k, dtype=np.int64)
        demap[self.mapping] = np.arange(self.k)
        return demap[received]


def dominant_directions(matrices: np.ndarray) -> np.ndarray:
    """Unit dominant eigenvector of each P_j P_j^H, shape (K, N).

    Rejects numerically zero factors since their direction is undefined.
    """
    mats = np.asarray(matrices)
    k = mats.shape[0]
    out = np.empty((k, mats.shape[1]), dtype=complex)
    for j in range(k):
        gram = mats[j] @ mats[j].conj().T
        if np.linalg.norm(gram, "fro") < 1e-12:
            raise ValueError(f"codebook entry {j} is numerically zero")
        w, v = np.linalg.eigh(gram)
        out[j] = v[:, -1]
    return out


def _chordal_distance_matrix(matrices: np.ndarray) -> np.ndarray:
    """Squared chordal distances 1 - |u_i^H u_j|^2 between the dominant
    directions of all entry pairs, clipped to [0, 1], shape (K, K)."""
    dirs = dominant_directions(matrices)
    return np.clip(1.0 - np.abs(dirs @ dirs.conj().T) ** 2, 0.0, 1.0)


def chordal_distance_sq(u: np.ndarray, v: np.ndarray) -> float:
    """Squared chordal distance 1 - |u^H v|^2 between unit vectors."""
    return float(1.0 - np.abs(np.vdot(u, v)) ** 2)


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


@dataclass(frozen=True)
class AnnealSchedule:
    """Simulated annealing schedule: geometric cooling with swap moves."""

    t_init: float = 0.05
    cooling: float = 0.9995
    n_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.t_init <= 0 or not 0 < self.cooling < 1 or self.n_iter < 1:
            raise ValueError("invalid annealing schedule")


def optimize_mapping(
    matrices: np.ndarray,
    marginals: np.ndarray,
    rho_f: float,
    schedule: AnnealSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Anneal an index mapping that protects nearby precoders.

    Cost: D(pi) = sum_i p(i) sum_j p_f^(pi)(j|i) d_c^2(u_i, u_j) with u_j the
    dominant direction of P_j P_j^H. Moves are random transpositions, cooling
    is geometric, and the identity mapping is always evaluated: the returned
    permutation never costs more than the identity.
    """
    k = len(matrices)
    bits = _num_bits(k)
    if bits < 1:
        raise ValueError(f"need at least one feedback bit, got K={k}")
    marginals = np.asarray(marginals, dtype=float)
    if marginals.shape != (k,) or marginals.min() < -1e-12:
        raise ValueError("marginals must be K nonnegative probabilities")

    dist_sq = _chordal_distance_matrix(matrices)
    bit_matrix = bsc_inversion_matrix(k, rho_f)

    identity = np.arange(k)
    identity_cost = mapping_cost(identity, bit_matrix, marginals, dist_sq)

    current = identity.copy()
    current_cost = identity_cost
    best = identity.copy()
    best_cost = identity_cost
    temp = schedule.t_init
    for _ in range(schedule.n_iter):
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
        temp *= schedule.cooling

    if best_cost < identity_cost - 1e-15:
        return best
    return identity


def save_mapping(path, perm: np.ndarray) -> None:
    """Write a mapping file: magic line, K line, then 1-based permutation."""
    perm = np.asarray(perm, dtype=np.int64)
    _check_mapping(perm, len(perm))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAPPING_MAGIC}\n")
        fh.write(f"K {len(perm)}\n")
        fh.write(" ".join(str(int(v) + 1) for v in perm) + "\n")


def load_mapping(path, k: int | None = None) -> np.ndarray:
    """Read a mapping file back into a 0-based permutation array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MAPPING_MAGIC:
        raise ValueError(f"{path}: not a mapping file (missing '{_MAPPING_MAGIC}' header)")
    if len(lines) < 3 or not lines[1].startswith("K "):
        raise ValueError(f"{path}: malformed mapping file")
    file_k = int(lines[1].split()[1])
    if k is not None and file_k != k:
        raise ValueError(f"{path}: mapping is for K={file_k}, expected K={k}")
    values = np.array(" ".join(lines[2:]).split(), dtype=np.int64) - 1
    return _check_mapping(values, file_k)
