"""Quasi-static Rayleigh MISO channel sampling.

The transmitter has M antennas and the receiver one. A channel draw is a
vector h in C^M with i.i.d. CN(0, 1) entries (variance 1/2 per real
component), held fixed for one frame.

For feedback purposes the vector splits into an unquantized head and a
quantized tail,

    h = [h_unq^T  h_q^T]^T,   h_unq in C^(M-N),  h_q in C^N,

and the tail is reported through the feedback link as a gain/direction
pair: gamma = ||h_q||^2 (Gamma(N, 1) distributed) and the unit vector
h_q / ||h_q||, which is uniform on the complex N-sphere. The head enters
the error analysis only through theta = ||h_unq||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelDims",
    "ChannelRealization",
    "complex_gaussian",
    "sample_channel",
    "sample_direction",
    "sample_directions",
]


@dataclass(frozen=True)
class ChannelDims:
    """Dimensions of the precoded MISO link.

    m: transmit antennas, m >= 1
    n: quantized tail length (precoder size), 1 <= n <= m
    t: block length of the inner space-time design
    """

    m: int
    n: int
    t: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one antenna, got m={self.m}")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"quantized dim must satisfy 1 <= n <= m, got n={self.n}, m={self.m}")
        if self.t < 1:
            raise ValueError(f"block length must be positive, got t={self.t}")


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw split into feedback-relevant pieces.

    h: full vector, shape (m,)
    h_unq: unquantized head, shape (m - n,)
    h_q: quantized tail, shape (n,)
    gamma: ||h_q||^2
    direction: h_q / ||h_q||, shape (n,)
    theta: ||h_unq||^2
    """

    h: np.ndarray
    h_unq: np.ndarray
    h_q: np.ndarray
    gamma: float
    direction: np.ndarray
    theta: float


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) samples: unit variance per complex entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(dims: ChannelDims, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization and precompute its feedback split."""
    h = complex_gaussian(dims.m, rng)
    head = h[: dims.m - dims.n]
    tail = h[dims.m - dims.n :]
    gamma = float(np.sum(np.abs(tail) ** 2))
    if gamma == 0.0:
        # Probability-zero event; keep the direction well defined anyway.
        direction = np.zeros(dims.n, dtype=complex)
        direction[0] = 1.0
    else:
        direction = tail / np.sqrt(gamma)
    theta = float(np.sum(np.abs(head) ** 2))
    return ChannelRealization(
        h=h, h_unq=head, h_q=tail, gamma=gamma, direction=direction, theta=theta
    )


def sample_direction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector on the complex n-sphere (normalized CN(0, I) draw)."""
    if n < 1:
        raise ValueError(f"direction length must be positive, got {n}")
    v = complex_gaussian(n, rng)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # pragma: no cover - probability zero
        v = complex_gaussian(n, rng)
        norm = np.linalg.norm(v)
    return v / norm


def sample_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `count` uniform unit vectors, shape (count, n)."""
    if n < 1:
        raise ValueError(f"direction length must be positive, got {n}")
    if count < 0:
        raise ValueError(f"direction count must be nonnegative, got {count}")
    v = complex_gaussian((count, n), rng)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, 1e-300)
