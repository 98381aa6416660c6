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

import numpy as np

__all__ = ["complex_gaussian", "sample_directions"]


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) samples: unit variance per complex entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `count` uniform unit vectors, shape (count, n)."""
    if n < 1:
        raise ValueError(f"direction length must be positive, got {n}")
    if count < 0:
        raise ValueError(f"direction count must be nonnegative, got {count}")
    v = complex_gaussian((count, n), rng)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, 1e-300)
