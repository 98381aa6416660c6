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

__all__ = ["sample_directions"]


def _gaussian_parts(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill out, a real (2, *shape) array, with the real and imaginary parts of
    CN(0, 1) samples and return it; the sweep draws every channel here. All
    real parts come first, then all imaginary parts (the generator fills
    contiguous arrays only), each times 1 / sqrt(2): bit for bit the parts of
    the reference (re + 1j * im) / sqrt(2) of the same two draws."""
    rng.standard_normal(out=out[0])
    rng.standard_normal(out=out[1])
    # numpy divides by the complex c + 0j as x * (1 / c) per part, so this
    # real product gives the same bits as the complex division.
    out *= 1.0 / np.sqrt(2.0)
    return out


def sample_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `count` uniform unit vectors, shape (count, n)."""
    if n < 1:
        raise ValueError(f"direction length must be positive, got {n}")
    if count < 0:
        raise ValueError(f"direction count must be nonnegative, got {count}")
    parts = _gaussian_parts(np.empty((2, count, n)), rng)
    v = np.empty((count, n), dtype=complex)
    v.real, v.imag = parts
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.maximum(norms, 1e-300)
