"""Inner space-time block designs and the precoded structure built on them.

All code matrices Z are m x t (antenna rows, time columns) and the receive
model is y = Z^H h + n. Real orthogonal designs satisfy

    Z Z^T = (z1^2 + ... + zq^2) I_m,

so codeword differences are orthogonal for any symbol error. The 4x4
rate-one real design used throughout is

        [ z1 -z2 -z3 -z4 ]
    Z = [ z2  z1  z4 -z3 ]
        [ z3 -z4  z1  z2 ]
        [ z4  z3 -z2  z1 ]

and the 8x8 rate-one real design is its octonion-table analogue. A 6x8
rate-one design for six antennas is obtained by dropping the last two rows
of the 8x8 matrix (any row subset of an orthogonal design stays
orthogonal).

The partly orthogonal construction splits the antennas into an unprecoded
head and a precoded tail: a precoder P (n x n, Frobenius power n) multiplies
the per-column sub-vectors of the last n rows,

    Z_pod = blockdiag(I_{m-n}, P) Z.

For n = 2 on the 4x4 design this precodes the column sub-vectors
(z3, z4), (-z4, z3), (z1, -z2), (z2, z1); for n = 4 it precodes whole
columns. The link never forms Z_pod: it folds P into the effective channel
(see `podsim.link`).

The quasi-orthogonal 4x4 code stacks two Alamouti blocks so that the ML
metric separates over the symbol pairs (z1, z3) and (z2, z4); full
diversity requires the second symbol of each pair to come from a rotated
alphabet, which the QPSK constellation here applies to z3 and z4.

Each design is stated once, as its builder: a function of the n_sym symbols
that returns Z. `InnerDesign` reads the shape and realness off the builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constellation",
    "InnerDesign",
    "PodStructure",
    "get_design",
]


def _od2(z1, z2):
    return np.array([[z1, -z2], [z2, z1]], dtype=complex)


def _od4(z1, z2, z3, z4):
    return np.array(
        [
            [z1, -z2, -z3, -z4],
            [z2, z1, z4, -z3],
            [z3, -z4, z1, z2],
            [z4, z3, -z2, z1],
        ],
        dtype=complex,
    )


def _od8(z1, z2, z3, z4, z5, z6, z7, z8):
    # Antenna rows = columns of the standard time-indexed 8x8 table.
    time_rows = np.array(
        [
            [z1, z2, z3, z4, z5, z6, z7, z8],
            [-z2, z1, z4, -z3, z6, -z5, -z8, z7],
            [-z3, -z4, z1, z2, z7, z8, -z5, -z6],
            [-z4, z3, -z2, z1, z8, -z7, z6, -z5],
            [-z5, -z6, -z7, -z8, z1, z2, z3, z4],
            [-z6, z5, -z8, z7, -z2, z1, -z4, z3],
            [-z7, z8, z5, -z6, -z3, z4, z1, -z2],
            [-z8, -z7, z6, z5, -z4, -z3, z2, z1],
        ],
        dtype=complex,
    )
    return time_rows.T


def _od6x8(*z):
    return _od8(*z)[:6, :]


def _alamouti(z1, z2):
    return np.array([[z1, -np.conj(z2)], [z2, np.conj(z1)]], dtype=complex)


def _qostbc4(z1, z2, z3, z4):
    c = np.conj
    # Two stacked Alamouti blocks, slot order chosen so the ML metric
    # separates over the pairs (z1, z3) and (z2, z4).
    time_rows = np.array(
        [
            [z1, z2, z4, z3],
            [-c(z2), c(z1), -c(z3), c(z4)],
            [-c(z4), -c(z3), c(z1), c(z2)],
            [z3, -z4, -z2, z1],
        ],
        dtype=complex,
    )
    return time_rows.conj().T


@dataclass(frozen=True)
class InnerDesign:
    """One inner block design: a kind name and the builder that maps its
    n_sym symbols, one argument each, to the codeword Z. The shape m x t and
    is_real (Z takes no conjugate) are read off one probe of the builder.

    rotated_slots lists the symbol positions that take the rotated alphabet
    when a rotated constellation is used (quasi-orthogonal designs only).
    """

    kind: str
    n_sym: int
    builder: callable = field(repr=False, compare=False)
    rotated_slots: tuple[int, ...] = ()
    m: int = field(init=False)
    t: int = field(init=False)
    is_real: bool = field(init=False)

    def __post_init__(self) -> None:
        a, b = self.coefficient_tensors()
        for name, value in (("m", a.shape[1]), ("t", a.shape[2]), ("is_real", not b.any())):
            object.__setattr__(self, name, value)

    def coefficient_tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """Tensors (A, B) with Z(z) = sum_k z_k A_k + conj(z_k) B_k.

        Probed from the builder at unit and imaginary-unit symbol vectors;
        a real design takes no conjugate, so its B comes out exactly 0.
        """
        units = np.eye(self.n_sym, dtype=complex)
        z_real = np.array([self.builder(*e) for e in units])
        z_imag = np.array([self.builder(*(1j * e)) for e in units])
        return (z_real - 1j * z_imag) / 2.0, (z_real + 1j * z_imag) / 2.0


_REGISTRY = {d.kind: d for d in (
    InnerDesign("real-od-2", 2, _od2),
    InnerDesign("real-od-4", 4, _od4),
    InnerDesign("real-od-8", 8, _od8),
    InnerDesign("real-od-6x8", 8, _od6x8),
    InnerDesign("alamouti", 2, _alamouti),
    InnerDesign("qostbc-4", 4, _qostbc4, rotated_slots=(2, 3)),
)}


def get_design(kind: str) -> InnerDesign:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown design kind {kind!r}; choose from {sorted(_REGISTRY)}") from None


@dataclass(frozen=True)
class PodStructure:
    """Inner design plus the size n of the precoded antenna tail."""

    inner: InnerDesign
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.inner.m:
            raise ValueError(f"precoded tail must satisfy 1 <= n <= {self.inner.m}, got {self.n}")

    @property
    def m(self) -> int:
        return self.inner.m


@dataclass(frozen=True)
class Constellation:
    """Symbol alphabet: 'bpsk' is {+1, -1}; 'qpsk-rot' is unit-magnitude
    QPSK with Gray labels, where a design's rotated slots take the alphabet
    multiplied by exp(i pi/4)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("bpsk", "qpsk-rot"):
            raise ValueError(f"unknown constellation kind {self.kind!r}")

    @property
    def bits_per_symbol(self) -> int:
        return 1 if self.kind == "bpsk" else 2

    def base_alphabet(self) -> np.ndarray:
        if self.kind == "bpsk":
            return np.array([1.0, -1.0], dtype=complex)
        # Index k carries Gray label k ^ (k >> 1); neighbours differ in one bit.
        return np.exp(1j * np.pi / 2 * np.arange(4))


def _slot_alphabets(design: InnerDesign, constellation: Constellation) -> list[np.ndarray]:
    """Per-slot alphabets for one block of the design."""
    if design.is_real and constellation.kind != "bpsk":
        raise ValueError(f"{design.kind} carries real symbols; use the bpsk constellation")
    base = constellation.base_alphabet()
    rotated = base * np.exp(1j * np.pi / 4)
    rotate = constellation.kind == "qpsk-rot"
    return [rotated if rotate and slot in design.rotated_slots else base
            for slot in range(design.n_sym)]
