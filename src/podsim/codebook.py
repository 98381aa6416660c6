"""Precoder codebooks: representation, projection, and persistence.

A codebook holds K precoders for an n-antenna tail. Only P P^H matters to
the link, so each entry is stored as its Hermitian positive-semidefinite
representative with Frobenius power ||P||_F^2 = n. The eigenvalues delta_k
of that representative describe the transmit power spread: delta_1^2 near n
is beamforming-like, a flat profile is open-loop-like.

Files are line oriented UTF-8 text:

    PODCB 1
    M <int> N <int> K <int> ETA_C <float> RHO_D <float>
    RANGE <f_a> <f_b>
    MARGINALS <K floats>
    P 1
    <N rows of N "re im" pairs>
    ...
    P K
    ...

The RANGE line is written only for a codebook with a design range
(`rho_range`); a file without it loads with no range. Floats carry 17
significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from podsim.feedback import _check_crossover, _num_bits

__all__ = [
    "CodebookError",
    "PrecoderCodebook",
    "eigen_profile",
    "load_codebook",
    "project_psd_power",
    "save_codebook",
]

_MAGIC = "PODCB"
_VERSION = "1"

POWER_TOL = 1e-6
PSD_TOL = -1e-6


class CodebookError(ValueError):
    """Malformed codebook data or file."""


def _check_eta_c(eta_c: float) -> None:
    if not 0.0 <= eta_c < np.inf:
        raise ValueError(f"eta_c must be finite and nonnegative, got {eta_c}")


def _check_design(spec) -> None:
    """The design rule that a codebook and the TrainerConfig writing one share,
    on spec's m, n, k, eta_c, rho_d and rho_range; raises CodebookError."""
    if not 1 <= spec.n <= spec.m:
        raise CodebookError(f"need 1 <= N <= M, got N={spec.n}, M={spec.m}")
    if spec.k < 1:
        raise CodebookError(f"need at least one entry, got K={spec.k}")
    try:
        _num_bits(spec.k)
        _check_eta_c(spec.eta_c)
        _check_crossover(spec.rho_d, "rho_d")
    except ValueError as exc:
        raise CodebookError(str(exc)) from None
    pair = spec.rho_range
    try:
        ok = pair is None or (len(pair) == 2 and 0.0 <= pair[0] <= pair[1] <= 0.5)
    except TypeError:
        ok = False
    if not ok:
        raise CodebookError(f"rho_range must be a pair 0 <= f_a <= f_b <= 0.5, got {pair!r}")


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def project_psd_power(a: np.ndarray, power: float) -> np.ndarray:
    """Nearest-PSD representative rescaled to Frobenius power `power`.

    Symmetrize, clamp negative eigenvalues, then scale the Frobenius norm,
    for one (n, n) matrix or each matrix of a (..., n, n) stack. Before the
    scaling this is the Frobenius-nearest Hermitian PSD matrix. Inputs
    whose PSD part is numerically zero have no valid rescaling and are
    rejected.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh((a + _adjoint(a)) / 2.0)
    psd = (v * np.maximum(w, 0.0)[..., None, :]) @ _adjoint(v)
    psd = (psd + _adjoint(psd)) / 2.0
    norm_sq = np.sum(np.abs(psd) ** 2, axis=(-2, -1), keepdims=True)
    if np.any(norm_sq < 1e-24):
        raise CodebookError("matrix has numerically zero PSD part; cannot normalize power")
    return psd * np.sqrt(power / norm_sq)


@dataclass(frozen=True)
class PrecoderCodebook:
    """K Hermitian PSD precoders with their design metadata, checked when built.

    m: total transmit antennas the codebook was designed for
    matrices: (K, N, N) complex stack; it fixes n, the precoder size
        (quantized tail length), and k, the number of entries, a power of two
    eta_c: design distance-to-noise parameter
    rho_d: design crossover probability
    marginals: entry usage probabilities p(i) estimated during training
    rho_range: optional design range (f_a, f_b), 0 <= f_a <= f_b <= 0.5,
        of the worst-case and average design rules, kept as a tuple of floats

    The codebook keeps read-only copies of matrices and marginals, so no
    edit can undo the check; the validate method only re-checks it.
    """

    m: int
    n: int = field(init=False)
    k: int = field(init=False)
    matrices: np.ndarray
    eta_c: float
    rho_d: float
    marginals: np.ndarray
    rho_range: tuple[float, float] | None = field(default=None)

    def __post_init__(self) -> None:
        mats, marg = np.array(self.matrices), np.array(self.marginals, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise CodebookError(f"matrices must have shape (K, N, N), got {mats.shape}")
        mats.flags.writeable = marg.flags.writeable = False
        for name, value in (("matrices", mats), ("marginals", marg),
                            ("k", mats.shape[0]), ("n", mats.shape[1])):
            object.__setattr__(self, name, value)
        self.validate()
        if self.rho_range is not None:
            object.__setattr__(self, "rho_range", tuple(map(float, self.rho_range)))

    def validate(self) -> None:
        _check_design(self)
        mats, marg = self.matrices, self.marginals
        if not np.all(np.isfinite(mats)):
            raise CodebookError("matrices contain non-finite entries")
        if marg.shape != (self.k,):
            raise CodebookError(f"marginals must have shape ({self.k},), got {marg.shape}")
        if not np.all(np.isfinite(marg)):
            raise CodebookError("marginals contain non-finite entries")
        if marg.min() < -1e-12 or abs(marg.sum() - 1.0) > 1e-6:
            raise CodebookError("marginals must be nonnegative and sum to one")
        for j in range(self.k):
            power = float(np.sum(np.abs(mats[j]) ** 2))
            if abs(power - self.n) > POWER_TOL:
                raise CodebookError(f"entry {j}: Frobenius power {power!r} differs from N={self.n}")
            if np.abs(mats[j] - mats[j].conj().T).max() > 1e-9:
                raise CodebookError(f"entry {j} is not Hermitian")
            min_eig = float(np.linalg.eigvalsh(mats[j]).min())
            if min_eig < PSD_TOL:
                raise CodebookError(f"entry {j}: eigenvalue {min_eig} below PSD tolerance")


def eigen_profile(cb: PrecoderCodebook) -> np.ndarray:
    """Per-entry factor eigenvalues [delta_1 >= ... >= delta_n], shape (k, n).

    P_j P_j^H has eigenvalues delta^2; sum delta^2 = n by the power
    constraint.
    """
    return np.maximum(np.linalg.eigvalsh(cb.matrices)[:, ::-1], 0.0)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_codebook(cb: PrecoderCodebook, path) -> None:
    """Write a codebook in the PODCB 1 text format."""
    lines = [f"{_MAGIC} {_VERSION}"]
    lines.append(
        f"M {cb.m} N {cb.n} K {cb.k} ETA_C {_fmt(cb.eta_c)} RHO_D {_fmt(cb.rho_d)}"
    )
    if cb.rho_range is not None:
        lines.append("RANGE " + " ".join(_fmt(f) for f in cb.rho_range))
    lines.append("MARGINALS " + " ".join(_fmt(v) for v in cb.marginals))
    for j in range(cb.k):
        lines.append(f"P {j + 1}")
        for row in cb.matrices[j]:
            lines.append(" ".join(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(tokens, count, where):
    if len(tokens) != count:
        raise CodebookError(f"{where}: expected {count} numbers, got {len(tokens)}")
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CodebookError(f"{where}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise CodebookError(f"{where}: non-finite value")
    return values


def load_codebook(path) -> PrecoderCodebook:
    """Read and validate a PODCB 1 file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CodebookError(f"{path}: empty file")
    magic = lines[0].split()
    if magic[0] != _MAGIC:
        raise CodebookError(f"{path}: not a codebook file (missing {_MAGIC} header)")
    if magic[1:] != [_VERSION]:
        raise CodebookError(f"{path}: unsupported version {' '.join(magic[1:])!r}")
    if len(lines) < 3:
        raise CodebookError(f"{path}: truncated header")

    head = lines[1].split()
    expected_keys = ["M", "N", "K", "ETA_C", "RHO_D"]
    if len(head) != 10 or head[0::2] != expected_keys:
        raise CodebookError(f"{path}: malformed dimension line {lines[1]!r}")
    try:
        m, n, k = int(head[1]), int(head[3]), int(head[5])
    except ValueError as exc:
        raise CodebookError(f"{path}: {exc}") from None
    eta_c = float(_parse_floats([head[7]], 1, f"{path}: ETA_C")[0])
    rho_d = float(_parse_floats([head[9]], 1, f"{path}: RHO_D")[0])

    rho_range = None
    if lines[2].split()[0] == "RANGE":
        f_a, f_b = _parse_floats(lines[2].split()[1:], 2, f"{path}: RANGE")
        rho_range = (float(f_a), float(f_b))
        lines = lines[:2] + lines[3:]
    if len(lines) < 3:
        raise CodebookError(f"{path}: truncated header")
    marg_tokens = lines[2].split()
    if not marg_tokens or marg_tokens[0] != "MARGINALS":
        raise CodebookError(f"{path}: expected MARGINALS line, got {lines[2]!r}")
    marginals = _parse_floats(marg_tokens[1:], k, f"{path}: MARGINALS")

    body = lines[3:]
    if len(body) != k * (n + 1):
        raise CodebookError(
            f"{path}: expected {k} blocks of {n + 1} lines, got {len(body)} lines"
        )
    matrices = np.empty((k, n, n), dtype=complex)
    pos = 0
    for j in range(k):
        header = body[pos].split()
        if header != ["P", str(j + 1)]:
            raise CodebookError(f"{path}: expected 'P {j + 1}', got {body[pos]!r}")
        pos += 1
        for r in range(n):
            vals = _parse_floats(body[pos].split(), 2 * n, f"{path}: P {j + 1} row {r + 1}")
            matrices[j, r] = vals[0::2] + 1j * vals[1::2]
            pos += 1

    return PrecoderCodebook(
        m=m, matrices=matrices, eta_c=eta_c, rho_d=rho_d, marginals=marginals,
        rho_range=rho_range,
    )
