"""End-to-end closed-loop link simulation with bit error rate accounting.

Per frame: one quasi-static channel draw; the receiver quantizes the
channel tail direction to a codebook index; the index crosses the noisy
feedback link; the transmitter precodes every block of the frame with the
entry it received; the receiver decodes each block by maximum likelihood,
knowing both the channel and the applied precoder index.

Decoding uses the precoder structure: with Z(s) = B Z_in(s) for the block
diagonal B = diag(I, P), the received statistics satisfy

    Z(s)^H h = Z_in(s)^H h_eff,    h_eff = B^H h = [head; P^H tail],

so the decoder sees the precoder only through h_eff. With Z_in(s) =
sum_c x_c R_c over the real symbol components x_c (R = A_k + B_k for
Re(z_k), i (A_k - B_k) for Im(z_k) of complex alphabets), the ML metric is
x^T Gamma x - 2 x^T r, r_c = Re(u_c^H y), u_c = R_c^H h_eff, and Gamma_cd =
Re(u_c^H u_d) = h_eff^H H_cd h_eff with H_cd = Herm(R_c R_d^H) / 2. Slots
whose components never couple (H_cd = 0, whatever the channel) are searched
on their own (exact ML, ties to the lexicographically first candidate):
single slots for the orthogonal designs, (z1, z3) and (z2, z4) for the
quasi-orthogonal code. The groups are decoded as one batch, so a design
whose groups differ in size is rejected.

Every design here has one fixed real orthogonal basis T, block-diagonal by
slot group, in which Gamma is diagonal for every channel: the off-diagonal
blocks of T^T H T vanish. In components x' = T^T x the metric sees y only
through r' = T^T r = lambda x' + w, with independent w_c ~ N(0, sigma_n2 / 2
lambda_c) and the gains lambda_c = h_eff^H M_c h_eff, M_c the c-th diagonal
block of T^T H T. An orthogonal design (Herm(R_c R_d^H) = 2 delta_cd I:
every real orthogonal design, and alamouti) has T = I and the one gain
||h_eff||^2 (Tarokh-Jafarkhani-Calderbank 1999); qostbc-4 pairs the
components of z1 with those of z3 (z2 with z4) and has two, gamma +- beta
(Jafarkhani 2001). `_group_decoder` derives T and the L distinct M_l from
the coefficient tensors, and rejects a design that no fixed T makes
diagonal.

So the sweep forms none of h, h_eff and y. It draws h as real and imaginary
parts, which the kernel `trainer._features` turns into F(h), and one table
per codebook entry a, g(B_a M_l B_a^H), gives the gains lambda = F(h) .
table[a] (the open loop applies one identity entry); it draws r' = lambda
x' + sqrt(lambda sigma_n2 / 2) xi, D normals per block, and decides in one
product.

The inputs decide what runs: without a codebook the tail is not precoded
(the open loop); a codebook comes with its feedback link and runs the closed
loop, whose error-free limit is the link at rho_f = 0. The encoder quantizes
F(tail) / ||tail||^2, F of the parts' last n columns, at the codebook's
eta_c under its design index channel, the BSC at rho_d, so a codebook is
always run under the channel it was trained for. The codebook's entry order
is its index assignment, so a remapped index assignment is a relabeled
codebook, not a link option; at rho_d > 0 it changes the encoder's choices
even when no index error occurs.

Monte Carlo frames are processed in chunks of _CHUNK_FRAMES frames, the
last one holding the rest. Task i of a sweep is chunk i % n_chunks at SNR point
i // n_chunks, seeded from (seed, point, chunk), so results are identical
for any worker count, and nothing is sized by the frame count. The sweep, or
each worker of a parallel one, runs one contiguous range of tasks through
one scratch, a stack of arrays in one buffer that grows while the first full
chunk runs and that every later chunk and SNR point writes into, and returns
each point's error sum. Fresh (frames, .) blocks per chunk would go back to
the OS between chunks and fault their pages in again, which costs a sweep a
measurable share of its time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import _gaussian_parts
from .codebook import PrecoderCodebook
from .feedback import FeedbackChannel, _check_elements, bsc_inversion_matrix
from .stbc import Constellation, InnerDesign, PodStructure, _slot_alphabets
from .trainer import _coordinates, _decay, _direction_features, _encode, _features, _gram

__all__ = [
    "BerResult",
    "SimulationConfig",
    "candidate_codewords",
    "run_ber_sweep",
    "write_ber_csv",
]

_CHUNK_FRAMES = 2048
_SLAB_METRICS = 1 << 16  # group-candidate metrics per slab of blocks (512 KB)
_SERIAL_MACS = 1 << 18  # OpenBLAS runs a product of fewer multiply-adds on one thread
# A ceiling on any gain lambda = h_eff^H M h_eff, so that a noise variance
# whose product with it is finite draws a finite noise scale. lambda is at
# most 2 n ||h||^2 (||P||_2^2 <= ||P||_F^2 = n, ||M|| <= 2, n <= 8), so 1e6
# would need a normal draw beyond 80 standard deviations in one part of h.
_MAX_GAIN = 1e6

_BER_CSV_HEADER = "snr_db,rho_f,frames,bits_sent,bit_errors,ber,ber_stderr,ber_wilson_low,ber_wilson_high"


def candidate_codewords(
    design: InnerDesign, constellation: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """All codewords of one block, in lexicographic symbol order.

    Returns (symbols, codewords) with shapes (n_cand, n_sym) and
    (n_cand, m, t). Candidate r carries the symbol vector whose slot
    indices are the digits of r in base len(alphabet), most significant
    slot first; ties in decoding resolve to the smallest r.
    """
    alphabets = _slot_alphabets(design, constellation)
    mesh = np.meshgrid(*alphabets, indexing="ij")
    syms = np.stack(mesh, axis=-1).reshape(-1, design.n_sym)
    a, b = design.coefficient_tensors()
    return syms, np.einsum("ck,kmt->cmt", syms, a) + np.einsum("ck,kmt->cmt", syms.conj(), b)


def _serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out for a 2-D a, in row blocks small enough that OpenBLAS
    runs each product on one thread, so pool workers do not starve each
    other."""
    rows = max(1, _SERIAL_MACS // b.size)
    for lo in range(0, len(a), rows):
        np.matmul(a[lo : lo + rows], b, out=out[lo : lo + rows])
    return out


class _Scratch:
    """A stack of arrays that every chunk of one run of chunks reuses.

    take(shape, dtype) hands out the next region of one flat buffer, and
    leaving a scope() hands back every region taken inside it, so steps of a
    chunk whose arrays are never alive together share memory. A region that
    does not fit moves the stack to a buffer twice the size it needs: the
    regions already handed out keep the old buffer alive, and every later
    region starts at or above the top, so none overlaps a live one. A run
    grows the buffer in its first full chunk, and every later chunk and SNR
    point writes into pages that are already mapped.
    """

    _ALIGN = 64  # bytes; every region starts on a cache line

    def __init__(self) -> None:
        self._buf = np.empty(0, np.uint8)
        self._top = 0

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        start, size = self._top, math.prod(shape) * dtype.itemsize
        self._top += -(-size // self._ALIGN) * self._ALIGN
        if self._top > len(self._buf):
            self._buf = np.empty(2 * self._top, np.uint8)
        return self._buf[start : start + size].view(dtype).reshape(shape)

    @contextlib.contextmanager
    def scope(self):
        top = self._top
        try:
            yield
        finally:
            self._top = top


@dataclass(frozen=True)
class _GroupDecoder:
    """Exact ML block decoder of one design and alphabet, split into slot
    groups that the metric never couples (see the module docstring).

    Every group has S slots, C candidates and D_g real components; the D =
    G * D_g components are listed group by group, in the rotated basis x' =
    T^T x where Gamma is diagonal, and component c carries the gain
    lambda_l = h_eff^H M_l h_eff of its class l = component_gain[c].
    """

    slot_groups: np.ndarray  # (G, S) slots of each group, ascending
    rotation: np.ndarray  # (D, D) T, block-diagonal by group: x' = T^T x
    gains: np.ndarray  # (L, m, m) M_l of the L distinct gains
    component_gain: np.ndarray  # (D,) gain class of each rotated component
    lin_map: np.ndarray  # (D, G * C) r' -> -2 x'^T r' of each group candidate, 0 off its group
    cand_gains: np.ndarray  # (L, G * C) sum of x'_c^2 over the class-l components of each
    cand_points: np.ndarray  # (n_cand, D) rotated components x' of each full candidate
    cand_groups: np.ndarray  # (n_cand, G) group candidates of each full candidate
    symbols: np.ndarray  # (G, C, S) slot symbols of each group candidate
    bit_dist: np.ndarray  # (C, C) differing Gray-label bits between group candidates

    def decide(self, r: np.ndarray, quad: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """Group candidates (F, S, G) minimizing x'^T Lambda x' - 2 x'^T r',
        the metric ||y - Z_in^H h_eff||^2 up to a constant, for the rotated
        statistics r', shape (F, S, D), of S blocks per frame and the
        x'^T Lambda x' of every group candidate, quad (F, 1, G * C); ties go
        to the first candidate. The metrics are computed in the scratch."""
        (f, s, d), n_cols = r.shape, self.lin_map.shape[1]
        metric = scratch.take((f, s, n_cols))
        _serial_matmul(r.reshape(-1, d), self.lin_map, metric.reshape(-1, n_cols))
        metric += quad
        metric = metric.reshape(f, s, len(self.symbols), -1)
        if metric.shape[3] == 2:
            # One comparison per group is much cheaper than a row-wise argmin.
            return (metric[..., 1] < metric[..., 0]).astype(np.intp)
        return np.argmin(metric, axis=3)


def _diagonal_basis(herm: np.ndarray) -> np.ndarray:
    """A real orthogonal T for which T^T Gamma(h) T is diagonal for every h
    if one exists, Gamma_cd(h) = h^H herm[c, d] h: the components joined by a
    chain of couplings are rotated by the eigenvectors of one fixed generic
    Gamma, each made positive in its first nonzero entry; an uncoupled
    component keeps its axis. The caller checks the result."""
    d, m = herm.shape[0], herm.shape[2]
    coupled = np.abs(herm).max(axis=(2, 3)) > 1e-9
    joined = np.linalg.matrix_power(coupled.astype(float), d) > 0
    # Gamma(h) = tr(herm h h^H), so tr(herm W) for one generic Hermitian W
    # mixes every Gamma(h); a fixed seed keeps T reproducible.
    re, im = np.random.default_rng(0).standard_normal((2, m, m))
    mixed = np.einsum("cdmn,nm->cd", herm, re + re.T + 1j * (im - im.T)).real
    rotation = np.eye(d)
    for block in {tuple(np.flatnonzero(row)) for row in joined if row.sum() > 1}:
        vecs = np.linalg.eigh(mixed[np.ix_(block, block)])[1]
        vecs *= np.sign(vecs[np.argmax(np.abs(vecs) > 1e-9, axis=0), np.arange(len(block))])
        rotation[np.ix_(block, block)] = vecs
    return rotation


@functools.lru_cache(maxsize=32)
def _group_decoder(design: InnerDesign, constellation: Constellation) -> _GroupDecoder:
    """Derive the slot groups, the rotated basis and its gains, and the
    per-group candidate tables of a design."""
    alphabets = np.array(_slot_alphabets(design, constellation))
    a, b = design.coefficient_tensors()
    # Z_in(z) = sum_k Re(z_k) (A_k + B_k) + Im(z_k) i (A_k - B_k)
    n_parts = 2 if np.any(alphabets.imag) else 1
    parts = np.stack([a + b, 1j * (a - b)], axis=1)[:, :n_parts].reshape(-1, design.m, design.t)
    herm = np.einsum("cmt,dnt->cdmn", parts, parts.conj())
    herm = (herm + herm.conj().swapaxes(-1, -2)) / 2.0  # Gamma_cd(h) = h^H herm[c, d] h
    # Slots couple in Gamma for some channel iff one of their herm blocks is nonzero.
    linked = (np.abs(herm).max(axis=(2, 3)) > 1e-9).reshape(design.n_sym, n_parts, design.n_sym, -1)
    linked = np.linalg.matrix_power(linked.any(axis=(1, 3)).astype(float), design.n_sym) > 0
    groups = sorted({tuple(np.flatnonzero(row).tolist()) for row in linked})
    if len({len(g) for g in groups}) > 1:
        raise ValueError(
            f"{design.kind}: slot groups {groups} differ in size; "
            "the batched decoder needs equal-size groups"
        )
    groups = np.array(groups)
    n_groups, size = groups.shape
    order = (groups[:, :, None] * n_parts + np.arange(n_parts)).ravel()  # group by group
    herm = herm[np.ix_(order, order)]
    rotation = _diagonal_basis(herm)
    rotated = np.einsum("ci,dj,cdmn->ijmn", rotation, rotation, herm)
    d = len(order)
    if np.abs(rotated[~np.eye(d, dtype=bool)]).max(initial=0.0) > 1e-9:
        raise ValueError(f"{design.kind}: no fixed basis makes Gamma diagonal for every channel")
    diag = rotated[np.arange(d), np.arange(d)]
    # Components whose M_c agree share one gain.
    same = np.abs(diag[:, None] - diag[None]).max(axis=(2, 3)) <= 1e-9
    first, component_gain = np.unique(same.argmax(axis=1), return_inverse=True)
    n_alpha = alphabets.shape[1]
    digits = np.array(list(itertools.product(range(n_alpha), repeat=size)))
    full_digits = np.array(list(itertools.product(range(n_alpha), repeat=design.n_sym)))
    cand_groups = full_digits[:, groups] @ n_alpha ** np.arange(size - 1, -1, -1)
    symbols = alphabets[groups[:, None, :], digits[None, :, :]]
    points = np.stack([symbols.real, symbols.imag], axis=-1)[..., :n_parts]
    blocks = rotation.reshape(n_groups, d // n_groups, n_groups, -1)  # T block-diagonal by group
    points = np.einsum("gci,gigj->gcj", points.reshape(n_groups, len(digits), -1), blocks)
    classes = np.eye(len(first))[component_gain].reshape(n_groups, -1, len(first))
    eye, n_cols = np.eye(n_groups), n_groups * len(digits)
    gray = [i ^ (i >> 1) for i in range(n_alpha)]  # the alphabets' Gray labels
    flips = np.array([[bin(i ^ j).count("1") for j in gray] for i in gray])
    tables = _GroupDecoder(
        slot_groups=groups,
        rotation=rotation,
        gains=diag[first],
        component_gain=component_gain,
        lin_map=-2.0 * np.einsum("gh,gci->gihc", eye, points).reshape(-1, n_cols),
        cand_gains=np.einsum("gci,gil->lgc", points**2, classes).reshape(-1, n_cols),
        cand_points=points[np.arange(n_groups), cand_groups].reshape(len(full_digits), -1),
        cand_groups=cand_groups,
        symbols=symbols,
        bit_dist=flips[digits[:, None, :], digits[None, :, :]].sum(axis=2),
    )
    for arr in vars(tables).values():
        arr.flags.writeable = False  # shared by every caller through the cache
    return tables


@dataclass(frozen=True)
class BerResult:
    """Bit error counts at one SNR point, and the BER they give."""

    snr_db: float
    rho_f: float
    frames: int
    bits_sent: int
    bit_errors: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent

    @property
    def ber_stderr(self) -> float:
        """The binomial standard error sqrt(ber (1 - ber) / bits_sent)."""
        return math.sqrt(self.ber * (1.0 - self.ber) / self.bits_sent)


def _noise_variance(m: int, snr_db: float) -> float:
    """sigma_n2 = m / eta0, eta0 = 10^(snr_db / 10), or nan out of float range:
    unit-magnitude symbols put power m into each received sample (m antennas,
    unit-variance coefficients), so the received SNR is exactly eta0."""
    try:
        return m / 10.0 ** (float(snr_db) / 10.0)
    except ArithmeticError:  # 10^(snr_db / 10) overflows, or underflows to 0
        return math.nan


@dataclass(frozen=True)
class SimulationConfig:
    """One BER sweep: link pieces plus Monte Carlo bookkeeping, checked when
    built; the validate method only re-checks it.

    snr_grid_db: SNR points (eta0 in dB), kept as a tuple of floats
    frames: frames per SNR point; one channel draw and one feedback event
        per frame
    pod: code structure (inner design + precoded tail size)
    constellation: symbol alphabet, one the design's decoder can take
    codebook: trained precoder codebook, encoded under the index channel it
        was designed for (the BSC at its rho_d)
    feedback: feedback link that carries the codebook index; error-free
        feedback is the link at rho_f = 0. The closed loop takes a codebook
        and its link together; the open loop takes neither and leaves the
        tail unprecoded
    symbols_per_frame: data symbols per frame; must fill whole blocks. The
        default None becomes 130 rounded down to whole blocks
    seed: master seed for the deterministic per-chunk seed tree
    """

    snr_grid_db: tuple[float, ...]
    frames: int
    pod: PodStructure
    constellation: Constellation
    codebook: PrecoderCodebook | None = None
    feedback: FeedbackChannel | None = None
    symbols_per_frame: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_grid_db", tuple(map(float, self.snr_grid_db)))
        if self.symbols_per_frame is None:
            n_sym = self.pod.inner.n_sym
            object.__setattr__(self, "symbols_per_frame", 130 // n_sym * n_sym)
        self.validate()

    def validate(self) -> None:
        if len(self.snr_grid_db) == 0:
            raise ValueError("need at least one SNR point")
        sigma_n2 = [_noise_variance(self.pod.m, x) for x in self.snr_grid_db]
        if not all(0.0 < s and s * _MAX_GAIN < math.inf for s in sigma_n2):
            raise ValueError("SNR points must be finite, with a positive noise variance "
                             f"m / 10^(snr/10) that stays finite times a gain of {_MAX_GAIN:g}, "
                             f"got {list(self.snr_grid_db)}")
        if self.frames < 1:
            raise ValueError(f"need at least one frame, got {self.frames}")
        n_sym = self.pod.inner.n_sym
        if self.symbols_per_frame < 1 or self.symbols_per_frame % n_sym != 0:
            raise ValueError(
                f"symbols_per_frame must be a positive multiple of {n_sym} "
                f"for {self.pod.inner.kind}, got {self.symbols_per_frame}"
            )
        # The largest array of a sweep: the symbol indices of one chunk.
        _check_elements(f"frames={self.frames} with symbols_per_frame={self.symbols_per_frame}",
                        min(self.frames, _CHUNK_FRAMES) * self.blocks_per_frame)
        _group_decoder(self.pod.inner, self.constellation)  # a cache hit after the first build
        if (self.codebook is None) != (self.feedback is None):
            raise ValueError("a codebook and a feedback channel go together: "
                             "the closed loop takes both, the open loop neither")
        if self.codebook is None:
            return
        if self.codebook.m != self.pod.m or self.codebook.n != self.pod.n:
            raise ValueError(
                f"codebook ({self.codebook.m}, {self.codebook.n}) does not match "
                f"design ({self.pod.m}, {self.pod.n})"
            )
        if self.feedback.k != self.codebook.k:
            raise ValueError(
                f"feedback carries K={self.feedback.k} indices, codebook has K={self.codebook.k}"
            )

    @property
    def blocks_per_frame(self) -> int:
        return self.symbols_per_frame // self.pod.inner.n_sym

    @property
    def rho_f(self) -> float:
        return self.feedback.rho_f if self.feedback is not None else 0.0


def _sampler(decoder: _GroupDecoder, gains: np.ndarray, sigma_n2: float, scratch: _Scratch):
    """(draw, quad) for frames of gains lambda, shape (F, L): draw(tx, rng)
    returns the rotated statistic r' = lambda x' + sqrt(lambda sigma_n2 / 2)
    xi of the blocks whose candidates are tx, shape (F, S), as an (F, S, D)
    array in the scratch; its noise goes back to the scratch, so decide()'s
    metrics reuse memory still in cache. quad holds the x'^T Lambda x' that
    decide() adds. The D normals of each block are drawn block by block, so
    how the blocks are split into calls does not change them."""
    frames, d = len(gains), len(decoder.lin_map)
    quad = scratch.take((frames, 1, decoder.cand_gains.shape[1]))
    _serial_matmul(gains, decoder.cand_gains, quad[:, 0])
    lam = np.take(gains, decoder.component_gain, axis=1, mode="clip",
                  out=scratch.take((frames, d)))
    # The kernel can round a zero gain to a tiny negative value.
    sd = np.maximum(lam, 0.0, out=scratch.take((frames, d)))
    if not math.isfinite(float(sd.max()) * sigma_n2 / 2.0):
        raise ValueError(f"noise variance sigma_n2 / 2 = {sigma_n2 / 2.0} times a gain of "
                         f"{sd.max()} is not finite")
    sd *= sigma_n2 / 2.0
    np.sqrt(sd, out=sd)

    def draw(tx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        slab = tx.shape[1]
        r = np.take(decoder.cand_points, tx, axis=0, mode="clip",
                    out=scratch.take((frames, slab, d)))
        r *= lam[:, None, :]
        with scratch.scope():
            noise = rng.standard_normal(out=scratch.take((slab, frames, d)))
            noise *= sd
            r += noise.transpose(1, 0, 2)
        return r

    return draw, quad


def _block_errors(
    decoder: _GroupDecoder,
    gains: np.ndarray,
    blocks: int,
    sigma_n2: float,
    rng: np.random.Generator,
    scratch: _Scratch,
) -> int:
    """Bit errors of `blocks` uniformly random blocks per frame, sent over
    frames of gains lambda, shape (F, L), and ML decoded."""
    frames = len(gains)
    tx = rng.integers(0, len(decoder.cand_groups), size=(frames, blocks))
    draw, quad = _sampler(decoder, gains, sigma_n2, scratch)
    # Slabs of blocks bound the metric size.
    step = max(1, _SLAB_METRICS // (frames * quad.shape[2]))
    errors = 0
    for b in range(0, blocks, step):
        tx_slab = tx[:, b : b + step]
        with scratch.scope():
            rx = decoder.decide(draw(tx_slab, rng), quad, scratch)
        tx_groups = decoder.cand_groups[tx_slab]
        wrong = rx != tx_groups
        errors += int(decoder.bit_dist[tx_groups[wrong], rx[wrong]].sum())
    return errors


def _precoders(codebook: PrecoderCodebook | None, decoder: _GroupDecoder, m: int) -> tuple:
    """(coords, design_inv, tables): the encoder's coordinates g(P P^H) of
    the codebook's entries and its design index channel (the BSC at its
    rho_d), both None without a codebook, and the gain tables of the entries
    the transmitter applies, g(B_a M_l B_a^H) with B_a = diag(I, P_a), shape
    (K, L, m^2). The open loop applies one identity entry."""
    coords = design_inv = None
    matrices = np.eye(m)[None]
    if codebook is not None:
        matrices = codebook.matrices
        coords = _coordinates(_gram(matrices))
        design_inv = bsc_inversion_matrix(codebook.k, codebook.rho_d)
    k, n = matrices.shape[:2]
    b = np.tile(np.eye(m, dtype=complex), (k, 1, 1, 1))
    b[:, 0, m - n :, m - n :] = matrices
    mixed = b @ decoder.gains @ b.conj().swapaxes(-1, -2)
    tables = _coordinates(mixed.reshape(-1, m, m)).T.reshape(k, -1, m * m)
    return coords, design_inv, np.ascontiguousarray(tables)


def _effective_channels(
    config: SimulationConfig,
    precoders: tuple,
    frames: int,
    rng: np.random.Generator,
    scratch: _Scratch,
) -> np.ndarray:
    """The gains lambda = F(h) . table[a], shape (F, L), of one channel draw
    h per frame through the entry a the transmitter applies: the index the
    feedback link delivers, or 0 in the open loop. h is drawn as its real and
    imaginary parts, and the encoder quantizes F(tail) / ||tail||^2, the
    kernel's features of the parts' tail columns, with `_serial_matmul`, the
    trainer's `_decay` and its `_encode` on the chunk."""
    m, n = config.pod.m, config.pod.n
    coords, design_inv, tables = precoders
    gains = scratch.take((frames, tables.shape[1]))
    with scratch.scope():
        re, im = _gaussian_parts(scratch.take((2, frames, m)), rng)
        feats = _features(re, im, out=scratch.take((m * m, frames)).T)
        if coords is None:
            applied = np.zeros(frames, np.intp)
        else:
            cb = config.codebook
            with scratch.scope():
                dirs = scratch.take((n * n, frames)).T
                tail = feats if n == m else _features(re[:, m - n :], im[:, m - n :], out=dirs)
                q = _serial_matmul(_direction_features(tail, dirs), coords, scratch.take((frames, cb.k)))
                w, t = _decay(q, cb.eta_c, n, out=scratch.take((frames, cb.k)))
                encoded = _encode(w, design_inv, out=t, idx=scratch.take((frames,), np.intp))
                applied = config.feedback.transmit_batch(encoded, rng)
        # take() buffers its output unless the mode is "clip"; every index is in range.
        chosen = np.take(tables, applied, axis=0, mode="clip",
                         out=scratch.take((frames, *tables.shape[1:])))
        np.einsum("flk,fk->fl", chosen, feats, out=gains)
    return gains


def _simulate_chunks(config: SimulationConfig, lo: int, hi: int) -> list[int]:
    """Bit errors of the tasks lo <= i < hi, summed per SNR point. Task i is
    chunk i % n_chunks at point i // n_chunks (see the module docstring). The
    decoder tables and the gain tables are looked up once, and every chunk
    takes its arrays from one scratch, inside one scope, so it starts at the
    bottom of the stack."""
    decoder = _group_decoder(config.pod.inner, config.constellation)
    precoders = _precoders(config.codebook, decoder, config.pod.m)
    n_chunks = -(-config.frames // _CHUNK_FRAMES)
    scratch = _Scratch()
    errors = [0] * len(config.snr_grid_db)
    for task in range(lo, hi):
        point, chunk = divmod(task, n_chunks)
        frames = min(_CHUNK_FRAMES, config.frames - chunk * _CHUNK_FRAMES)
        sigma_n2 = _noise_variance(config.pod.m, config.snr_grid_db[point])
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, point, chunk)))
        with scratch.scope():
            gains = _effective_channels(config, precoders, frames, rng, scratch)
            errors[point] += _block_errors(decoder, gains, config.blocks_per_frame, sigma_n2, rng, scratch)
    return errors


def _worker_count(requested: int, n_tasks: int) -> int:
    """Worker processes worth starting: no more than the tasks or the CPUs
    this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, n_tasks, cpus)


def run_ber_sweep(config: SimulationConfig, workers: int = 1) -> list[BerResult]:
    """Monte Carlo bit error rates over the configured SNR grid.

    Results are independent of `workers`; chunks own disjoint seed
    branches and the error counts add exactly.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    bits_per_frame = (
        config.blocks_per_frame * config.pod.inner.n_sym * config.constellation.bits_per_symbol
    )
    n_tasks = len(config.snr_grid_db) * -(-config.frames // _CHUNK_FRAMES)
    run = functools.partial(_simulate_chunks, config)
    workers = _worker_count(workers, n_tasks)
    if workers == 1:
        sums = [run(0, n_tasks)]
    else:
        # Imported here, not with the module: the process machinery adds about
        # 40 % to podsim's import time, and serial sweeps never use it.
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous range of tasks per worker, so a worker too reuses one scratch.
        bounds = [n_tasks * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(run, bounds[:-1], bounds[1:]))

    bits_sent = config.frames * bits_per_frame
    return [
        BerResult(float(snr_db), config.rho_f, config.frames, bits_sent, errors)
        for snr_db, errors in zip(config.snr_grid_db, map(sum, zip(*sums)))
    ]


def write_ber_csv(path, results: list[BerResult]) -> None:
    """CSV with the exact column set the plotting recipes expect; the last two
    bound the BER by the 95 % Wilson score interval, positive with no errors."""
    z2 = 1.959963984540054**2
    lines = [_BER_CSV_HEADER]
    for r in results:
        n, p = r.bits_sent, r.ber
        half = math.sqrt(z2 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)))
        low, high = ((p + z2 / (2.0 * n) + d) / (1.0 + z2 / n) for d in (-half, half))
        lines.append(
            f"{r.snr_db:.12g},{r.rho_f:.12g},{r.frames},{r.bits_sent},"
            f"{r.bit_errors},{r.ber:.12g},{r.ber_stderr:.12g},{max(low, 0.0):.12g},{high:.12g}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
