"""End-to-end closed-loop link simulation with bit error rate accounting.

Per frame: one quasi-static channel draw; the receiver quantizes the
channel tail direction to a codebook index; the index crosses the noisy
feedback link; the transmitter precodes every block of the frame with the
entry it received; the receiver decodes each block by maximum likelihood,
knowing both the channel and the applied precoder index.

Decoding uses the precoder structure: with Z(s) = B Z_in(s) for the block
diagonal B = diag(I, P), the received statistics satisfy

    Z(s)^H h = Z_in(s)^H h_eff,    h_eff = [head; P^H tail],

so the decoder sees the precoder only through h_eff. With Z_in(s) =
sum_c x_c R_c over the real symbol components x_c (R = A_k + B_k for
Re(z_k), i (A_k - B_k) for Im(z_k) of complex alphabets), the ML metric is
x^T Gamma x - 2 x^T r, Gamma_cd = Re(u_c^H u_d), r_c = Re(u_c^H y), u_c =
R_c^H h_eff. Slots with R_j R_k^H + R_k R_j^H = 0 never couple in Gamma,
whatever the channel, so each slot group is searched on its own (exact ML,
ties to the lexicographically first candidate): single slots for the
orthogonal designs, (z1, z3) and (z2, z4) for the quasi-orthogonal code.
The groups are decoded as one batch, so a design whose groups differ in
size is rejected.

Given h_eff, the metric sees y only through the statistic r = U^T y =
Gamma x + w, w ~ N(0, sigma_n2 / 2 * Gamma), so the sweep draws what the
design lets it draw most cheaply:

* an orthogonal design (Herm(R_c R_d^H) = 2 delta_cd kappa_c I: every real
  orthogonal design, and alamouti) has Gamma = gamma diag(kappa) with the
  frame's one gain gamma = ||h_eff||^2 (Tarokh-Jafarkhani-Calderbank 1999).
  The sweep carries gamma = ||head||^2 + F(tail) . g(P P^H), from the
  features F(tail) the encoder has formed, and never forms h_eff; it draws
  r_c = gamma x_c + sqrt(gamma sigma_n2 / 2) xi_c, D normals per block, in
  components x_c = sqrt(kappa_c) Re/Im(z) of unit gain (kappa_c = 1 on
  every design here);
* any other design (qostbc-4) forms h_eff, draws the received block y, 2t
  normals per block, and projects it, r = U^T y.

Both decide from r in one step. The decoder tables say which kind a design
is; there is no option for it.

The inputs decide what runs: without a codebook the tail is not precoded
(the open loop); a codebook without a feedback link applies the encoder's
index exactly (the genie); a codebook with a feedback link runs the full
closed loop. The encoder quantizes the tail direction, as F(tail) /
||tail||^2, at the codebook's eta_c under its design index channel, the
BSC at rho_d, so a codebook is always run under the channel it was trained
for. The codebook's entry order is its index assignment, so a remapped
index assignment is a relabeled codebook, not a link option; at rho_d > 0
it changes the encoder's choices even when no index error occurs.

Monte Carlo frames are processed in fixed-size chunks, each seeded from
(seed, snr_point, chunk) independently, so results are identical for any
worker count. A sweep runs its chunks through one scratch of preallocated
arrays, sized by its largest chunk, that every chunk and SNR point writes
into; with several workers, each worker runs one contiguous batch of chunks
through its own scratch. Fresh (frames, .) blocks per chunk would go back
to the OS between chunks and fault their pages in again, which costs a
sweep a measurable share of its time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import _complex_gaussian
from .codebook import PrecoderCodebook
from .feedback import FeedbackChannel, bsc_inversion_matrix
from .stbc import Constellation, InnerDesign, PodStructure, _slot_alphabets
from .trainer import _coordinates, _direction_features, _encode_features, _features, _gram

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
    words = np.einsum("ck,kmt->cmt", syms, a)
    if not design.is_real:
        words = words + np.einsum("ck,kmt->cmt", syms.conj(), b)
    return syms, words


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
    chunk whose arrays are never alive together share memory. reset() starts
    a chunk at the bottom of the stack. A region that does not fit is a fresh
    array instead, and the next reset() grows the buffer to the deepest
    stack seen: a run allocates in its first full chunk, and every later
    chunk and SNR point writes into pages that are already mapped.
    """

    _ALIGN = 64  # bytes; every region starts on a cache line

    def __init__(self) -> None:
        self._buf = np.empty(0, np.uint8)
        self._top = 0
        self._depth = 0

    def reset(self) -> None:
        if self._depth > len(self._buf):
            self._buf = np.empty(self._depth, np.uint8)
        self._top = 0

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        start, size = self._top, math.prod(shape) * dtype.itemsize
        self._top += -(-size // self._ALIGN) * self._ALIGN
        self._depth = max(self._depth, self._top)
        if self._top > len(self._buf):
            return np.empty(shape, dtype)
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
    G * D_g components R_c are listed group by group, and vectors in C^t
    are real rows [Re; Im] of length 2t.
    """

    slot_groups: np.ndarray  # (G, S) slots of each group, ascending
    basis: np.ndarray  # (2m, 2t * D) maps the real view of h to u = R^H h as real rows
    lin_map: np.ndarray  # (D, G * C) r -> -2 x^T r of each group candidate, 0 off its group
    quad_map: np.ndarray  # (G * D_g^2, G * C) Gamma_g -> x^T Gamma_g x
    # (G * C,) ||x||^2 of each group candidate, x^T Gamma_g x / gamma, on an
    # orthogonal design (Gamma = gamma I in unit-gain components), else None
    cand_norms: np.ndarray | None
    cand_points: np.ndarray  # (n_cand, D) real components of each full candidate
    cand_groups: np.ndarray  # (n_cand, G) group candidates of each full candidate
    symbols: np.ndarray  # (G, C, S) slot symbols of each group candidate
    bit_dist: np.ndarray  # (C, C) differing Gray-label bits between group candidates

    def frame_terms(self, h_eff: np.ndarray, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
        """Per frame, for a design that draws y: u = R^H h_eff, shape (F, 2t,
        D), and x^T Gamma_g x of every group candidate x, shape (F, 1, G *
        C), Gamma_g = u_g^T u_g; both are taken from the scratch."""
        f, n_groups = len(h_eff), len(self.slot_groups)
        # Stacked (3-D) products keep every BLAS call small and single-threaded.
        u = np.matmul(
            h_eff.view(float)[:, None, :], self.basis,
            out=scratch.take((f, 1, self.basis.shape[1])),
        ).reshape(f, -1, len(self.lin_map))
        ug = u.reshape(*u.shape[:2], n_groups, -1)
        size = ug.shape[3]
        quad = scratch.take((f, 1, self.quad_map.shape[1]))
        with scratch.scope():
            gram = scratch.take((f, n_groups, size, size))
            np.einsum("fkgi,fkgj->fgij", ug, ug, out=gram)
            np.matmul(gram.reshape(f, 1, -1), self.quad_map, out=quad)
        return u, quad

    def decide(self, r: np.ndarray, quad: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """Group candidates (F, S, G) minimizing x^T Gamma x - 2 x^T r, the
        metric ||y - Z_in^H h_eff||^2 up to a constant, for the statistics r
        = U^T y, shape (F, S, D), of S blocks per frame; ties go to the first
        candidate. The metrics are computed in the scratch."""
        (f, s, d), n_cols = r.shape, self.lin_map.shape[1]
        metric = scratch.take((f, s, n_cols))
        if self.cand_norms is None:
            # One product per frame, for the designs that draw y: a flat
            # product rounds differently, and their outputs and pinned counts
            # rest on this rounding.
            np.matmul(r, self.lin_map, out=metric)
        else:
            _serial_matmul(r.reshape(-1, d), self.lin_map, metric.reshape(-1, n_cols))
        metric += quad
        metric = metric.reshape(f, s, len(self.symbols), -1)
        if metric.shape[3] == 2:
            # One comparison per group is much cheaper than a row-wise argmin.
            return (metric[..., 1] < metric[..., 0]).astype(np.intp)
        return np.argmin(metric, axis=3)


@functools.lru_cache(maxsize=32)
def _group_decoder(design: InnerDesign, constellation: Constellation) -> _GroupDecoder:
    """Derive the slot groups and per-group candidate tables of a design."""
    alphabets = np.array(_slot_alphabets(design, constellation))
    a, b = design.coefficient_tensors()
    # Z_in(z) = sum_k Re(z_k) (A_k + B_k) + Im(z_k) i (A_k - B_k)
    parts = np.stack([a + b, 1j * (a - b)], axis=1)[:, : 2 if np.any(alphabets.imag) else 1]
    cross = np.einsum("jpmt,kqnt->jkpqmn", parts, parts.conj())
    # Components c and d couple in Gamma for some channel iff Herm(R_c R_d^H) != 0.
    coupled = np.abs(cross + cross.conj().swapaxes(-1, -2)).max(axis=(4, 5)) > 1e-9
    linked = coupled.any(axis=(2, 3))
    linked = np.linalg.matrix_power(linked.astype(float), design.n_sym) > 0  # joined by a chain
    groups = sorted({tuple(np.flatnonzero(row).tolist()) for row in linked})
    if len({len(g) for g in groups}) > 1:
        raise ValueError(
            f"{design.kind}: slot groups {groups} differ in size; "
            "the batched decoder needs equal-size groups"
        )
    groups = np.array(groups)
    n_groups, size = groups.shape
    n_alpha = alphabets.shape[1]
    digits = np.array(list(itertools.product(range(n_alpha), repeat=size)))
    full_digits = np.array(list(itertools.product(range(n_alpha), repeat=design.n_sym)))
    cand_groups = full_digits[:, groups] @ n_alpha ** np.arange(size - 1, -1, -1)
    symbols = alphabets[groups[:, None, :], digits[None, :, :]]
    points = np.stack([symbols.real, symbols.imag], axis=-1)[..., : parts.shape[1]]
    points = points.reshape(n_groups, len(digits), -1)
    eye, n_cols = np.eye(n_groups), n_groups * len(digits)
    comps = parts[groups].reshape(-1, design.m, design.t)  # R_c, group by group
    # u = R^H h is h^T conj(R): with h_j = 1, then h_j = i, row j gives u as [Re; Im]
    conj = comps.reshape(-1, design.m, 1, design.t).conj().transpose(1, 2, 3, 0)
    basis = np.concatenate([conj, 1j * conj], axis=1)
    # Gamma = ||h||^2 diag(kappa) for every h iff Herm(R_c R_d^H) = 2 delta_cd
    # kappa_c I; in components sqrt(kappa_c) x_c, x^T Gamma_g x = ||h||^2 ||x||^2.
    herm = np.einsum("cmt,dnt->cdmn", comps, comps.conj())
    herm += herm.conj().swapaxes(-1, -2)
    kappa = np.einsum("ccmm->c", herm).real / (2 * design.m)
    want = np.einsum("cd,c,mn->cdmn", np.eye(len(comps)), 2 * kappa, np.eye(design.m))
    cand_norms = None
    if np.allclose(herm, want, rtol=0, atol=1e-9):
        points = points * np.sqrt(kappa).reshape(n_groups, 1, -1)
        cand_norms = (points**2).sum(axis=2).ravel()
    gray = [i ^ (i >> 1) for i in range(n_alpha)]  # the alphabets' Gray labels
    flips = np.array([[bin(i ^ j).count("1") for j in gray] for i in gray])
    tables = _GroupDecoder(
        slot_groups=groups,
        basis=np.concatenate([basis.real, basis.imag], axis=2).reshape(2 * design.m, -1),
        lin_map=-2.0 * np.einsum("gh,gci->gihc", eye, points).reshape(-1, n_cols),
        quad_map=np.einsum("gh,gci,gcj->gijhc", eye, points, points).reshape(-1, n_cols),
        cand_norms=cand_norms,
        cand_points=points[np.arange(n_groups), cand_groups].reshape(len(full_digits), -1),
        cand_groups=cand_groups,
        symbols=symbols,
        bit_dist=flips[digits[:, None, :], digits[None, :, :]].sum(axis=2),
    )
    for arr in vars(tables).values():
        if arr is not None:
            arr.flags.writeable = False  # shared by every caller through the cache
    return tables


@dataclass(frozen=True)
class BerResult:
    """Bit error measurement at one SNR point."""

    snr_db: float
    rho_f: float
    frames: int
    bits_sent: int
    bit_errors: int
    ber: float
    ber_stderr: float

    @classmethod
    def from_counts(
        cls, snr_db: float, rho_f: float, frames: int, bits_sent: int, bit_errors: int
    ) -> "BerResult":
        ber = bit_errors / bits_sent
        stderr = math.sqrt(ber * (1.0 - ber) / bits_sent)
        return cls(snr_db, rho_f, frames, bits_sent, bit_errors, ber, stderr)


@dataclass
class SimulationConfig:
    """One BER sweep: link pieces plus Monte Carlo bookkeeping.

    snr_grid_db: SNR points (eta0 in dB)
    frames: frames per SNR point; one channel draw and one feedback event
        per frame
    pod: code structure (inner design + precoded tail size)
    constellation: symbol alphabet
    codebook: trained precoder codebook, encoded under the index channel it
        was designed for (the BSC at its rho_d); None leaves the tail
        unprecoded (the open loop)
    feedback: noisy feedback link for the codebook index; None delivers the
        index without error (the genie, the perfect-feedback reference that
        tests compare with); needs a codebook
    symbols_per_frame: data symbols per frame; must fill whole blocks. The
        default None becomes 130 rounded down to whole blocks
    seed: master seed for the deterministic per-chunk seed tree
    """

    snr_grid_db: list[float]
    frames: int
    pod: PodStructure
    constellation: Constellation
    codebook: PrecoderCodebook | None = None
    feedback: FeedbackChannel | None = None
    symbols_per_frame: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.symbols_per_frame is None:
            n_sym = self.pod.inner.n_sym
            self.symbols_per_frame = 130 // n_sym * n_sym

    def validate(self) -> None:
        if len(self.snr_grid_db) == 0:
            raise ValueError("need at least one SNR point")
        if not np.all(np.isfinite(self.snr_grid_db)):
            raise ValueError(f"SNR points must be finite, got {list(self.snr_grid_db)}")
        if self.frames < 1:
            raise ValueError(f"need at least one frame, got {self.frames}")
        n_sym = self.pod.inner.n_sym
        if self.symbols_per_frame < 1 or self.symbols_per_frame % n_sym != 0:
            raise ValueError(
                f"symbols_per_frame must be a positive multiple of {n_sym} "
                f"for {self.pod.inner.kind}, got {self.symbols_per_frame}"
            )
        if self.codebook is None:
            if self.feedback is not None:
                raise ValueError("a feedback channel needs a codebook to carry indices of")
            return
        if self.codebook.m != self.pod.m or self.codebook.n != self.pod.n:
            raise ValueError(
                f"codebook ({self.codebook.m}, {self.codebook.n}) does not match "
                f"design ({self.pod.m}, {self.pod.n})"
            )
        if self.feedback is not None and self.feedback.k != self.codebook.k:
            raise ValueError(
                f"feedback carries K={self.feedback.k} indices, codebook has K={self.codebook.k}"
            )

    @property
    def blocks_per_frame(self) -> int:
        return self.symbols_per_frame // self.pod.inner.n_sym

    @property
    def rho_f(self) -> float:
        return self.feedback.rho_f if self.feedback is not None else 0.0


def _sampler(
    decoder: _GroupDecoder, channel: np.ndarray, t: int, sigma_n2: float, scratch: _Scratch
):
    """(draw, quad) for the frames' gamma = ||h_eff||^2, shape (F,), on an
    orthogonal design, else their h_eff, shape (F, m): draw(tx, rng) returns
    the statistic r = U^T y of the t-slot blocks whose candidates are tx,
    shape (F, S), as an (F, S, D) array in the scratch; its other arrays go
    back to the scratch, so decide()'s metrics reuse memory still in cache.
    quad holds the x^T Gamma_g x that decide() adds. An orthogonal design
    draws r itself, D normals per block; any other draws y, 2t normals per
    block, and projects it. Either draws the noise of one call block by
    block, so how the blocks are split into calls does not change it."""
    frames, d = len(channel), len(decoder.lin_map)
    if decoder.cand_norms is None:
        u, quad = decoder.frame_terms(channel, scratch)
        scale = math.sqrt(sigma_n2 / 2.0)

        def draw(tx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            slab = tx.shape[1]
            r = scratch.take((frames, slab, d))
            with scratch.scope():
                noise = rng.standard_normal(out=scratch.take((slab, 2, frames, t)))
                noise *= scale
                # y = Z_in(s)^H h_eff + n = sum_c x_c u_c + n, as real rows [Re; Im]
                points = np.take(decoder.cand_points, tx, axis=0, mode="clip",
                                 out=scratch.take((frames, slab, d)))
                y = np.matmul(points, u.swapaxes(1, 2), out=scratch.take((frames, slab, 2 * t)))
                y_parts = y.reshape(frames, -1, 2, t)
                y_parts += noise.transpose(2, 0, 1, 3)
                return np.matmul(y, u, out=r)

        return draw, quad

    gamma = channel[:, None, None]
    quad = np.multiply(gamma, decoder.cand_norms,
                       out=scratch.take((frames, 1, len(decoder.cand_norms))))
    # The kernel can round a zero gain to a tiny negative value.
    sd = np.maximum(gamma[:, 0], 0.0, out=scratch.take((frames, 1)))
    sd *= sigma_n2 / 2.0
    np.sqrt(sd, out=sd)

    def draw(tx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        slab = tx.shape[1]
        # r_c = gamma x_c + sqrt(gamma sigma_n2 / 2) xi_c
        r = np.take(decoder.cand_points, tx, axis=0, mode="clip",
                    out=scratch.take((frames, slab, d)))
        r *= gamma
        with scratch.scope():
            noise = rng.standard_normal(out=scratch.take((slab, frames, d)))
            noise *= sd
            r += noise.transpose(1, 0, 2)
        return r

    return draw, quad


def _block_errors(
    decoder: _GroupDecoder,
    channel: np.ndarray,
    t: int,
    blocks: int,
    sigma_n2: float,
    rng: np.random.Generator,
    scratch: _Scratch,
) -> int:
    """Bit errors of `blocks` uniformly random t-slot blocks per frame, sent
    over the frames' channels (as _sampler takes them) and ML decoded."""
    frames = len(channel)
    tx = rng.integers(0, len(decoder.cand_groups), size=(frames, blocks))
    draw, quad = _sampler(decoder, channel, t, sigma_n2, scratch)
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


def _precoders(codebook: PrecoderCodebook, gain: bool) -> tuple:
    """A codebook's coordinates g(P P^H), design index channel (the BSC at
    its rho_d) and entries as the transmitter applies them: the rows
    g(P_j P_j^H) for a gain, else conj(P_j)."""
    matrices = np.asarray(codebook.matrices)
    coords = _coordinates(_gram(matrices))
    entries = np.ascontiguousarray(coords.T) if gain else matrices.conj()
    return coords, bsc_inversion_matrix(codebook.k, codebook.rho_d), entries


def _effective_channels(
    config: SimulationConfig,
    precoders: tuple | None,
    frames: int,
    gain: bool,
    rng: np.random.Generator,
    scratch: _Scratch,
) -> np.ndarray:
    """One channel draw per frame through the entry P the transmitter applies
    (h itself without a codebook, precoders None): h_eff = [head; P^H tail],
    shape (F, m), or with gain gamma = ||h_eff||^2, shape (F,)."""
    m, n = config.pod.m, config.pod.n
    h = scratch.take((frames, m), complex)
    with scratch.scope():
        _complex_gaussian(h, scratch.take((2, frames, m)), rng)
    if precoders is None:
        parts = h.view(float)
        return np.einsum("ij,ij->i", parts, parts, out=scratch.take((frames,))) if gain else h
    coords, design_inv, entries = precoders
    cb = config.codebook
    tail = h[:, m - n :]
    gamma = scratch.take((frames,)) if gain else None
    # Each array dies right after its last use (passed on unnamed, or
    # deleted), so a chunk run before the scratch has grown holds no more
    # fresh arrays at once than the scratch will.
    with scratch.scope():
        applied = scratch.take((frames,), np.intp)
        feats = _features(tail.real, tail.imag, out=scratch.take((n * n, frames)).T)
        with scratch.scope():
            _encode_features(
                _direction_features(feats, scratch.take((n * n, frames)).T), coords, cb.eta_c, n,
                design_inv, (scratch.take((frames, cb.k)), scratch.take((frames, cb.k)), applied),
            )
        if config.feedback is not None:
            applied = config.feedback.transmit_batch(applied, rng)
        # take() buffers its output unless the mode is "clip"; every index is in range.
        chosen = np.take(entries, applied, axis=0, mode="clip",
                         out=scratch.take((frames, *entries.shape[1:]), entries.dtype))
        if gain:
            np.einsum("ij,ij->i", chosen, feats, out=gamma)
            if m > n:
                head = h[:, : m - n].view(float)
                gamma += np.einsum("ij,ij->i", head, head, out=scratch.take((frames,)))
            return gamma
        precoded = np.matmul(tail[:, None, :], chosen, out=scratch.take((frames, 1, n), complex))
        del chosen
        tail[:] = precoded[:, 0, :]
    return h


def _simulate_chunks(config: SimulationConfig, tasks: list[tuple]) -> list[int]:
    """Bit errors of each (point_idx, chunk_idx, frames, sigma_n2) task, in
    task order. The codebook's precoders and the decoder tables are looked
    up once, and every chunk takes its arrays from one scratch. No array of
    a chunk outlives it, so the scratch grows after the first full chunk
    without holding that chunk's arrays as well."""
    decoder = _group_decoder(config.pod.inner, config.constellation)
    gain = decoder.cand_norms is not None
    precoders = None if config.codebook is None else _precoders(config.codebook, gain)
    t, blocks = config.pod.t, config.blocks_per_frame
    scratch = _Scratch()
    counts = []
    for point_idx, chunk_idx, frames, sigma_n2 in tasks:
        scratch.reset()
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, point_idx, chunk_idx)))
        channel = _effective_channels(config, precoders, frames, gain, rng, scratch)
        counts.append(_block_errors(decoder, channel, t, blocks, sigma_n2, rng, scratch))
        del channel  # before the next reset(), which may replace the buffer it lives in
    return counts


def _chunk_plan(frames: int) -> list[int]:
    sizes = [_CHUNK_FRAMES] * (frames // _CHUNK_FRAMES)
    if frames % _CHUNK_FRAMES:
        sizes.append(frames % _CHUNK_FRAMES)
    return sizes


def _worker_count(requested: int, n_tasks: int) -> int:
    """Worker processes worth starting: no more than the tasks or the cores."""
    return min(requested, n_tasks, os.cpu_count() or 1)


def run_ber_sweep(config: SimulationConfig, workers: int = 1) -> list[BerResult]:
    """Monte Carlo bit error rates over the configured SNR grid.

    Results are independent of `workers`; chunks own disjoint seed
    branches and the error counts add exactly.
    """
    config.validate()
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    bits_per_frame = (
        config.blocks_per_frame * config.pod.inner.n_sym * config.constellation.bits_per_symbol
    )
    plan = _chunk_plan(config.frames)

    tasks = []
    for p_idx, snr_db in enumerate(config.snr_grid_db):
        # Unit-magnitude symbols put power m into each received sample (m
        # antennas, unit-variance coefficients), so sigma_n2 = m / eta0 makes
        # the received SNR exactly eta0.
        sigma_n2 = config.pod.m / 10.0 ** (snr_db / 10.0)
        for c_idx, size in enumerate(plan):
            tasks.append((p_idx, c_idx, size, sigma_n2))

    run = functools.partial(_simulate_chunks, config)
    workers = _worker_count(workers, len(tasks))
    if workers == 1:
        counts = run(tasks)
    else:
        # Imported here, not with the module: the process machinery adds about
        # 40 % to podsim's import time, and serial sweeps never use it.
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous batch of tasks per worker, so a worker too reuses one scratch.
        bounds = [len(tasks) * w // workers for w in range(workers + 1)]
        batches = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = [c for batch in pool.map(run, batches) for c in batch]

    results = []
    per_point = len(plan)
    for p_idx, snr_db in enumerate(config.snr_grid_db):
        errors = sum(counts[p_idx * per_point : (p_idx + 1) * per_point])
        results.append(
            BerResult.from_counts(
                snr_db=float(snr_db),
                rho_f=config.rho_f,
                frames=config.frames,
                bits_sent=config.frames * bits_per_frame,
                bit_errors=errors,
            )
        )
    return results


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
