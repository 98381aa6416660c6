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

The inputs decide what runs: without a codebook the tail is not precoded
(the open loop); a codebook without a feedback link applies the encoder's
index exactly (the genie); a codebook with a feedback link runs the full
closed loop. The codebook's entry order is its index assignment, so a
remapped index assignment is a relabeled codebook, not a link option.

Monte Carlo frames are processed in fixed-size chunks, each seeded from
(seed, snr_point, chunk) independently, so results are identical for any
worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import complex_gaussian
from .codebook import PrecoderCodebook
from .feedback import FeedbackChannel, bsc_inversion_matrix
from .stbc import Constellation, InnerDesign, PodStructure, gray_code, slot_alphabets
from .trainer import encode_batch

__all__ = [
    "BER_CSV_HEADER",
    "BerResult",
    "SimulationConfig",
    "candidate_codewords",
    "noise_variance",
    "run_ber_sweep",
    "write_ber_csv",
]

_CHUNK_FRAMES = 2048
_SLAB_METRICS = 1 << 16  # group-candidate metrics per slab of blocks (512 KB)

BER_CSV_HEADER = "snr_db,rho_f,frames,bits_sent,bit_errors,ber,ber_stderr"


def noise_variance(m: int, snr_db: float) -> float:
    """Per-complex-sample noise variance for regulated received SNR eta0.

    Unit-magnitude symbols put average power m into each received sample
    (m antennas, unit-variance coefficients), so sigma_n2 = m / eta0 makes
    the received SNR exactly eta0.
    """
    return m / 10.0 ** (snr_db / 10.0)


def candidate_codewords(
    design: InnerDesign, constellation: Constellation
) -> tuple[np.ndarray, np.ndarray]:
    """All codewords of one block, in lexicographic symbol order.

    Returns (symbols, codewords) with shapes (n_cand, n_sym) and
    (n_cand, m, t). Candidate r carries the symbol vector whose slot
    indices are the digits of r in base len(alphabet), most significant
    slot first; ties in decoding resolve to the smallest r.
    """
    alphabets = slot_alphabets(design, constellation)
    mesh = np.meshgrid(*alphabets, indexing="ij")
    syms = np.stack(mesh, axis=-1).reshape(-1, design.n_sym)
    a, b = design.coefficient_tensors()
    words = np.einsum("ck,kmt->cmt", syms, a)
    if not design.is_real:
        words = words + np.einsum("ck,kmt->cmt", syms.conj(), b)
    return syms, words


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
    cand_points: np.ndarray  # (n_cand, D) real components of each full candidate
    cand_groups: np.ndarray  # (n_cand, G) group candidates of each full candidate
    symbols: np.ndarray  # (G, C, S) slot symbols of each group candidate
    bit_dist: np.ndarray  # (C, C) differing Gray-label bits between group candidates

    def frame_terms(self, h_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per frame: u = R^H h_eff, shape (F, 2t, D), and x^T Gamma_g x of
        every group candidate x, shape (F, 1, G * C), Gamma_g = u_g^T u_g."""
        # Stacked (3-D) products keep every BLAS call small and single-threaded.
        u = (h_eff.view(float)[:, None, :] @ self.basis).reshape(len(h_eff), -1, len(self.lin_map))
        ug = u.reshape(*u.shape[:2], len(self.slot_groups), -1)
        gram = np.einsum("fkgi,fkgj->fgij", ug, ug).reshape(len(u), 1, -1)
        return u, gram @ self.quad_map

    def decide(self, u: np.ndarray, quad: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Group candidates (F, S, G) minimizing ||y - Z_in^H h_eff||^2 over
        S blocks y, shape (F, S, 2t), per frame; ties go to the first candidate."""
        metric = ((y @ u) @ self.lin_map + quad).reshape(*y.shape[:2], len(self.symbols), -1)
        if metric.shape[3] == 2:
            # One comparison per group is much cheaper than a row-wise argmin.
            return (metric[..., 1] < metric[..., 0]).astype(np.intp)
        return np.argmin(metric, axis=3)


@functools.lru_cache(maxsize=32)
def _group_decoder(design: InnerDesign, constellation: Constellation) -> _GroupDecoder:
    """Derive the slot groups and per-group candidate tables of a design."""
    alphabets = np.array(slot_alphabets(design, constellation))
    a, b = design.coefficient_tensors()
    # Z_in(z) = sum_k Re(z_k) (A_k + B_k) + Im(z_k) i (A_k - B_k)
    parts = np.stack([a + b, 1j * (a - b)], axis=1)[:, : 2 if np.any(alphabets.imag) else 1]
    cross = np.einsum("jpmt,kqnt->jkpqmn", parts, parts.conj())
    linked = np.abs(cross + cross.conj().swapaxes(-1, -2)).max(axis=(2, 3, 4, 5)) > 1e-9
    linked = np.linalg.matrix_power(linked.astype(float), design.n_sym) > 0  # joined by a chain
    groups = sorted({tuple(np.flatnonzero(row)) for row in linked})
    if len({len(g) for g in groups}) > 1:
        # Batched decoding needs equal-size groups; one group is still exact.
        groups = [tuple(range(design.n_sym))]
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
    # u = R^H h is h^T conj(R): with h_j = 1, then h_j = i, row j gives u as [Re; Im]
    conj = parts[groups].reshape(-1, design.m, 1, design.t).conj().transpose(1, 2, 3, 0)
    basis = np.concatenate([conj, 1j * conj], axis=1)
    gray = [gray_code(i) for i in range(n_alpha)]
    flips = np.array([[bin(i ^ j).count("1") for j in gray] for i in gray])
    tables = _GroupDecoder(
        slot_groups=groups,
        basis=np.concatenate([basis.real, basis.imag], axis=2).reshape(2 * design.m, -1),
        lin_map=-2.0 * np.einsum("gh,gci->gihc", eye, points).reshape(-1, n_cols),
        quad_map=np.einsum("gh,gci,gcj->gijhc", eye, points, points).reshape(-1, n_cols),
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
        return cls(
            snr_db=snr_db,
            rho_f=rho_f,
            frames=frames,
            bits_sent=bits_sent,
            bit_errors=bit_errors,
            ber=ber,
            ber_stderr=stderr,
        )


@dataclass
class SimulationConfig:
    """One BER sweep: link pieces plus Monte Carlo bookkeeping.

    snr_grid_db: SNR points (eta0 in dB)
    frames: frames per SNR point; one channel draw and one feedback event
        per frame
    pod: code structure (inner design + precoded tail size)
    constellation: symbol alphabet
    codebook: trained precoder codebook; None leaves the tail unprecoded
        (the open loop)
    feedback: noisy feedback link for the codebook index; None delivers the
        index without error (the genie); needs a codebook
    symbols_per_frame: data symbols per frame; must fill whole blocks
    seed: master seed for the deterministic per-chunk seed tree
    """

    snr_grid_db: list[float]
    frames: int
    pod: PodStructure
    constellation: Constellation
    codebook: PrecoderCodebook | None = None
    feedback: FeedbackChannel | None = None
    symbols_per_frame: int = 130
    seed: int = 0

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


def _simulate_chunk(
    config: SimulationConfig,
    design_inv: np.ndarray | None,
    point_idx: int,
    chunk_idx: int,
    n_frames: int,
    sigma_n2: float,
) -> int:
    """Bit errors over one chunk of frames at one SNR point."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, point_idx, chunk_idx)))
    pod = config.pod
    m, n, t = pod.m, pod.n, pod.t
    blocks = config.blocks_per_frame
    decoder = _group_decoder(pod.inner, config.constellation)

    h = complex_gaussian((n_frames, m), rng)
    h_eff = h.copy()
    if config.codebook is not None:
        tail = h[:, m - n :]
        norms = np.linalg.norm(tail, axis=1, keepdims=True)
        dirs = np.where(norms > 0, tail / np.where(norms == 0, 1.0, norms), 0.0)
        dirs[norms[:, 0] == 0, 0] = 1.0
        matrices = np.asarray(config.codebook.matrices)
        applied = encode_batch(dirs, matrices, config.codebook.eta_c, design_inv)
        if config.feedback is not None:
            applied = config.feedback.transmit_batch(applied, rng)
        h_eff[:, m - n :] = (tail[:, None, :] @ matrices.conj()[applied])[:, 0, :]

    tx = rng.integers(0, len(decoder.cand_groups), size=(n_frames, blocks))
    u, quad = decoder.frame_terms(h_eff)
    scale = math.sqrt(sigma_n2 / 2.0)
    # Slabs of blocks bound the metric size; one noise draw per slab keeps the per-block order.
    step = max(1, _SLAB_METRICS // (n_frames * quad.shape[2]))
    errors = 0
    for b in range(0, blocks, step):
        tx_slab = tx[:, b : b + step]
        noise = scale * rng.standard_normal((tx_slab.shape[1], 2, n_frames, t))
        # y = Z_in(s)^H h_eff + n = sum_c x_c u_c + n, as real rows [Re; Im]
        y = decoder.cand_points[tx_slab] @ u.swapaxes(1, 2)
        y_parts = y.reshape(n_frames, -1, 2, t)
        y_parts += noise.transpose(2, 0, 1, 3)
        rx = decoder.decide(u, quad, y)
        tx_groups = decoder.cand_groups[tx_slab]
        wrong = rx != tx_groups
        errors += int(decoder.bit_dist[tx_groups[wrong], rx[wrong]].sum())
    return errors


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
    design_inv = None
    if config.codebook is not None:
        design_inv = bsc_inversion_matrix(config.codebook.k, config.codebook.rho_d)
    bits_per_frame = (
        config.blocks_per_frame * config.pod.inner.n_sym * config.constellation.bits_per_symbol
    )
    plan = _chunk_plan(config.frames)

    tasks = []
    for p_idx, snr_db in enumerate(config.snr_grid_db):
        sigma_n2 = noise_variance(config.pod.m, snr_db)
        for c_idx, size in enumerate(plan):
            tasks.append((config, design_inv, p_idx, c_idx, size, sigma_n2))

    workers = _worker_count(workers, len(tasks))
    if workers == 1:
        counts = [_simulate_chunk(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_simulate_chunk, *zip(*tasks), chunksize=1))

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
    """CSV with the exact column set the plotting recipes expect."""
    lines = [BER_CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.snr_db:.12g},{r.rho_f:.12g},{r.frames},{r.bits_sent},"
            f"{r.bit_errors},{r.ber:.12g},{r.ber_stderr:.12g}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
