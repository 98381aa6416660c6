"""Naive reference implementations used to cross-check the library.

Everything here is written with plain Python loops and the defining
formulas, deliberately avoiding the vectorized code paths under test.
`complex_gaussian` is the reference channel draw. The analytic self-checks
of the bound chain (the conditional Chernoff bound, the per-region bound and
a Monte Carlo check of its two Gamma integrals), the inner codeword `build`
and the precoded codeword `assemble` live here too.
`decode_frames` decides with the sweep's batched decoder from the statistic
r = U^T y that `statistic` forms from the coefficient tensors, rotated into
the decoder's basis, and
`kernel_gamma` gives Gamma from the quadratic-form kernel. `feature_encode`,
`kernel_encode`, `kernel_objective` and `kernel_gradient` drive the
trainer's private passes on one codebook, so tests can compare them with
these references;
`kernel_encode(tail_directions(tail), ...)` is the complex-direction route
that the sweep's encoder on F(tail) / ||tail||^2 must reproduce.
`complex_features` is the feature map F(h) taken with complex products, and
`bincount_evaluation_set` the region-pair table filled by a weighted bincount
over (region, entry) pairs: references for the real-product kernel and the
one-hot product that `podsim.pep` tabulates with.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from podsim.feedback import bsc_inversion_matrix
from podsim.link import _group_decoder, _Scratch
from podsim.pep import EvaluationSet
from podsim.trainer import (
    _coordinates,
    _decay,
    _encode,
    _entry_pass,
    _features,
    _gradients,
    _gram,
    _quadratic_forms,
)


def complex_gaussian(shape, rng):
    """CN(0, 1) samples by the defining formula: all real parts drawn first,
    then all imaginary parts, and (re + 1j * im) / sqrt(2). The reference for
    the channel draw `podsim.channel._gaussian_parts`, and the channels of
    every test that needs complex h."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def build(design, symbols):
    """Evaluate an inner design at a symbol vector, returning its m x t
    codeword. A real design takes real symbols only (imaginary parts up to
    1e-12 are dropped)."""
    z = np.asarray(symbols)
    if z.shape != (design.n_sym,):
        raise ValueError(f"{design.kind} needs {design.n_sym} symbols, got shape {z.shape}")
    if design.is_real:
        if np.iscomplexobj(z) and np.abs(z.imag).max() > 1e-12:
            raise ValueError(f"{design.kind} is a real design; symbols must be real")
        z = z.real.astype(float)
    return design.builder(*z)


def assemble(pod, precoder, symbols):
    """Precoded codeword Z_pod = blockdiag(I_{m-n}, P) Z(symbols): identity on
    the head rows, P on the tail rows. The precoder must be n x n with
    Frobenius power n (tolerance 1e-6)."""
    p = np.asarray(precoder, dtype=complex)
    if p.shape != (pod.n, pod.n):
        raise ValueError(f"precoder must be {pod.n} x {pod.n}, got {p.shape}")
    power = float(np.sum(np.abs(p) ** 2))
    if abs(power - pod.n) > 1e-6:
        raise ValueError(f"precoder power {power:.8f} differs from required {pod.n}")
    z = build(pod.inner, symbols)
    out = z.copy()
    out[pod.inner.m - pod.n :, :] = p @ z[pod.inner.m - pod.n :, :]
    return out


def kernel_features(dirs):
    """The trainer's feature rows F(h) of complex rows h, from their parts."""
    return _features(dirs.real, dirs.imag)


def complex_features(dirs):
    """F(h) = [|h_a|^2, Re(h_a^* h_b), Im(h_a^* h_b) for a < b] of each complex
    row h, the cross terms taken as the complex products conj(h_a) h_b."""
    n = dirs.shape[1]
    out = np.empty((len(dirs), n * n))
    out[:, :n] = dirs.real**2 + dirs.imag**2
    for p, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        cross = dirs[:, a].conj() * dirs[:, b]
        out[:, n + p] = cross.real
        out[:, n + n * (n - 1) // 2 + p] = cross.imag
    return out


def bincount_evaluation_set(cb, feats, eta_c=None):
    """build_evaluation_set with each block added to the table by one weighted
    bincount over its (region, entry) pairs, and the counts by a bincount of
    the regions."""
    eta_c = cb.eta_c if eta_c is None else eta_c
    k = cb.k
    design_inv = bsc_inversion_matrix(k, cb.rho_d)
    counts = np.zeros(k, dtype=np.int64)
    tail = np.zeros(k * k)
    coords = _coordinates(_gram(np.asarray(cb.matrices)))
    for _, q in _quadratic_forms(feats, coords):
        w = _decay(q.copy(), eta_c, cb.n)[0]
        w_enc, t = _decay(q, cb.eta_c, cb.n)
        asg = _encode(w_enc, design_inv, out=t)
        counts += np.bincount(asg, minlength=k)
        tail += np.bincount((asg[:, None] * k + np.arange(k)).ravel(), weights=w.ravel(),
                            minlength=k * k)
    return EvaluationSet(
        occupancy=counts / len(feats),
        tail=tail.reshape(k, k) / len(feats),
        head=0.5 * (1.0 + eta_c) ** (-(cb.m - cb.n)),
    )


def feature_encode(feats, coords, eta_c, n, inv):
    """The encoder index of each feature row, from the trainer's assign pass."""
    asg = np.empty(len(feats), dtype=np.intp)
    _entry_pass(feats, coords, inv, asg, eta_c, n, False)
    return asg


def kernel_encode(dirs, matrices, eta_c, inv):
    """The trainer's encoder index for each direction row, ties to the
    smallest index."""
    coords = _coordinates(_gram(np.asarray(matrices)))
    return feature_encode(kernel_features(dirs), coords, eta_c, dirs.shape[1], inv)


def tail_directions(tail):
    """Unit direction of each tail row, e_1 for a zero row, as complex rows:
    the norm is the square root of the sum of conj(x) x, as np.linalg.norm
    takes it, and the division is complex."""
    norms = np.sqrt(np.sum((np.conj(tail) * tail).real, axis=1, keepdims=True))
    zero = norms[:, 0] == 0
    norms[zero] = 1.0
    dirs = tail / norms
    dirs[zero] = 0.0
    dirs[zero, 0] = 1.0
    return dirs


def kernel_objective(cb, inv, dirs):
    """The trainer's J for the encoder implied by the codebook: the sum of
    the entry values of one assign pass."""
    coords = _coordinates(_gram(np.asarray(cb.matrices)))
    feats, asg = kernel_features(dirs), np.empty(len(dirs), dtype=np.intp)
    return float(np.sum(_entry_pass(feats, coords, inv, asg, cb.eta_c, cb.n, False)[0]))


def kernel_gradient(cb, j, inv, dirs, assignments):
    """The trainer's gradient of J with respect to P_j at fixed assignments:
    one entry pass for entry j, unpacked by _gradients."""
    mats = np.asarray(cb.matrices)[j : j + 1]
    coords = _coordinates(_gram(mats))
    feats = kernel_features(dirs)
    r = _entry_pass(feats, coords, inv, assignments, cb.eta_c, cb.n, True, [j])[1]
    return _gradients(r, mats, cb.eta_c, len(dirs))[0]


def naive_encode(h, matrices, eta_c, n, inv):
    """argmin_i sum_j p(j|i) (1 + eta_c h^H P_j P_j^H h)^-n, ties to smallest i."""
    k = len(matrices)
    w = []
    for j in range(k):
        q = 0.0
        v = matrices[j].conj().T @ h
        for a in range(len(v)):
            q += abs(v[a]) ** 2
        w.append((1.0 + eta_c * q) ** (-n))
    best_i, best_cost = 0, np.inf
    for i in range(k):
        cost = 0.0
        for j in range(k):
            cost += inv[j, i] * w[j]
        if cost < best_cost:
            best_i, best_cost = i, cost
    return best_i


def transmit_reference(indices, k, rho_f, rng):
    """FeedbackChannel.transmit_batch by the defining formula: bit b of each
    index flips where a uniform draw falls below rho_f, the draws one row of
    log2 K per index, bit 0 first."""
    bits = k.bit_length() - 1
    flips = (rng.random((len(indices), bits)) < rho_f).astype(np.int64)
    return np.asarray(indices, dtype=np.int64) ^ (flips << np.arange(bits)).sum(axis=1)


def naive_quadratic_forms(dirs, matrices):
    """q[s, j] = |h_s^H P_j|^2 = h_s^H P_j P_j^H h_s, one row and entry at a time."""
    out = np.empty((len(dirs), len(matrices)))
    for s, h in enumerate(dirs):
        for j, p in enumerate(matrices):
            q = 0.0
            for v in h.conj() @ p:
                q += abs(v) ** 2
            out[s, j] = q
    return out


def naive_objective(dirs, matrices, eta_c, n, inv):
    """J via explicit region means: sum_ij p(j|i) p(i) E_{V_i}[w_j]."""
    k = len(matrices)
    s = len(dirs)
    regions = [[] for _ in range(k)]
    for h in dirs:
        regions[naive_encode(h, matrices, eta_c, n, inv)].append(h)
    total = 0.0
    for i in range(k):
        if not regions[i]:
            continue
        p_i = len(regions[i]) / s
        for j in range(k):
            mean_w = 0.0
            for h in regions[i]:
                q = float(np.sum(np.abs(matrices[j].conj().T @ h) ** 2))
                mean_w += (1.0 + eta_c * q) ** (-n)
            mean_w /= len(regions[i])
            total += inv[j, i] * p_i * mean_w
    return total


def naive_gradient(dirs, matrices, j, eta_c, n, inv, assignments):
    """-2 n eta_c sum_s p(j|a_s)/S (1 + eta_c q_s)^-(n+1) h_s h_s^H P_j."""
    dim = matrices.shape[1]
    acc = np.zeros((dim, dim), dtype=complex)
    s = len(dirs)
    for idx in range(s):
        h = dirs[idx]
        q = float(np.sum(np.abs(matrices[j].conj().T @ h) ** 2))
        scale = inv[j, assignments[idx]] * (1.0 + eta_c * q) ** (-(n + 1))
        acc += scale * np.outer(h, h.conj()) @ matrices[j]
    return -2.0 * n * eta_c / s * acc


def finite_difference_gradient(value_fn, p, step=1e-6):
    """Real-parameterization central differences: d/dRe + i d/dIm per entry."""
    out = np.zeros_like(p, dtype=complex)
    for a in range(p.shape[0]):
        for b in range(p.shape[1]):
            for comp, unit in ((0, 1.0), (1, 1.0j)):
                bump = np.zeros_like(p, dtype=complex)
                bump[a, b] = unit * step
                d = (value_fn(p + bump) - value_fn(p - bump)) / (2.0 * step)
                out[a, b] += d if comp == 0 else 1j * d
    return out


def received_block(pod, precoder, sym, h, sigma_n2, rng):
    """One received block y = Z_pod(sym)^H h + n of length t, with circular
    complex Gaussian noise of total variance sigma_n2 per sample."""
    noise = rng.standard_normal(pod.inner.t) + 1j * rng.standard_normal(pod.inner.t)
    return assemble(pod, precoder, sym).conj().T @ h + math.sqrt(sigma_n2 / 2.0) * noise


def naive_ml_decode(pod, precoder, y, h, alphabets):
    """Exhaustive search over the candidate product space, lexicographic ties."""
    best_sym, best_metric = None, np.inf
    for combo in itertools.product(*[range(len(a)) for a in alphabets]):
        sym = np.array([alphabets[slot][c] for slot, c in enumerate(combo)])
        z = assemble(pod, precoder, sym)
        metric = float(np.sum(np.abs(y - z.conj().T @ h) ** 2))
        if metric < best_metric - 1e-15:
            best_sym, best_metric = sym, metric
    return best_sym


def matched_filter_real_od(design, h, y):
    """Linear per-symbol detector for real orthogonal designs (identity
    precoder): statistic Re(h^H A_k y) recovers symbol k up to scale ||h||^2."""
    a, _ = design.coefficient_tensors()
    stats = np.empty(design.n_sym)
    for k in range(design.n_sym):
        stats[k] = np.real(h.conj() @ a[k] @ y)
    return stats / np.sum(np.abs(h) ** 2)


def components(design, constellation):
    """The (D, m, t) stack of R_c, Z_in = sum_c x_c R_c, in the sweep
    decoder's order: group by group, slot by slot, Re before Im, with R =
    A_k + B_k for Re(z_k) and i (A_k - B_k) for Im(z_k) (only the real part
    when every slot alphabet is real)."""
    decoder = _group_decoder(design, constellation)
    a, b = design.coefficient_tensors()
    n_parts = decoder.cand_points.shape[1] // design.n_sym
    out = []
    for slot in decoder.slot_groups.ravel():
        for part in range(n_parts):
            out.append(a[slot] + b[slot] if part == 0 else 1j * (a[slot] - b[slot]))
    return np.array(out)


def statistic(design, constellation, h_eff, y):
    """(r, Gamma) of each frame from the coefficient tensors: u_c = R_c^H
    h_eff, r_c = Re(u_c^H y) and Gamma_cd = Re(u_c^H u_d), shapes (F, D) and
    (F, D, D)."""
    u = np.einsum("cmt,fm->fct", components(design, constellation).conj(), h_eff)
    r = np.einsum("fct,ft->fc", u.conj(), y).real
    return r, np.einsum("fct,fdt->fcd", u.conj(), u).real


def kernel_gamma(design, constellation, h_eff):
    """Gamma of each frame from the quadratic-form kernel: Gamma_cd =
    h_eff^H Herm(R_c R_d^H) h_eff = F(h_eff) . g((R_c R_d^H + R_d R_c^H) / 2),
    shape (F, D, D)."""
    comps = components(design, constellation)
    prod = np.einsum("cmt,dnt->cdmn", comps, comps.conj())
    herm = (prod + prod.conj().swapaxes(-1, -2)) / 2.0
    coords = _coordinates(herm.reshape(-1, design.m, design.m))
    return (kernel_features(h_eff) @ coords).reshape(len(h_eff), len(comps), len(comps))


def decode_frames(pod, precoders, h, y, constellation):
    """Decisions of the sweep's group decoder on one block per frame: frame f
    has channel h[f], precoder precoders[f] and received block y[f]. It forms
    h_eff = [head; P^H tail] per frame, which the sweep never does; the
    statistic r, rotated into the decoder's basis as T^T r, and the
    candidates' x^T Gamma_g x come from the coefficient tensors, not from
    the sweep's gain tables or sampler, and all F frames are decided in one
    decide call. Returns symbols, shape (F, n_sym)."""
    decoder = _group_decoder(pod.inner, constellation)
    head = pod.m - pod.n
    h_eff = np.array(h, dtype=complex)
    h_eff[:, head:] = (h_eff[:, None, head:] @ np.conj(precoders))[:, 0, :]
    r, gamma = statistic(pod.inner, constellation, h_eff, y)
    quads = candidate_quads(decoder, gamma)
    rx = decoder.decide((r @ decoder.rotation)[:, None, :], quads, _Scratch())[:, 0]
    out = np.empty((len(h_eff), pod.inner.n_sym), dtype=complex)
    out[:, decoder.slot_groups] = decoder.symbols[np.arange(len(decoder.slot_groups)), rx]
    return out


def candidate_quads(decoder, gamma):
    """x^T Gamma_g x of every group candidate x of the decoder, laid out as
    decide() takes it, shape (F, 1, G * C), for Gamma of shape (F, D, D)."""
    n_groups, n_cand, n_slots = decoder.symbols.shape
    points = np.stack([decoder.symbols.real, decoder.symbols.imag], axis=-1)
    points = points[..., : gamma.shape[1] // (n_groups * n_slots)].reshape(n_groups, n_cand, -1)
    size = points.shape[2]
    quad = np.empty((len(gamma), 1, n_groups * n_cand))
    for g in range(n_groups):
        block = gamma[:, g * size : (g + 1) * size, g * size : (g + 1) * size]
        quad[:, 0, g * n_cand : (g + 1) * n_cand] = np.einsum(
            "ci,fij,cj->fc", points[g], block, points[g]
        )
    return quad


def conditional_pep_bound(sigma_n2, d):
    """Chernoff bound (1/2) exp(-d / (4 sigma_n2)), capped at 1/2, on the
    pairwise error probability at squared received distance d under noise
    variance sigma_n2 per complex sample."""
    if not (np.isfinite(sigma_n2) and sigma_n2 > 0.0):
        raise ValueError(f"sigma_n2 must be finite and positive, got {sigma_n2}")
    if not (np.isfinite(d) and d >= 0.0):
        raise ValueError(f"squared distance must be finite and nonnegative, got {d}")
    return min(0.5, 0.5 * math.exp(-d / (4.0 * sigma_n2)))


def region_pep_bound(evset, i, j):
    """Bound on the worst-case pairwise error probability given that the
    receiver quantized into region i and the transmitter used precoder j:
    head tail[i, j] / p(i) of the evaluation set's region-pair table."""
    k = len(evset.occupancy)
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError(f"need region and entry indices in [0, {k}), got ({i}, {j})")
    if evset.occupancy[i] == 0.0:
        raise ValueError(f"region {i} is empty in the evaluation set")
    return float(evset.head * evset.tail[i, j] / evset.occupancy[i])


@dataclass(frozen=True)
class IntegralCheckReport:
    """Monte Carlo vs closed-form comparison for the two Gamma integrals.

    head: E[exp(-eta_c * theta)] over theta ~ Gamma(m - n, 1), closed form
        (1 + eta_c)^{-(m - n)}.
    tail: E[exp(-eta_c * gamma * beta)] over gamma ~ Gamma(n, 1), closed
        form (1 + eta_c * beta)^{-n}.
    """

    head_estimate: float
    head_closed_form: float
    head_stderr: float
    tail_estimate: float
    tail_closed_form: float
    tail_stderr: float

    @property
    def ok(self):
        """Both estimates within three standard errors of the closed forms."""
        for est, ref, se in (
            (self.head_estimate, self.head_closed_form, self.head_stderr),
            (self.tail_estimate, self.tail_closed_form, self.tail_stderr),
        ):
            if abs(est - ref) > 3.0 * se + 1e-15:
                return False
        return True


def closed_form_integrals_check(eta_c, m, n, n_samples, rng, beta=1.0):
    """Monte Carlo check of the two closed-form integrals behind the bounds."""
    if m <= n:
        raise ValueError(f"need m > n for the head integral, got m={m}, n={n}")
    if n_samples < 2:
        raise ValueError(f"need at least two samples, got {n_samples}")

    theta = rng.gamma(shape=m - n, scale=1.0, size=n_samples)
    head = np.exp(-eta_c * theta)
    gamma = rng.gamma(shape=n, scale=1.0, size=n_samples)
    tail = np.exp(-eta_c * gamma * beta)
    root = math.sqrt(n_samples)
    return IntegralCheckReport(
        head_estimate=float(head.mean()),
        head_closed_form=(1.0 + eta_c) ** (-(m - n)),
        head_stderr=float(head.std(ddof=1)) / root,
        tail_estimate=float(tail.mean()),
        tail_closed_form=(1.0 + eta_c * beta) ** (-n),
        tail_stderr=float(tail.std(ddof=1)) / root,
    )
