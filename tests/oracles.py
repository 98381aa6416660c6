"""Naive reference implementations used to cross-check the library.

Everything here is written with plain Python loops and the defining
formulas, deliberately avoiding the vectorized code paths under test.
"""

import itertools

import numpy as np


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


def naive_ml_decode(pod, precoder, y, h, alphabets):
    """Exhaustive search over the candidate product space, lexicographic ties."""
    from podsim.stbc import assemble

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
