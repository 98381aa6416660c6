"""Precoder codebook training against noisy index feedback.

Training follows the channel-optimized vector quantizer pattern: the
receiver-side encoder and the transmit precoders are optimized alternately
against the objective

    J = sum_i sum_j p_f(j|i) p(i) E_{h in V_i}[ (1 + eta_c h^H P_j P_j^H h)^-n ],

an upper-bound proxy for the average pairwise error probability. p(i) E[.]
is always the empirical average over an n_train set of unit direction
vectors, so J equals the training-set mean of the encoder cost at the
chosen index.

Per round: (1) every training vector is assigned the index with minimal
expected cost under the feedback error distribution, (2) each precoder
takes a few projected gradient steps,

    grad J(P_j) = -2 n eta_c sum_i p_f(j|i) p(i)
                  E_{V_i}[ (1 + eta_c h^H P_j P_j^H h)^-(n+1) h h^H P_j ],

with diminishing step (1 + m) / (1 + t) and projection back onto the
Hermitian-PSD power-n set. Both half-steps are nonincreasing in J (the
gradient half because increases are backtracked away), so the per-round
objective history is monotone.

One real product gives every h^H P P^H h. A direction h becomes the
feature row F(h) = [|h_a|^2, Re(h_a^* h_b), Im(h_a^* h_b)] (a < b) and a
Hermitian G the coordinate column g(G) = [G_aa, 2 Re G_ab, -2 Im G_ab], so
q = F(dirs) @ g(G_1 .. G_K) with G_j = P_j P_j^H is one real product for all
K entries. The same layout runs backwards for the gradient: R_j = sum_s u_sj
h_s h_s^H unpacks from F^T @ u. `fit` and the bounds in `podsim.pep` take q
block by block from the kernel `_quadratic_forms`; the link's chunk is one
block, so its encoder is the product, `_decay` and `_encode`.

At fixed assignments J is a sum of independent per-entry values, so `fit`
steps all entries at once: one stacked projection and one candidate pass per
try, with a per-entry mask that halves the step only for the entries whose
candidate raised their value (at most 30 times). A round makes one assign
pass and then one pass per inner step, not counting halvings. Each pass
yields the gradient sums F^T u along with the values, since u is the value
weight times one more factor 1/(1 + eta_c q): the assign pass gives them
for every entry at the new assignments, a candidate pass hands them to the
entries it accepts, and a rejected entry keeps its own, so the next step's
gradient needs no pass of its own. The decay (1 + eta_c q)^-n is a
reciprocal followed by repeated squaring, not a pow. Every pass walks the
training set in row blocks of `_BLOCK_ROWS`, so the (rows, K)
intermediates stay small and no (S, K) array outlives a block.

A worst-case design for a crossover range [f_a, f_b] trains at rho_d = f_b;
the average-criterion alternative trains at the midpoint (`range_design`).

The trainer takes no index mapping: entry j is sent as the bits of j. J does
not change when the entries and their bit labels are permuted together, so
training under a mapping would only hand each entry another label, and the
trained entry order already is the index assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from podsim.codebook import PrecoderCodebook, _check_design, project_psd_power
from podsim.feedback import _check_elements, bsc_inversion_matrix

__all__ = [
    "TrainerConfig",
    "TrainingState",
    "eta_c_from_snr_db",
    "fit",
    "range_design",
]

# Influence below this is treated as zero when deciding whether an empty
# region's precoder still receives any gradient signal.
_DEAD_WEIGHT = 1e-14

# Spread of the random Hermitian perturbation of the identity at init.
_INIT_SCALE = 0.1

# A backtracking search tries at most this many candidates for one step,
# halving the step after each rejected one.
_MAX_HALVINGS = 30

# Rows per block in every pass over the training set: each (rows, K) block of
# quadratic forms stays small, and no (S, K) array lives through the descent.
_BLOCK_ROWS = 2048


def eta_c_from_snr_db(m: int, t: int, snr_db: float) -> float:
    """Design distance parameter for a target SNR: eta_c = m * eta0 / (4 t),
    inf past the float range; the design rule rejects one that is not finite."""
    if t < 1:
        raise ValueError(f"block length must be positive, got {t}")
    try:
        return m * 10.0 ** (snr_db / 10.0) / (4.0 * t)
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class TrainerConfig:
    """Training configuration, checked when built; `codebook._check_design`
    checks m through rho_range, the codebook's design rule.

    m, n, k: antennas, precoder size, codebook entries (k a power of two,
        or 1 for the degenerate no-feedback case)
    eta_c: design distance-to-noise parameter
    rho_d: design crossover probability
    rho_range: optional crossover range, kept as a tuple of floats; used by
        the worst-case and average design rules, recorded in the codebook metadata
    n_train: number of training direction vectors
    inner_iters: gradient steps per precoder per round
    step_m: step size numerator, alpha(t) = (1 + step_m) / (1 + t)
    tol: stop when the relative objective decrease falls below this
    max_rounds: alternation round cap
    restarts: independent initializations; the best final objective wins

    It holds no seed: `fit` draws everything from the generator it is given.
    """

    m: int
    n: int
    k: int
    eta_c: float
    rho_d: float = 0.0
    rho_range: tuple[float, float] | None = None
    n_train: int = 100_000
    inner_iters: int = 5
    step_m: float = 1.0
    tol: float = 1e-5
    max_rounds: int = 200
    restarts: int = 1

    def __post_init__(self) -> None:
        _check_design(self)
        if self.rho_range is not None:
            object.__setattr__(self, "rho_range", tuple(map(float, self.rho_range)))
        if not -1.0 < self.step_m < np.inf:
            raise ValueError(f"step_m must be finite with 1 + step_m > 0, got {self.step_m}")
        if np.isnan(self.tol):
            raise ValueError("tol must be a number, got nan")
        if self.n_train < self.k:
            raise ValueError(f"need at least k={self.k} training vectors, got {self.n_train}")
        _check_elements(f"n_train={self.n_train}", self.n_train * self.n**2)
        if min(self.inner_iters, self.max_rounds, self.restarts) < 1:
            raise ValueError("inner_iters, max_rounds and restarts must be positive")


@dataclass
class TrainingState:
    """Result of one full training run (the restart with the lowest final J).

    codebook: the trained codebook; its marginals are the encoder's region
        occupancy over the training set at the returned matrices
    objective_history: J at the end of each round
    stop_reason: "tol" when the relative decrease of J fell below cfg.tol,
        "max_rounds" when the round cap ended the run
    halvings: backtracking halvings per round, summed over the entries; each
        is one rejected candidate step
    """

    codebook: PrecoderCodebook
    objective_history: list[float]
    stop_reason: str
    halvings: list[int]


def _features(re: np.ndarray, im: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """F(h) = [|h_a|^2, Re(h_a^* h_b), Im(h_a^* h_b) for a < b] for each row h
    = re + i im of the real (S, n) parts, from real products re_a re_b + im_a
    im_b and re_a im_b - im_a re_b, column by column through one (S,) buffer:
    an (S, n^2) view of (n^2, S) columns, or out, best laid out the same way."""
    n = re.shape[1]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]  # np.triu_indices(n, 1)
    if out is None:
        out = np.empty((n * n, len(re))).T
    np.add(np.square(re), np.square(im), out=out[:, :n])
    tmp = np.empty(len(re))
    for p, (a, b) in enumerate(pairs):
        real, imag = out[:, n + p], out[:, n + len(pairs) + p]
        ra, ia, rb, ib = re[:, a], im[:, a], re[:, b], im[:, b]
        np.add(np.multiply(ra, rb, out=real), np.multiply(ia, ib, out=tmp), out=real)
        np.subtract(np.multiply(ra, ib, out=imag), np.multiply(ia, rb, out=tmp), out=imag)
    return out


def _direction_features(feats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """F(h / ||h||) = F(h) / ||h||^2 for each row of features F(h) (its first n
    columns sum to ||h||^2), F(e_1) for a zero row; into out, which may be feats."""
    norms = np.einsum("ij->i", feats[:, : round(feats.shape[1] ** 0.5)])
    zero = norms == 0.0
    norms[zero] = 1.0
    out = np.divide(feats, norms[:, None], out=out)
    out[zero, 0] = 1.0
    return out


def _draw_direction_features(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """F(h / ||h||) of the count directions sample_directions(n, count, rng)
    draws, from the same (count, n) real then imaginary parts, with no complex
    array formed. Each part is copied to contiguous columns before the column
    products; the result is a (count, n^2) view of (n^2, count) columns.
    The callers check the count."""
    re, im = (np.ascontiguousarray(rng.standard_normal((count, n)).T).T for _ in range(2))
    feats = _features(re, im)
    return _direction_features(feats, out=feats)


def _gram(matrices: np.ndarray) -> np.ndarray:
    """G = P P^H for each matrix of a (K, n, t) stack; t may differ from n."""
    return matrices @ matrices.conj().swapaxes(-1, -2)


def _coordinates(herm: np.ndarray) -> np.ndarray:
    """g(G) = [G_aa, 2 Re G_ab, -2 Im G_ab for a < b] for each matrix of a
    (K, n, n) Hermitian stack, such as the Grams _gram(P): a real (n^2, K)
    matrix, one column per matrix, with F(h) . g(G) = h^H G h."""
    n = herm.shape[-1]
    a, b = np.triu_indices(n, 1)
    cross = herm[:, a, b]
    diag = herm[:, np.arange(n), np.arange(n)].real
    return np.concatenate([diag, 2.0 * cross.real, -2.0 * cross.imag], axis=1).T


def _from_features(r: np.ndarray, n: int) -> np.ndarray:
    """The (L, n, n) Hermitian R_l = sum_s u_sl h_s h_s^H from r = F^T u, whose
    columns are laid out like F: R_aa = r_aa and R_ab = r_re - i r_im."""
    a, b = np.triu_indices(n, 1)
    out = np.zeros((r.shape[1], n, n), dtype=complex)
    out[:, np.arange(n), np.arange(n)] = r[:n].T
    out[:, a, b] = (r[n : n + len(a)] - 1j * r[n + len(a) :]).T
    out[:, b, a] = out[:, a, b].conj()
    return out


def _quadratic_forms(feats: np.ndarray, coords: np.ndarray):
    """The quadratic-form kernel: q[s, j] = h_s^H P_j P_j^H h_s = F(h_s) . g(P_j)
    for feats = F(dirs) and coords = g(matrices), yielded as (rows, q[rows])
    in blocks of _BLOCK_ROWS rows, each a fresh array the caller may overwrite."""
    for lo in range(0, len(feats), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        yield rows, feats[rows] @ coords


def _decay(q: np.ndarray, eta_c: float, power: int, out: np.ndarray | None = None):
    """(t^power, t) for t = 1/(1 + eta_c q): t is computed in place of q, and
    t^power by squaring and multiplying along the bits of power from the top
    (a few ulps from the pow), into a fresh array or the leading rows of out."""
    q *= eta_c
    q += 1.0
    t = np.reciprocal(q, out=q)
    out = None if out is None else out[: len(t)]
    w = t
    for bit in bin(power)[3:]:
        w = np.multiply(w, w, out=out if w is t else w)
        if bit == "1":
            w *= t
    if w is t:  # power 1: t^power is a copy of t
        w = np.positive(t, out=out)
    return w, t


def _encode(
    w: np.ndarray, inv: np.ndarray, out: np.ndarray | None = None, idx: np.ndarray | None = None
) -> np.ndarray:
    """The encoder's indices for a block of decays w = (1 + eta_c q)^-n:
    a_s = argmin_i sum_j p_f(j|i) w[s, j], ties to the smallest i, into idx
    when given. The costs go to out when given, a block the caller no longer
    needs: a fresh (rows, K) array per block costs page faults that slow the
    per-frame encoder."""
    return np.argmin(np.matmul(w, inv, out=out), axis=1, out=idx)


def _entry_pass(feats, coords, inv, asg, eta_c, n, grad, entries=None):
    """One pass over the rows for the matrices whose coordinates are the
    columns of coords: (values, r) with

        values[l] = (1/S) sum_s p_f(j_l|a_s) (1 + eta_c q_sl)^-n,
        r = F^T u,  u_sl = p_f(j_l|a_s) (1 + eta_c q_sl)^-(n+1),

    where p_f(j|i) = inv[j, i] and r is None unless grad. With entries None
    it is the assign pass: column l is entry j_l = l, and the pass encodes
    as it goes, writing each row's index a_s into asg first. Otherwise column
    l is entry j_l = entries[l], evaluated at the indices in asg."""
    weights = inv.T if entries is None else inv[entries].T
    values = np.zeros(coords.shape[1])
    r = np.zeros((feats.shape[1], coords.shape[1])) if grad else None
    ones = np.ones(_BLOCK_ROWS)
    for rows, q in _quadratic_forms(feats, coords):
        w, t = _decay(q, eta_c, n)
        if entries is None:
            asg[rows] = _encode(w, inv)
        w *= np.take(weights, asg[rows], axis=0)
        values += ones[: len(w)] @ w
        if grad:
            t *= w
            r += feats[rows].T @ t
    return values / len(feats), r


def _gradients(r: np.ndarray, mats: np.ndarray, eta_c: float, rows: int) -> np.ndarray:
    """dJ/dP_l = -2 n eta_c / S R_l P_l for each matrix of the stack, with
    R_l = sum_s u_sl h_s h_s^H unpacked from the r of a pass over S rows."""
    n = mats.shape[-1]
    return -2.0 * n * eta_c / rows * (_from_features(r, n) @ mats)


def _hermitian_noise(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count random Hermitian matrices (g + g^H) / 2, g with standard normal
    real and imaginary parts, drawn entry by entry."""
    g = rng.standard_normal((count, 2, n, n))
    g = g[:, 0] + 1j * g[:, 1]
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def _run_single(cfg: TrainerConfig, feats: np.ndarray, inv: np.ndarray, rng: np.random.Generator):
    """One alternation run from a fresh init: (final J, TrainingState)."""
    mats = project_psd_power(np.eye(cfg.n) + _INIT_SCALE * _hermitian_noise(rng, cfg.k, cfg.n), cfg.n)
    history: list[float] = []
    halvings: list[int] = []
    stop_reason = "max_rounds"
    # Each entry runs its own diminishing-step descent; counters persist
    # across rounds and reset only when an entry is reinitialized.
    step_counts = np.zeros(cfg.k, dtype=np.int64)
    asg = np.empty(len(feats), dtype=np.intp)  # the encoder's index of each row

    for _ in range(cfg.max_rounds):
        values, r = _entry_pass(feats, _coordinates(_gram(mats)), inv, asg, cfg.eta_c, cfg.n, True)
        counts = np.bincount(asg, minlength=cfg.k)

        # An empty region whose precoder also receives no feedback-error
        # signal is dead weight: restart it next to the busiest region.
        # (J does not depend on dead entries, so this keeps monotonicity.)
        dead = np.flatnonzero((counts == 0) & (inv @ (counts / len(feats)) <= _DEAD_WEIGHT))
        if len(dead):
            busiest = int(np.argmax(counts))
            noise = 0.05 * _hermitian_noise(rng, len(dead), cfg.n)
            mats[dead] = project_psd_power(mats[busiest] + noise, cfg.n)
            step_counts[dead] = 0
            values, r = _entry_pass(feats, _coordinates(_gram(mats)), inv, asg, cfg.eta_c, cfg.n, True)
            counts = np.bincount(asg, minlength=cfg.k)

        # At fixed assignments J is the sum of the entry values and the
        # entries are independent, so all of them step at once. An entry that
        # no occupied region sends any weight to has no gradient and stays.
        live = np.flatnonzero(inv[:, counts > 0].max(axis=1) > _DEAD_WEIGHT)
        # r[:, i] always belongs to the current mats[live[i]]: the assign pass
        # gives the first step's, each candidate pass hands its r to the
        # entries it accepts, and an entry none accepts keeps its own, since
        # its matrix and the assignments are unchanged. The last step's
        # candidates need no r.
        r = r[:, live]
        rejected = 0
        for step in range(cfg.inner_iters):
            grad = step + 1 < cfg.inner_iters
            grads = _gradients(r, mats[live], cfg.eta_c, len(feats))
            alphas = (1.0 + cfg.step_m) / (1.0 + step_counts[live])
            step_counts[live] += 1
            # Positions in live whose step is not yet accepted; a candidate
            # that raises its entry's value is rejected and that entry alone
            # retries at half the step.
            todo = np.arange(len(live))
            for _ in range(_MAX_HALVINGS):
                cand = project_psd_power(
                    mats[live[todo]] - alphas[todo, None, None] * grads[todo], cfg.n
                )
                cand_values, cand_r = _entry_pass(
                    feats, _coordinates(_gram(cand)), inv, asg, cfg.eta_c, cfg.n, grad, live[todo]
                )
                ok = cand_values <= values[live[todo]]
                mats[live[todo[ok]]] = cand[ok]
                values[live[todo[ok]]] = cand_values[ok]
                if grad:
                    r[:, todo[ok]] = cand_r[:, ok]
                todo = todo[~ok]
                rejected += len(todo)
                if not len(todo):
                    break
                alphas[todo] /= 2.0
        history.append(sum(values.tolist()))
        halvings.append(rejected)

        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev - cur < cfg.tol * max(abs(prev), 1e-30):
                stop_reason = "tol"
                break

    # Final assignment pass so the marginals match the returned matrices.
    values, _ = _entry_pass(feats, _coordinates(_gram(mats)), inv, asg, cfg.eta_c, cfg.n, False)
    cb = PrecoderCodebook(
        m=cfg.m,
        matrices=mats,
        eta_c=cfg.eta_c,
        rho_d=cfg.rho_d,
        marginals=np.bincount(asg, minlength=cfg.k) / len(feats),
        rho_range=cfg.rho_range,
    )
    state = TrainingState(cb, history, stop_reason, halvings)
    return float(np.sum(values)), state


def fit(cfg: TrainerConfig, rng: np.random.Generator) -> TrainingState:
    """Full training run with restarts, drawing from rng; returns the best state."""
    inv = bsc_inversion_matrix(cfg.k, cfg.rho_d)
    feats = _draw_direction_features(cfg.n, cfg.n_train, rng)

    best = None
    best_objective = np.inf
    for _ in range(cfg.restarts):
        final_objective, state = _run_single(cfg, feats, inv, rng)
        if final_objective < best_objective:
            best_objective, best = final_objective, state
    return best


def range_design(cfg: TrainerConfig, rule: str) -> TrainerConfig:
    """cfg set to train for its crossover range under a design rule:
    "worst-case" trains at f_b, "average" at the midpoint."""
    if rule not in ("worst-case", "average"):
        raise ValueError(f"design rule must be 'worst-case' or 'average', got {rule!r}")
    if cfg.rho_range is None:
        raise ValueError(f"{rule} design needs cfg.rho_range = (f_a, f_b)")
    f_a, f_b = cfg.rho_range
    return replace(cfg, rho_d=f_b if rule == "worst-case" else (f_a + f_b) / 2.0)
