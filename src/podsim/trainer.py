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

One kernel, `_entry_forms`, gives x = dirs @ P^* and q = |x|^2 = h^H P P^H h
for one entry. The encoder, `objective`, `gradient`, the descent loop and the
bounds in `podsim.pep` all use it; the gradient reuses x as dirs^T (u * x^*).

A worst-case design for a crossover range [f_a, f_b] trains at rho_d = f_b;
the average-criterion alternative trains at the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from podsim.channel import sample_directions
from podsim.codebook import PrecoderCodebook, project_psd_power
from podsim.feedback import bsc_inversion_matrix

__all__ = [
    "TrainerConfig",
    "TrainingState",
    "encode",
    "encode_batch",
    "eta_c_from_snr_db",
    "fit",
    "gradient",
    "objective",
    "train",
    "train_average",
    "train_worst_case",
]

# Influence below this is treated as zero when deciding whether an empty
# region's precoder still receives any gradient signal.
_DEAD_WEIGHT = 1e-14

# Spread of the random Hermitian perturbation of the identity at init.
_INIT_SCALE = 0.1


def eta_c_from_snr_db(m: int, t: int, snr_db: float) -> float:
    """Design distance parameter for a target SNR: eta_c = m * eta0 / (4 t)."""
    return m * 10.0 ** (snr_db / 10.0) / (4.0 * t)


@dataclass
class TrainerConfig:
    """Codebook training configuration.

    m, n, k: antennas, precoder size, codebook entries (k a power of two,
        or 1 for the degenerate no-feedback case)
    eta_c: design distance-to-noise parameter
    rho_d: design crossover probability
    rho_range: optional crossover range; used by the worst-case and
        average design rules, recorded in the codebook metadata
    n_train: number of training direction vectors
    inner_iters: gradient steps per precoder per round
    step_m: step size numerator, alpha(t) = (1 + step_m) / (1 + t)
    backtracking: halve steps that would increase the per-precoder objective
    tol: stop when the relative objective decrease falls below this
    max_rounds: alternation round cap
    restarts: independent initializations; the best final objective wins
    mapping: optional index mapping applied during design
    seed: master seed (training set, inits, empty-region restarts)
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
    backtracking: bool = True
    tol: float = 1e-5
    max_rounds: int = 200
    restarts: int = 1
    mapping: np.ndarray | None = field(default=None)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={self.n}, m={self.m}")
        if self.k < 1 or (self.k & (self.k - 1)) != 0:
            raise ValueError(f"k must be a power of two, got {self.k}")
        if self.eta_c < 0:
            raise ValueError(f"eta_c must be nonnegative, got {self.eta_c}")
        if not 0.0 <= self.rho_d <= 0.5:
            raise ValueError(f"rho_d must lie in [0, 0.5], got {self.rho_d}")
        if self.n_train < self.k:
            raise ValueError(f"need at least k={self.k} training vectors, got {self.n_train}")
        if min(self.inner_iters, self.max_rounds, self.restarts) < 1:
            raise ValueError("inner_iters, max_rounds and restarts must be positive")


@dataclass
class TrainingState:
    """Result of one full training run."""

    codebook: PrecoderCodebook
    assignments: np.ndarray
    objective_history: list[float]


def _entry_forms(dirs: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic-form kernel for one entry: x = dirs @ P^* and
    q[s] = |x_s|^2 = h_s^H P P^H h_s for the rows h_s of dirs."""
    x = dirs @ p.conj()
    return x, np.einsum("sa,sa->s", x, x.conj()).real


def _quadratic_forms(dirs: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """q[s, j] = h_s^H P_j P_j^H h_s for unit rows h_s, shape (S, k)."""
    out = np.empty((len(dirs), len(matrices)))
    for j, p in enumerate(matrices):
        out[:, j] = _entry_forms(dirs, p)[1]
    return out


def _cost_matrix(q: np.ndarray, eta_c: float, n: int, inv: np.ndarray) -> np.ndarray:
    """cost[s, i] = sum_j p_f(j|i) (1 + eta_c q[s, j])^-n."""
    w = (1.0 + eta_c * q) ** (-n)
    return w @ inv


def encode_batch(
    dirs: np.ndarray, matrices: np.ndarray, eta_c: float, inv: np.ndarray
) -> np.ndarray:
    """Minimum expected-cost index for each direction row; ties take the
    smallest index."""
    n = matrices.shape[1]
    costs = _cost_matrix(_quadratic_forms(dirs, matrices), eta_c, n, inv)
    return np.argmin(costs, axis=1)


def encode(h_direction: np.ndarray, cb: PrecoderCodebook, inv: np.ndarray) -> int:
    """Encoder index for one unit direction vector."""
    return int(encode_batch(h_direction[None, :], np.asarray(cb.matrices), cb.eta_c, inv)[0])


def objective(cb: PrecoderCodebook, inv: np.ndarray, training_set: np.ndarray) -> float:
    """Training objective J for the encoder implied by the codebook.

    Equals the training-set mean of the minimal expected cost, because the
    encoder picks the minimizing index for every vector.
    """
    mats = np.asarray(cb.matrices)
    costs = _cost_matrix(_quadratic_forms(training_set, mats), cb.eta_c, cb.n, inv)
    return float(np.min(costs, axis=1).mean())


def gradient(
    cb: PrecoderCodebook,
    j: int,
    inv: np.ndarray,
    training_set: np.ndarray,
    assignments: np.ndarray,
) -> np.ndarray:
    """Gradient of J with respect to P_j at fixed assignments."""
    x, q = _entry_forms(training_set, np.asarray(cb.matrices)[j])
    return _entry_gradient(training_set, x, q, inv[j, assignments], cb.eta_c, cb.n)


def _entry_gradient(dirs, x, q, weights, eta_c, n):
    """-2 n eta_c / S dirs^T (u * x^*) with u = p_f(j|a_s) (1 + eta_c q)^-(n+1)."""
    ux = x.conj()
    ux *= (weights * (1.0 + eta_c * q) ** (-(n + 1)))[:, None]
    return -2.0 * n * eta_c / len(dirs) * (dirs.T @ ux)


def _entry_state(dirs, p, weights, eta_c, n):
    """(x, q, value) of p: value = mean of p_f(j|a_s) (1 + eta_c q)^-n, its share of J."""
    x, q = _entry_forms(dirs, p)
    return x, q, float(np.mean(weights * (1.0 + eta_c * q) ** (-n)))


def _initial_matrices(cfg: TrainerConfig, rng: np.random.Generator) -> np.ndarray:
    mats = np.empty((cfg.k, cfg.n, cfg.n), dtype=complex)
    for j in range(cfg.k):
        g = rng.standard_normal((cfg.n, cfg.n)) + 1j * rng.standard_normal((cfg.n, cfg.n))
        mats[j] = project_psd_power(np.eye(cfg.n) + _INIT_SCALE * (g + g.conj().T) / 2.0, cfg.n)
    return mats


def _run_single(cfg: TrainerConfig, dirs: np.ndarray, inv: np.ndarray, rng: np.random.Generator):
    mats = _initial_matrices(cfg, rng)
    history: list[float] = []
    # Each entry runs its own diminishing-step descent; counters persist
    # across rounds and reset only when an entry is reinitialized.
    step_counts = np.zeros(cfg.k, dtype=np.int64)

    for _ in range(cfg.max_rounds):
        costs = _cost_matrix(_quadratic_forms(dirs, mats), cfg.eta_c, cfg.n, inv)
        assignments = np.argmin(costs, axis=1)
        counts = np.bincount(assignments, minlength=cfg.k)

        # An empty region whose precoder also receives no feedback-error
        # signal is dead weight: restart it next to the busiest region.
        # (J does not depend on dead entries, so this keeps monotonicity.)
        dead = [
            j
            for j in range(cfg.k)
            if counts[j] == 0 and float(inv[j] @ (counts / len(dirs))) <= _DEAD_WEIGHT
        ]
        if dead:
            busiest = int(np.argmax(counts))
            for j in dead:
                g = rng.standard_normal((cfg.n, cfg.n)) + 1j * rng.standard_normal((cfg.n, cfg.n))
                mats[j] = project_psd_power(
                    mats[busiest] + 0.05 * (g + g.conj().T) / 2.0, cfg.n
                )
                step_counts[j] = 0
            costs = _cost_matrix(_quadratic_forms(dirs, mats), cfg.eta_c, cfg.n, inv)
            assignments = np.argmin(costs, axis=1)
        del costs  # the descent does not need it; freeing it keeps peak memory down

        # At fixed assignments J is the sum of the entry values. Each entry
        # carries (x, q, value) of its matrix; an accepted candidate hands over its own.
        values = []
        for j in range(cfg.k):
            weights = inv[j, assignments]
            x, q, value = _entry_state(dirs, mats[j], weights, cfg.eta_c, cfg.n)
            if weights.max() > _DEAD_WEIGHT:
                for _ in range(cfg.inner_iters):
                    grad = _entry_gradient(dirs, x, q, weights, cfg.eta_c, cfg.n)
                    alpha = (1.0 + cfg.step_m) / (1.0 + step_counts[j])
                    step_counts[j] += 1
                    for _ in range(30):
                        cand = project_psd_power(mats[j] - alpha * grad, cfg.n)
                        cand_state = _entry_state(dirs, cand, weights, cfg.eta_c, cfg.n)
                        if not cfg.backtracking or cand_state[2] <= value:
                            mats[j], (x, q, value) = cand, cand_state
                            break
                        alpha /= 2.0
            values.append(value)
        history.append(sum(values))

        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev - cur < cfg.tol * max(abs(prev), 1e-30):
                break

    # Final assignment pass so marginals and assignments match the returned
    # matrices.
    costs = _cost_matrix(_quadratic_forms(dirs, mats), cfg.eta_c, cfg.n, inv)
    assignments = np.argmin(costs, axis=1)
    final_objective = float(np.min(costs, axis=1).mean())
    return mats, assignments, history, final_objective


def fit(cfg: TrainerConfig, rng: np.random.Generator | None = None) -> TrainingState:
    """Full training run with restarts; returns the best state."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    inv = bsc_inversion_matrix(cfg.k, cfg.rho_d, cfg.mapping)
    dirs = sample_directions(cfg.n, cfg.n_train, rng)

    best = None
    best_objective = np.inf
    for _ in range(cfg.restarts):
        mats, assignments, history, final_objective = _run_single(cfg, dirs, inv, rng)
        if final_objective < best_objective:
            best_objective = final_objective
            best = (mats, assignments, history)

    mats, assignments, history = best
    marginals = np.bincount(assignments, minlength=cfg.k) / len(dirs)
    cb = PrecoderCodebook(
        m=cfg.m,
        n=cfg.n,
        k=cfg.k,
        matrices=mats,
        eta_c=cfg.eta_c,
        rho_d=cfg.rho_d,
        marginals=marginals,
        rho_range=cfg.rho_range,
    )
    cb.validate()
    return TrainingState(codebook=cb, assignments=assignments, objective_history=history)


def train(cfg: TrainerConfig, rng: np.random.Generator | None = None) -> PrecoderCodebook:
    """Train a codebook at the configured design crossover rho_d."""
    return fit(cfg, rng).codebook


def train_worst_case(cfg: TrainerConfig, rng: np.random.Generator | None = None) -> PrecoderCodebook:
    """Design for a crossover range by training at its upper end f_b."""
    if cfg.rho_range is None:
        raise ValueError("worst-case design needs cfg.rho_range = (f_a, f_b)")
    f_a, f_b = cfg.rho_range
    if not 0.0 <= f_a <= f_b <= 0.5:
        raise ValueError(f"need 0 <= f_a <= f_b <= 0.5, got {cfg.rho_range}")
    return train(replace(cfg, rho_d=f_b), rng)


def train_average(cfg: TrainerConfig, rng: np.random.Generator | None = None) -> PrecoderCodebook:
    """Average-criterion alternative: train at the midpoint of the range."""
    if cfg.rho_range is None:
        raise ValueError("average design needs cfg.rho_range = (f_a, f_b)")
    f_a, f_b = cfg.rho_range
    if not 0.0 <= f_a <= f_b <= 0.5:
        raise ValueError(f"need 0 <= f_a <= f_b <= 0.5, got {cfg.rho_range}")
    return train(replace(cfg, rho_d=(f_a + f_b) / 2.0), rng)
