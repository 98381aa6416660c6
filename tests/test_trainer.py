import math

import numpy as np
import pytest

import podsim.trainer
from oracles import (
    complex_features,
    complex_gaussian,
    finite_difference_gradient,
    kernel_encode,
    kernel_features,
    kernel_gradient,
    kernel_objective,
    naive_encode,
    naive_gradient,
    naive_objective,
    naive_quadratic_forms,
)
from podsim.channel import sample_directions
from podsim.codebook import PrecoderCodebook, eigen_profile, project_psd_power
from podsim.feedback import bsc_inversion_matrix
from podsim.trainer import (
    _BLOCK_ROWS,
    TrainerConfig,
    _coordinates,
    _decay,
    _draw_direction_features,
    _features,
    _gram,
    _quadratic_forms,
    eta_c_from_snr_db,
    fit,
    range_design,
)


def make_codebook(m, n, k, rng, eta_c=2.0, rho_d=0.0):
    mats = np.stack(
        [
            project_psd_power(
                np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
                n,
            )
            for _ in range(k)
        ]
    )
    return PrecoderCodebook(
        m=m, matrices=mats, eta_c=eta_c, rho_d=rho_d,
        marginals=np.full(k, 1.0 / k),
    )


def rank_one_basis_codebook(n, eta_c=2.0):
    mats = np.stack([np.sqrt(n) * np.outer(e, e.conj()) for e in np.eye(n, dtype=complex)])
    return PrecoderCodebook(
        m=n, matrices=mats, eta_c=eta_c, rho_d=0.0,
        marginals=np.full(n, 1.0 / n),
    )


def test_eta_c_design_mapping():
    # eta_c = m * eta0 / (4 t); 10 dB with m = t = 4 gives 2.5
    assert abs(eta_c_from_snr_db(4, 4, 10.0) - 2.5) <= 1e-12
    assert abs(eta_c_from_snr_db(6, 8, 10.0) - 60.0 / 32.0) <= 1e-12
    with pytest.raises(ValueError, match="block length must be positive, got 0"):
        eta_c_from_snr_db(4, 0, 10.0)


def test_encode_noiseless_picks_aligned_beam():
    cb = rank_one_basis_codebook(4)
    inv = bsc_inversion_matrix(4, 0.0)
    for idx in range(4):
        h = np.zeros(4, dtype=complex)
        h[idx] = 1.0
        assert kernel_encode(h[None, :], cb.matrices, cb.eta_c, inv).tolist() == [idx]


def test_encode_all_ties_at_half_crossover():
    # p(j|i) is 1/K for every pair, costs are index independent: smallest wins.
    rng = np.random.default_rng(0)
    cb = make_codebook(2, 2, 4, rng)
    inv = bsc_inversion_matrix(4, 0.5)
    dirs = sample_directions(2, 50, rng)
    assert np.all(kernel_encode(dirs, cb.matrices, cb.eta_c, inv) == 0)


def test_encode_matches_naive():
    rng = np.random.default_rng(1)
    cb = make_codebook(3, 2, 4, rng, eta_c=1.3)
    inv = bsc_inversion_matrix(4, 0.07)
    dirs = sample_directions(2, 50, rng)
    got = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
    for s in range(len(dirs)):
        assert got[s] == naive_encode(dirs[s], cb.matrices, cb.eta_c, cb.n, inv)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_quadratic_forms_match_naive(n):
    # Non-Hermitian P: the kernel sees P only through G = P P^H. n = 1 has no
    # off-diagonal features; the row counts straddle the block size.
    rng = np.random.default_rng(30 + n)
    mats = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    for count in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1):
        dirs = sample_directions(n, count, rng)
        blocks = list(_quadratic_forms(kernel_features(dirs), _coordinates(_gram(mats))))
        rows = np.concatenate([np.arange(count)[r] for r, _ in blocks])
        assert np.array_equal(rows, np.arange(count))
        got = np.concatenate([q for _, q in blocks])
        want = naive_quadratic_forms(dirs, mats)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_features_match_complex_products(n):
    # The kernel takes the cross terms as real products of the parts, the
    # reference as complex products conj(h_a) h_b; they differ by rounding
    # only, at most 1e-15 of ||h||^2, which bounds every feature of h. Rows
    # of widely spread norms, zero rows among them, into a transposed out.
    rng = np.random.default_rng(60 + n)
    dirs = complex_gaussian((500, n), rng) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    dirs[:5] = 0.0
    want = complex_features(dirs)
    got = _features(dirs.real, dirs.imag, out=np.empty((n * n, 500)).T)
    assert np.all(np.abs(got - want) <= 1e-15 * want[:, :n].sum(axis=1, keepdims=True))
    assert np.array_equal(got[:5], np.zeros((5, n * n)))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_drawn_direction_features_match_sampled_directions(n):
    # fit and eval-pep draw the features of the very directions
    # sample_directions draws from the same generator, and leave the
    # generator where sample_directions leaves it.
    drawn, sampled = np.random.default_rng(8), np.random.default_rng(8)
    got = _draw_direction_features(n, 3000, drawn)
    want = kernel_features(sample_directions(n, 3000, sampled))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14
    assert drawn.standard_normal() == sampled.standard_normal()
    assert _draw_direction_features(n, 0, drawn).shape == (0, n * n)
    with pytest.raises(ValueError, match="direction count must be nonnegative, got -1"):
        _draw_direction_features(n, -1, drawn)


@pytest.mark.parametrize("power", range(1, 10))
def test_decay_matches_pow(power):
    # Repeated squaring of the reciprocal rounds once per multiply, so it
    # stays within a few ulps of the pow; q = 0 gives exactly 1.
    q = np.concatenate([[0.0], np.random.default_rng(40 + power).exponential(2.0, 999)])
    want = (1.0 + 1.3 * q) ** -power
    w, t = _decay(q.copy(), 1.3, power)
    assert w[0] == 1.0 and t[0] == 1.0
    assert np.abs(w - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(np.abs(w - want) <= 1e-14 * want)
    assert np.abs(t - 1.0 / (1.0 + 1.3 * q)).max() <= 1e-15


def test_blocked_passes_match_naive():
    # Two full row blocks and a partial one: the encoder, the objective and
    # the gradient accumulate across blocks.
    rng = np.random.default_rng(12)
    cb = make_codebook(3, 2, 4, rng, eta_c=1.6)
    inv = bsc_inversion_matrix(4, 0.08)
    dirs = sample_directions(2, 2 * _BLOCK_ROWS + 1, rng)
    a = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
    assert all(a[s] == naive_encode(dirs[s], cb.matrices, cb.eta_c, cb.n, inv)
               for s in range(len(dirs)))
    want = naive_objective(dirs, cb.matrices, cb.eta_c, cb.n, inv)
    assert abs(kernel_objective(cb, inv, dirs) - want) <= 1e-12
    for j in range(4):
        got = kernel_gradient(cb, j, inv, dirs, a)
        assert np.abs(got - naive_gradient(dirs, cb.matrices, j, cb.eta_c, cb.n, inv, a)).max() <= 1e-12


def test_objective_is_one_at_zero_eta():
    rng = np.random.default_rng(2)
    cb = make_codebook(2, 2, 2, rng, eta_c=0.0)
    inv = bsc_inversion_matrix(2, 0.1)
    dirs = sample_directions(2, 200, rng)
    assert kernel_objective(cb, inv, dirs) == pytest.approx(1.0, abs=1e-14)


def test_objective_single_entry_codebook():
    rng = np.random.default_rng(3)
    mats = np.stack([project_psd_power(np.eye(2) + 0.2, 2)])
    cb = PrecoderCodebook(
        m=2, matrices=mats, eta_c=1.7, rho_d=0.0, marginals=np.array([1.0])
    )
    inv = bsc_inversion_matrix(1, 0.0)
    dirs = sample_directions(2, 300, rng)
    q = np.array([float(np.sum(np.abs(mats[0].conj().T @ h) ** 2)) for h in dirs])
    expected = np.mean((1.0 + 1.7 * q) ** (-2.0))
    assert kernel_objective(cb, inv, dirs) == pytest.approx(expected, abs=1e-12)


def test_objective_matches_region_mean_route():
    # The implementation averages per-vector minima; the oracle sums explicit
    # p(j|i) p(i) E_{V_i}[.] region means. Both must agree to near machine
    # precision.
    rng = np.random.default_rng(4)
    cb = make_codebook(3, 2, 4, rng, eta_c=2.1)
    inv = bsc_inversion_matrix(4, 0.06)
    dirs = sample_directions(2, 120, rng)
    got = kernel_objective(cb, inv, dirs)
    want = naive_objective(dirs, cb.matrices, cb.eta_c, cb.n, inv)
    assert abs(got - want) <= 1e-12


def test_gradient_zero_at_zero_eta():
    rng = np.random.default_rng(5)
    cb = make_codebook(2, 2, 2, rng, eta_c=0.0)
    inv = bsc_inversion_matrix(2, 0.1)
    dirs = sample_directions(2, 50, rng)
    a = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
    assert np.abs(kernel_gradient(cb, 0, inv, dirs, a)).max() == 0.0


def test_gradient_matches_naive():
    rng = np.random.default_rng(6)
    cb = make_codebook(3, 3, 4, rng, eta_c=1.1)
    inv = bsc_inversion_matrix(4, 0.09)
    dirs = sample_directions(3, 60, rng)
    a = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
    for j in range(4):
        got = kernel_gradient(cb, j, inv, dirs, a)
        want = naive_gradient(dirs, cb.matrices, j, cb.eta_c, cb.n, inv, a)
        assert np.abs(got - want).max() <= 1e-12


def test_gradient_scalar_closed_form():
    # n = 1, unit scalar directions, P = [[1]]: J_1 = (1 + eta)^-1 and
    # grad = -2 eta (1 + eta)^-2.
    eta = 0.8
    mats = np.array([[[1.0 + 0.0j]]])
    cb = PrecoderCodebook(
        m=1, matrices=mats, eta_c=eta, rho_d=0.0, marginals=np.array([1.0])
    )
    inv = bsc_inversion_matrix(1, 0.0)
    rng = np.random.default_rng(7)
    dirs = sample_directions(1, 40, rng)
    a = np.zeros(40, dtype=np.int64)
    got = kernel_gradient(cb, 0, inv, dirs, a)
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - (-2.0 * eta / (1.0 + eta) ** 2)) <= 1e-12
    assert abs(kernel_objective(cb, inv, dirs) - 1.0 / (1.0 + eta)) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(5):
        n = 2 if trial % 2 == 0 else 3
        cb = make_codebook(n, n, 2, rng, eta_c=0.5 + trial)
        inv = bsc_inversion_matrix(2, 0.05 * trial)
        dirs = sample_directions(n, 30, rng)
        a = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
        j = trial % 2

        def partial_j(p):
            w = inv[j, a]
            q = np.array([float(np.sum(np.abs(p.conj().T @ h) ** 2)) for h in dirs])
            return float(np.mean(w * (1.0 + cb.eta_c * q) ** (-cb.n)))

        got = kernel_gradient(cb, j, inv, dirs, a)
        fd = finite_difference_gradient(partial_j, cb.matrices[j])
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(got - fd).max() / denom <= 1e-3


def small_config(**kw):
    base = dict(
        m=2, n=2, k=2, eta_c=2.5, rho_d=0.0, n_train=1500,
        inner_iters=4, max_rounds=40, tol=1e-6, seed=123,
    )
    base.update(kw)
    return TrainerConfig(**base)


def test_training_objective_monotone():
    for rho_d in (0.0, 0.04, 0.3):
        state = fit(small_config(rho_d=rho_d))
        hist = state.objective_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-10


def test_training_assignments_are_reencoded_optimum():
    # fit draws its training set first from default_rng(seed); the marginals
    # are the occupancy of the encoder at the returned matrices, exactly.
    state = fit(small_config(rho_d=0.05))
    inv = bsc_inversion_matrix(2, 0.05)
    rng = np.random.default_rng(123)
    dirs = sample_directions(2, 1500, rng)
    again = kernel_encode(dirs, state.codebook.matrices, state.codebook.eta_c, inv)
    assert np.array_equal(state.codebook.marginals, np.bincount(again, minlength=2) / 1500)


def test_training_beamforming_limit_at_zero_rho():
    # The step schedule (1 + m) / (1 + t) decays harmonically, so the
    # constant m controls how far the descent can travel; error-free
    # feedback needs a large m to reach the rank-one optimum.
    cfg = TrainerConfig(
        m=2, n=2, k=4, eta_c=2.5, rho_d=0.0, n_train=4000,
        inner_iters=5, max_rounds=60, tol=1e-6, step_m=63.0, seed=7,
    )
    cb = fit(cfg).codebook
    prof = eigen_profile(cb)
    # near rank one: dominant delta^2 close to n = 2 for every entry
    assert np.all(prof[:, 0] ** 2 >= 1.8)
    assert np.all(prof[:, 1] ** 2 <= 0.2)


def test_training_open_loop_limit_at_half_rho():
    cfg = TrainerConfig(
        m=2, n=2, k=4, eta_c=2.5, rho_d=0.5, n_train=3000,
        inner_iters=5, max_rounds=60, tol=1e-6, step_m=63.0, seed=11,
    )
    cb = fit(cfg).codebook
    prof = eigen_profile(cb)
    assert np.abs(prof**2 - 1.0).max() <= 0.1
    gram0 = cb.matrices[0] @ cb.matrices[0].conj().T
    for j in range(1, 4):
        gram = cb.matrices[j] @ cb.matrices[j].conj().T
        assert np.linalg.norm(gram - gram0) <= 0.05


def test_worst_case_design_trains_at_upper_end():
    cfg = small_config(rho_range=(0.01, 0.04))
    cb_range = fit(range_design(cfg, "worst-case")).codebook
    cb_direct = fit(small_config(rho_d=0.04, rho_range=(0.01, 0.04))).codebook
    assert np.array_equal(cb_range.matrices, cb_direct.matrices)
    assert cb_range.rho_d == 0.04
    assert cb_range.rho_range == (0.01, 0.04)


def test_average_design_trains_at_midpoint():
    cfg = small_config(rho_range=(0.0, 0.04))
    cb_avg = fit(range_design(cfg, "average")).codebook
    cb_direct = fit(small_config(rho_d=0.02, rho_range=(0.0, 0.04))).codebook
    assert np.array_equal(cb_avg.matrices, cb_direct.matrices)
    assert cb_avg.rho_d == 0.02


def test_degenerate_range_equals_point_design():
    cb_point = fit(range_design(small_config(rho_range=(0.02, 0.02)), "worst-case")).codebook
    cb_same = fit(small_config(rho_d=0.02, rho_range=(0.02, 0.02))).codebook
    assert np.array_equal(cb_point.matrices, cb_same.matrices)


def test_single_entry_training_ignores_rho():
    cfg_a = small_config(k=1, rho_d=0.0, n_train=800, max_rounds=15)
    cfg_b = small_config(k=1, rho_d=0.3, n_train=800, max_rounds=15)
    cb_a = fit(cfg_a).codebook
    cb_b = fit(cfg_b).codebook
    assert np.array_equal(cb_a.matrices, cb_b.matrices)


def test_restarts_never_hurt():
    cfg1 = small_config(seed=42, restarts=1, n_train=1000, max_rounds=20)
    cfg3 = small_config(seed=42, restarts=3, n_train=1000, max_rounds=20)
    inv = bsc_inversion_matrix(2, 0.0)
    rng = np.random.default_rng(42)
    dirs = sample_directions(2, 1000, rng)
    j1 = kernel_objective(fit(cfg1).codebook, inv, dirs)
    j3 = kernel_objective(fit(cfg3).codebook, inv, dirs)
    assert j3 <= j1 + 1e-12


# Pinned fit results from a trainer whose gradient built the n x n
# correlation of the directions; the gradient from x = dirs @ P^* sums in
# another order, so the values agree to round-off only. The K = 4 config
# takes steps large enough that backtracking rejects some of them.
SMALL_HISTORY = [
    0.0710184538594309, 0.06956105455672518, 0.06877920213947776, 0.06825808275015047,
    0.06787298821340132, 0.06757064298502799, 0.06732343664820249, 0.06711531286712559,
    0.06693635421403465, 0.06677985112066753, 0.06664107526464853, 0.06651672659961173,
    0.06640426644596063, 0.06630171454174336, 0.06620763142928524, 0.06612081162649394,
    0.06604028982308494, 0.06596527651900827, 0.06589511828698338, 0.06582926858274417,
    0.06576726592790696, 0.06570871734869053, 0.06565328562811465, 0.06560067936940156,
    0.06555064516170993, 0.06550296133875275, 0.06545743295879028, 0.06541388773144312,
    0.06537217268591729, 0.06533215142522411, 0.06529370184756464, 0.06525671424313904,
    0.06522108969491772, 0.06518670886544224, 0.06515352772319397, 0.06512146593351452,
    0.06509045604814269, 0.06506043637158634, 0.0650313346226217, 0.06500311639036445,
]
SMALL_MATRICES = [
    [
        [1.08886217934+0.00000000000j, 0.14457304561+0.03891500219j],
        [0.14457304561-0.03891500219j, 0.87723866112+0.00000000000j],
    ],
    [
        [0.76925575292+0.00000000000j, -0.18158060361-0.08697308579j],
        [-0.18158060361+0.08697308579j, 1.15203034686+0.00000000000j],
    ],
]
K4_HISTORY = [
    0.004526032516976338, 0.004151785193167039, 0.004082805694966968, 0.004040093337210412,
    0.003995050921578421, 0.003964927047692876,
]
K4_MATRICES = [
    [
        [0.80264075533+0.00000000000j, -0.17371049412-0.05134759572j,
         -0.08165358969+0.35559755230j, -0.13865163378-0.02797063004j],
        [-0.17371049412+0.05134759572j, 0.86342519130+0.00000000000j,
         0.02776573247-0.16454597905j, -0.14560839723-0.30243419211j],
        [-0.08165358969-0.35559755230j, 0.02776573247+0.16454597905j,
         0.82603089076+0.00000000000j, -0.20024300460+0.12804824709j],
        [-0.13865163378+0.02797063004j, -0.14560839723+0.30243419211j,
         -0.20024300460-0.12804824709j, 1.07798443009+0.00000000000j],
    ],
    [
        [1.11054793721+0.00000000000j, -0.02783045746-0.04122464284j,
         0.23561333740+0.07373393793j, 0.00958947281-0.00320877054j],
        [-0.02783045746+0.04122464284j, 0.85476504815+0.00000000000j,
         -0.24958583696-0.23387794821j, -0.31945275364+0.27290149885j],
        [0.23561333740-0.07373393793j, -0.24958583696+0.23387794821j,
         0.82188839835+0.00000000000j, -0.10769105163+0.09139866621j],
        [0.00958947281+0.00320877054j, -0.31945275364-0.27290149885j,
         -0.10769105163-0.09139866621j, 0.77882575035+0.00000000000j],
    ],
    [
        [0.77692126326+0.00000000000j, 0.06834143962-0.04013304846j,
         -0.28102544049-0.09264414706j, 0.01027062407+0.01459062207j],
        [0.06834143962+0.04013304846j, 0.91328415476+0.00000000000j,
         0.21642995144+0.22758869218j, 0.24048094118-0.19900956318j],
        [-0.28102544049+0.09264414706j, 0.21642995144-0.22758869218j,
         0.95526647303+0.00000000000j, 0.04617361130+0.02991373592j],
        [0.01027062407-0.01459062207j, 0.24048094118+0.19900956318j,
         0.04617361130-0.02991373592j, 1.03114169963+0.00000000000j],
    ],
    [
        [1.02513701962+0.00000000000j, 0.18769853170+0.00622068243j,
         0.04280592399-0.32007627389j, 0.14345293346+0.01556446619j],
        [0.18769853170-0.00622068243j, 0.95570975025+0.00000000000j,
         -0.01787242666+0.16170435994j, 0.09863581323+0.33423283737j],
        [0.04280592399+0.32007627389j, -0.01787242666-0.16170435994j,
         0.95383389744+0.00000000000j, 0.16584128597-0.09025114859j],
        [0.14345293346-0.01556446619j, 0.09863581323-0.33423283737j,
         0.16584128597+0.09025114859j, 0.66185858110+0.00000000000j],
    ],
]


def backtracking_config():
    return small_config(m=4, n=4, k=4, rho_d=0.1, n_train=1000, max_rounds=6,
                        step_m=32767.0)


# The halving counts are those of a trainer that stepped one entry at a
# time, so they pin the per-entry backtracking mask to that search.
@pytest.mark.parametrize(
    "cfg, history, matrices, halvings",
    [
        (small_config(rho_d=0.05), SMALL_HISTORY, SMALL_MATRICES, 0),
        (backtracking_config(), K4_HISTORY, K4_MATRICES, 15),
    ],
    ids=["small-rho0.05", "k4-backtracking"],
)
def test_fit_regression(cfg, history, matrices, halvings):
    state = fit(cfg)
    assert state.objective_history == pytest.approx(history, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(state.codebook.matrices, np.array(matrices), rtol=0.0, atol=1e-9)
    assert len(state.halvings) == len(history)
    assert sum(state.halvings) == halvings


def test_fit_gradients_handed_over_by_passes_match_naive(monkeypatch):
    # Every step after a round's first takes its gradient from the r of the
    # candidate pass that accepted each entry (or the entry's own r if none
    # did): each gradient fit uses must equal the naive one at the matrices it
    # is taken at, under the round's assignments. Two full row blocks and a
    # partial one. Steps this large are mostly rejected: some entries are
    # accepted after a few halvings, others use up all of them and stay.
    cfg = small_config(m=4, n=4, k=4, rho_d=0.1, n_train=2 * _BLOCK_ROWS + 1,
                       max_rounds=1, inner_iters=4, step_m=1e15)
    assigned, used = [], []
    entry_pass, gradients = podsim.trainer._entry_pass, podsim.trainer._gradients

    def recording_pass(feats, coords, inv, asg, eta_c, n, grad, entries=None):
        out = entry_pass(feats, coords, inv, asg, eta_c, n, grad, entries)
        if entries is None:  # an assign pass; later passes reuse asg
            assigned.append(asg.copy())
        return out

    def recording_gradients(r, mats, eta_c, rows):
        used.append((mats.copy(), assigned[-1], gradients(r, mats, eta_c, rows)))
        return used[-1][2]

    monkeypatch.setattr(podsim.trainer, "_entry_pass", recording_pass)
    monkeypatch.setattr(podsim.trainer, "_gradients", recording_gradients)
    state = fit(cfg)
    assert sum(state.halvings) > 0
    assert len(used) == cfg.inner_iters
    inv = bsc_inversion_matrix(cfg.k, cfg.rho_d)
    dirs = sample_directions(cfg.n, cfg.n_train, np.random.default_rng(cfg.seed))
    for mats, asg, got in used:
        assert len(mats) == cfg.k
        for j in range(cfg.k):
            want = naive_gradient(dirs, mats, j, cfg.eta_c, cfg.n, inv, asg)
            assert np.abs(got[j] - want).max() <= 1e-12 * np.abs(want).max()


def test_fit_makes_one_pass_per_inner_step(monkeypatch):
    # One round of 5 steps with no halvings: the round's assign pass, one
    # candidate pass per step (each also yields the next step's gradient) and
    # the final assign pass.
    passes = []
    kernel = podsim.trainer._quadratic_forms

    def counting_kernel(feats, coords):
        passes.append(coords.shape[1])
        return kernel(feats, coords)

    monkeypatch.setattr(podsim.trainer, "_quadratic_forms", counting_kernel)
    state = fit(small_config(rho_d=0.05, max_rounds=1, inner_iters=5))
    assert state.halvings == [0]
    assert len(passes) == 1 + 5 + 1


def test_stop_reason():
    capped = fit(small_config(tol=-math.inf, max_rounds=5))
    assert capped.stop_reason == "max_rounds"
    assert len(capped.objective_history) == 5
    converged = fit(small_config(tol=1e-3))
    assert converged.stop_reason == "tol"
    assert len(converged.objective_history) < 40


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(m=2, n=3, k=2, eta_c=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(m=2, n=2, k=3, eta_c=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(m=2, n=2, k=2, eta_c=-1.0)
    with pytest.raises(ValueError):
        TrainerConfig(m=2, n=2, k=2, eta_c=1.0, rho_d=0.7)
    with pytest.raises(ValueError):
        range_design(small_config(), "worst-case")  # missing range
    with pytest.raises(ValueError, match="design rule"):
        range_design(small_config(rho_range=(0.0, 0.1)), "best-case")
    # A bad range fails when the config is built, before any draw or round.
    for rho_range in ((0.3, 0.1), (-0.1, 0.2), (0.1, 0.6), (0.1,), (0.0, 0.1, 0.2)):
        with pytest.raises(ValueError, match="rho_range must be a pair"):
            TrainerConfig(m=2, n=2, k=2, eta_c=1.0, rho_range=rho_range)
    with pytest.raises(ValueError, match="at least k=4 training vectors, got 3"):
        TrainerConfig(m=2, n=2, k=4, eta_c=1.0, n_train=3)
    for field in ("inner_iters", "max_rounds", "restarts"):
        with pytest.raises(ValueError, match="must be positive"):
            TrainerConfig(m=2, n=2, k=2, eta_c=1.0, **{field: 0})


def test_dead_entry_restart(monkeypatch):
    # With error-free feedback and a large first step, some entries' regions
    # empty out; each such entry restarts next to the busiest one. The
    # restart draws its noise with _hermitian_noise, as the initial codebook
    # does once.
    draws = []
    noise = podsim.trainer._hermitian_noise

    def counting_noise(rng, count, n):
        draws.append(count)
        return noise(rng, count, n)

    monkeypatch.setattr(podsim.trainer, "_hermitian_noise", counting_noise)
    cfg = TrainerConfig(m=2, n=2, k=8, eta_c=2.0, rho_d=0.0, n_train=1000, step_m=63.0,
                        seed=0, max_rounds=30)
    state = fit(cfg)
    assert draws[0] == cfg.k
    assert len(draws) >= 2 and all(1 <= count < cfg.k for count in draws[1:])
    hist = state.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    state.codebook.validate()
