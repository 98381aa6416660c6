"""Bound-chain tests: frozen closed-form values, cross-module consistency
with the trainer objective, and Monte Carlo validation of the region bound.

Frozen expected values, derived independently:

* conditional bound at d = 4 sigma_n^2 ln 2: 0.5 e^{-ln 2} = 1/4.
* region bound for m=2, n=1, k=1, P=[[1]], eta_c=1: every unit direction in
  C^1 gives beta = 1 exactly, so the empirical mean is (1+1)^{-1} = 1/2 and
  the bound is (1/2) (1+1)^{-1} (1/2) = 1/8.
* head integral for m=4, n=2, eta_c=1: (1+1)^{-2} = 1/4; tail integral for
  n=2, eta_c=1, beta=1: also 1/4.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    assemble,
    bincount_evaluation_set,
    closed_form_integrals_check,
    conditional_pep_bound,
    kernel_encode,
    kernel_features,
    kernel_objective,
    naive_objective,
    region_pep_bound,
)
from podsim.channel import sample_directions
from podsim.codebook import PrecoderCodebook, project_psd_power
from podsim.feedback import bsc_inversion_matrix
from podsim.pep import EvaluationSet, average_pep_bound, build_evaluation_set
from podsim.stbc import Constellation, PodStructure, get_design
from podsim.trainer import _BLOCK_ROWS, TrainerConfig, fit


def make_codebook(m, n, k, eta_c, rho_d, matrices, marginals=None):
    if marginals is None:
        marginals = np.full(k, 1.0 / k)
    return PrecoderCodebook(
        m=m, matrices=np.asarray(matrices, dtype=complex),
        eta_c=eta_c, rho_d=rho_d, marginals=np.asarray(marginals, dtype=float),
    )


def random_precoders(n, k, rng):
    mats = []
    for _ in range(k):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(project_psd_power(np.eye(n) + 0.4 * g, n))
    return np.stack(mats)


def random_codebook(m, n, k, eta_c, rho_d, rng):
    return make_codebook(m, n, k, eta_c, rho_d, random_precoders(n, k, rng))


def test_conditional_bound_at_zero_distance_is_half():
    assert conditional_pep_bound(0.5, 0.0) == 0.5


def test_conditional_bound_quarter_point():
    sigma_n2 = 0.37
    d = 4.0 * sigma_n2 * math.log(2.0)
    assert conditional_pep_bound(sigma_n2, d) == pytest.approx(0.25, abs=1e-15)


def test_conditional_bound_vanishes_at_large_distance():
    assert conditional_pep_bound(0.1, 1e4) < 1e-300
    assert conditional_pep_bound(0.1, 1e9) == 0.0


def test_conditional_bound_monotone_in_distance():
    grid = np.linspace(0.0, 5.0, 40)
    vals = [conditional_pep_bound(0.2, d) for d in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_conditional_bound_rejects_negative_distance():
    with pytest.raises(ValueError):
        conditional_pep_bound(0.5, -1e-9)


def test_eta_c_and_noise_validation():
    cb = make_codebook(2, 2, 1, 1.0, 0.0, np.eye(2)[None])
    dirs = sample_directions(2, 10, np.random.default_rng(2))
    for eta_c in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta_c"):
            build_evaluation_set(cb, kernel_features(dirs), eta_c)
    with pytest.raises(ValueError, match="direction"):
        build_evaluation_set(cb, kernel_features(dirs[:0]))
    for sigma_n2 in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sigma_n2"):
            conditional_pep_bound(sigma_n2, 1.0)


def test_region_bound_scalar_codebook_is_one_eighth():
    # m=2, n=1, single entry P = [[1]]: beta = 1 on the whole unit sphere
    cb = make_codebook(2, 1, 1, 1.0, 0.0, np.ones((1, 1, 1)))
    rng = np.random.default_rng(3)
    evset = build_evaluation_set(cb, kernel_features(sample_directions(1, 400, rng)))
    assert region_pep_bound(evset, 0, 0) == pytest.approx(0.125, abs=1e-12)


def test_region_bound_at_zero_eta_is_half():
    # regions formed at the codebook's design eta; the bound evaluated at
    # eta_c = 0 degenerates to 1/2 regardless of the region
    rng = np.random.default_rng(5)
    cb = random_codebook(3, 2, 2, 2.0, 0.1, rng)
    evset = build_evaluation_set(cb, kernel_features(sample_directions(2, 300, rng)), eta_c=0.0)
    for i in np.flatnonzero(evset.occupancy):
        for j in range(2):
            assert region_pep_bound(evset, int(i), j) == pytest.approx(0.5, abs=1e-12)


def test_region_bound_head_factor_unity_when_m_equals_n():
    rng = np.random.default_rng(7)
    cb = random_codebook(2, 2, 2, 2.5, 0.0, rng)
    inv = bsc_inversion_matrix(2, 0.0)
    dirs = sample_directions(2, 500, rng)
    evset = build_evaluation_set(cb, kernel_features(dirs))
    assignments = kernel_encode(dirs, cb.matrices, cb.eta_c, inv)
    i = int(assignments[0])
    x = dirs[assignments == i] @ cb.matrices[0].conj()
    beta = np.einsum("sa,sa->s", x, x.conj()).real
    expect = 0.5 * np.mean((1.0 + 2.5 * beta) ** -2.0)
    assert region_pep_bound(evset, i, 0) == pytest.approx(expect, rel=1e-15)


def test_region_bound_rejects_empty_region_and_bad_indices():
    rng = np.random.default_rng(9)
    # identical entries tie everywhere; ties go to index 0, so region 1
    # stays empty
    p = project_psd_power(np.eye(2), 2)
    cb = make_codebook(3, 2, 2, 1.0, 0.0, np.stack([p, p]))
    evset = build_evaluation_set(cb, kernel_features(sample_directions(2, 100, rng)))
    with pytest.raises(ValueError, match="empty"):
        region_pep_bound(evset, 1, 0)
    for i, j in [(-1, 0), (2, 0), (0, -1), (0, 2)]:
        with pytest.raises(ValueError, match="indices"):
            region_pep_bound(evset, i, j)


@pytest.mark.parametrize("k", [1, 2, 16])
@pytest.mark.parametrize("eta_c", [None, 0.7])
def test_one_hot_table_matches_bincount(k, eta_c):
    # Each block adds its one-hot @ decay product to the table; the reference
    # adds a weighted bincount over (region, entry) pairs. Two full blocks and
    # a partial one, at the codebook's eta_c and at an override. The counts
    # are exact, the table equal up to the order of the sums.
    rng = np.random.default_rng(70 + k)
    cb = random_codebook(4, 2, k, 2.0, 0.05, rng)
    feats = kernel_features(sample_directions(2, 2 * _BLOCK_ROWS + 1, rng))
    got, want = build_evaluation_set(cb, feats, eta_c), bincount_evaluation_set(cb, feats, eta_c)
    assert np.array_equal(got.occupancy, want.occupancy)
    np.testing.assert_allclose(got.tail, want.tail, rtol=1e-14, atol=0.0)
    assert got.head == want.head


def test_evaluation_set_shape_validation():
    with pytest.raises(ValueError):
        EvaluationSet(occupancy=np.full(3, 1.0 / 3.0), tail=np.zeros((4, 4)), head=0.5)
    with pytest.raises(ValueError):
        EvaluationSet(occupancy=np.full(4, 0.25), tail=np.zeros((4, 3)), head=0.5)


def test_average_bound_at_zero_eta_is_half():
    rng = np.random.default_rng(11)
    cb = random_codebook(4, 2, 4, 0.0, 0.2, rng)
    inv = bsc_inversion_matrix(4, 0.2)
    evset = build_evaluation_set(cb, kernel_features(sample_directions(2, 600, rng)))
    assert average_pep_bound(evset, inv) == pytest.approx(0.5, abs=1e-12)


def test_average_bound_matches_trainer_objective():
    # dual route: sum of weighted region means vs mean of row minima
    rng = np.random.default_rng(13)
    for m, n, k, rho in [(4, 2, 4, 0.1), (4, 4, 8, 0.0), (3, 2, 2, 0.5)]:
        cb = random_codebook(m, n, k, 2.5, rho, rng)
        inv = bsc_inversion_matrix(k, rho)
        dirs = sample_directions(n, 2000, rng)
        evset = build_evaluation_set(cb, kernel_features(dirs))
        avg = average_pep_bound(evset, inv)
        expect = 0.5 * (1.0 + cb.eta_c) ** (-(m - n)) * kernel_objective(cb, inv, dirs)
        assert abs(avg - expect) <= 1e-12


def test_average_bound_matches_region_sum_and_naive_objective():
    # The closed form against two routes that do not share its code: the
    # defining sum of region bounds, and the loop-based oracle objective.
    rng = np.random.default_rng(23)
    cases = [
        random_codebook(4, 2, 4, 2.5, 0.1, rng),
        random_codebook(4, 4, 8, 1.5, 0.03, rng),
    ]
    # Entry 3 repeats entry 0, so at rho = 0 every tie goes to index 0 and
    # region 3 stays empty.
    a, b, c = random_precoders(2, 3, rng)
    cases.append(make_codebook(3, 2, 4, 2.0, 0.0, np.stack([a, b, c, a])))
    for cb in cases:
        inv = bsc_inversion_matrix(cb.k, cb.rho_d)
        dirs = sample_directions(cb.n, 300, rng)
        evset = build_evaluation_set(cb, kernel_features(dirs))
        counts = np.bincount(kernel_encode(dirs, cb.matrices, cb.eta_c, inv), minlength=cb.k)
        region_sum = sum(
            inv[j, i] * counts[i] / len(dirs) * region_pep_bound(evset, i, j)
            for i in range(cb.k)
            if counts[i] > 0
            for j in range(cb.k)
        )
        head = (1.0 + cb.eta_c) ** (-(cb.m - cb.n))
        naive = 0.5 * head * naive_objective(dirs, cb.matrices, cb.eta_c, cb.n, inv)
        avg = average_pep_bound(evset, inv)
        assert abs(avg - region_sum) <= 1e-12
        assert abs(avg - naive) <= 1e-12
    assert counts[3] == 0


def test_average_bound_rejects_mismatched_inversion_matrix():
    rng = np.random.default_rng(29)
    cb = random_codebook(3, 2, 2, 1.0, 0.1, rng)
    inv = bsc_inversion_matrix(2, 0.1)
    evset = build_evaluation_set(cb, kernel_features(sample_directions(2, 100, rng)))
    for k in (1, 4):
        with pytest.raises(ValueError):
            average_pep_bound(evset, bsc_inversion_matrix(k, 0.1))


def test_average_bound_mapping_invariant_at_half_rho():
    # A mapping pi relabels the codebook, entry i to label pi(i); at rho = 1/2
    # every index is equally likely to arrive, so the labels cannot matter.
    rng = np.random.default_rng(17)
    cb = random_codebook(4, 2, 4, 2.5, 0.5, rng)
    dirs = sample_directions(2, 500, rng)
    perm = np.array([2, 0, 3, 1])
    matrices, marginals = np.empty_like(cb.matrices), np.empty_like(cb.marginals)
    matrices[perm], marginals[perm] = cb.matrices, cb.marginals
    relabeled = make_codebook(4, 2, 4, 2.5, 0.5, matrices, marginals)
    inv = bsc_inversion_matrix(4, 0.5)
    a = average_pep_bound(build_evaluation_set(cb, kernel_features(dirs)), inv)
    b = average_pep_bound(build_evaluation_set(relabeled, kernel_features(dirs)), inv)
    assert a == pytest.approx(b, rel=1e-14)


def test_relabeled_codebook_matches_permuted_inversion_matrix():
    # Moving entry i to label pi(i) is the same design as keeping the entry
    # order and sending index i as the bits of pi(i): p_f(pi(j) | pi(i)).
    # The permuted channel is no BSC, so no codebook designs for it and the
    # bound cannot encode under it; the trainer's objective, which the bound
    # equals at the design channel, takes any channel.
    rng = np.random.default_rng(23)
    cb = random_codebook(4, 2, 8, 2.5, 0.1, rng)
    dirs = sample_directions(2, 500, rng)
    perm = np.array([3, 6, 0, 5, 1, 7, 2, 4])
    matrices, marginals = np.empty_like(cb.matrices), np.empty_like(cb.marginals)
    matrices[perm], marginals[perm] = cb.matrices, cb.marginals
    relabeled = make_codebook(4, 2, 8, 2.5, 0.1, matrices, marginals)
    for rho in (0.02, 0.1, 0.3):
        inv = bsc_inversion_matrix(8, rho)
        inv_mapped = inv[np.ix_(perm, perm)]
        a = kernel_objective(cb, inv_mapped, dirs)
        b = kernel_objective(relabeled, inv, dirs)
        assert a == pytest.approx(b, rel=1e-13)


def test_average_bound_in_unit_interval_half():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, m + 1))
        k = int(rng.choice([2, 4]))
        eta = float(rng.uniform(0.0, 6.0))
        rho = float(rng.uniform(0.0, 0.5))
        cb = random_codebook(m, n, k, eta, rho, rng)
        inv = bsc_inversion_matrix(k, rho)
        evset = build_evaluation_set(cb, kernel_features(sample_directions(n, 400, rng)))
        val = average_pep_bound(evset, inv)
        assert 0.0 < val <= 0.5 + 1e-12


def trained_small_codebook():
    cfg = TrainerConfig(
        m=2, n=2, k=2, eta_c=2.5, rho_d=0.0, n_train=3000,
        inner_iters=5, max_rounds=40, tol=1e-6, step_m=63.0, seed=29,
    )
    return fit(cfg).codebook


def test_average_bound_nondecreasing_in_rho_for_trained_codebook():
    cb = trained_small_codebook()
    rng = np.random.default_rng(31)
    dirs = kernel_features(sample_directions(2, 4000, rng))
    vals = []
    for rho in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
        inv = bsc_inversion_matrix(cb.k, rho)
        evset = build_evaluation_set(dataclasses.replace(cb, rho_d=rho), dirs)
        vals.append(average_pep_bound(evset, inv))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_region_bound_dominates_monte_carlo_error_rate():
    # Small closed-loop instance: the simulated worst-case pairwise error
    # rate within a region must stay below the region bound (3 sigma slack).
    cb = trained_small_codebook()
    inv = bsc_inversion_matrix(cb.k, cb.rho_d)
    rng = np.random.default_rng(37)
    dirs = sample_directions(2, 6000, rng)
    evset = build_evaluation_set(cb, kernel_features(dirs))

    eta_c = cb.eta_c
    pod = PodStructure(inner=get_design("real-od-2"), n=2)
    const = Constellation("bpsk")
    # worst-case error event: one flipped symbol, sum |dz|^2 = 4
    sigma_n2 = 4.0 / (4.0 * eta_c)

    i = 0
    member = dirs[kernel_encode(dirs, cb.matrices, cb.eta_c, inv) == i]
    bound = region_pep_bound(evset, i, i)

    z_good = assemble(pod, cb.matrices[i], np.array([1.0, 1.0]))
    z_bad = assemble(pod, cb.matrices[i], np.array([-1.0, 1.0]))
    n_draws = 20000
    idx = rng.integers(0, len(member), size=n_draws)
    gam = rng.gamma(shape=2.0, scale=1.0, size=n_draws)
    h = np.sqrt(gam)[:, None] * member[idx]
    noise = math.sqrt(sigma_n2 / 2.0) * (
        rng.standard_normal((n_draws, 2)) + 1j * rng.standard_normal((n_draws, 2))
    )
    y = h.conj() @ z_good + noise
    d_good = np.sum(np.abs(y - h.conj() @ z_good) ** 2, axis=1)
    d_bad = np.sum(np.abs(y - h.conj() @ z_bad) ** 2, axis=1)
    rate = float(np.mean(d_bad < d_good))
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_draws)
    assert rate <= bound + 3.0 * stderr


def test_integral_check_exact_at_zero_eta():
    rng = np.random.default_rng(41)
    rep = closed_form_integrals_check(0.0, 4, 2, 1000, rng)
    assert rep.head_estimate == 1.0 and rep.head_closed_form == 1.0
    assert rep.tail_estimate == 1.0 and rep.tail_closed_form == 1.0
    assert rep.ok


def test_integral_check_matches_quarter_values():
    rng = np.random.default_rng(43)
    rep = closed_form_integrals_check(1.0, 4, 2, 100_000, rng)
    assert rep.head_closed_form == pytest.approx(0.25, abs=1e-15)
    assert rep.tail_closed_form == pytest.approx(0.25, abs=1e-15)
    assert abs(rep.head_estimate - 0.25) <= 3.0 * rep.head_stderr
    assert abs(rep.tail_estimate - 0.25) <= 3.0 * rep.tail_stderr
    assert rep.ok


def test_integral_check_with_beta_scaling():
    rng = np.random.default_rng(47)
    rep = closed_form_integrals_check(2.0, 3, 1, 100_000, rng, beta=0.5)
    assert rep.tail_closed_form == pytest.approx(0.5, abs=1e-15)
    assert rep.ok


def test_integral_check_requires_head_dimensions():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError):
        closed_form_integrals_check(1.0, 2, 2, 100, rng)
