"""Channel-law tests, vectorized over S draws of complex_gaussian((S, m))
and sample_directions; the tail h_q is the last n entries of a draw and the
head h_unq the first m - n."""

import numpy as np
import pytest
from scipy import stats

from podsim.channel import complex_gaussian, sample_directions


def test_split_lengths_and_concatenation():
    # m = 6, n = 4: the head h_unq is the first m - n = 2 entries of a draw,
    # the tail h_q the last n = 4, and [h_unq; h_q] is the draw itself.
    m, n = 6, 4
    h = complex_gaussian((8, m), np.random.default_rng(7))
    assert h.shape == (8, m)
    head, tail = h[:, : m - n], h[:, m - n :]
    assert head.shape == (8, 2)
    assert tail.shape == (8, 4)
    assert np.array_equal(np.concatenate([head, tail], axis=1), h)


def test_full_quantization_edge_case():
    # n == m: the whole channel is the quantized tail, so the direction is
    # h / ||h|| of the same draw.
    h = complex_gaussian((1000, 4), np.random.default_rng(3))
    dirs = sample_directions(4, 1000, np.random.default_rng(3))
    np.testing.assert_allclose(dirs, h / np.linalg.norm(h, axis=1, keepdims=True), atol=1e-15)


def test_gamma_theta_decompose_norm():
    # m = 5, n = 2: gamma = ||h_q||^2 and theta = ||h_unq||^2 split ||h||^2,
    # and [h_unq; sqrt(gamma) direction] rebuilds h.
    h = complex_gaussian((100, 5), np.random.default_rng(11))
    head, tail = h[:, :3], h[:, 3:]
    gamma = np.sum(np.abs(tail) ** 2, axis=1)
    theta = np.sum(np.abs(head) ** 2, axis=1)
    assert np.abs(gamma + theta - np.sum(np.abs(h) ** 2, axis=1)).max() <= 1e-10
    direction = tail / np.sqrt(gamma)[:, None]
    assert np.abs(np.linalg.norm(direction, axis=1) - 1.0).max() <= 1e-12
    np.testing.assert_allclose(np.concatenate([head, direction * np.sqrt(gamma)[:, None]], 1), h,
                               atol=1e-12)


def test_gamma_mean_matches_quantized_dim():
    # E[gamma] = n for CN(0, I_n) tails; n = 4 here.
    h = complex_gaussian((100_000, 4), np.random.default_rng(2024))
    gammas = np.sum(np.abs(h) ** 2, axis=1)
    assert abs(gammas.mean() - 4.0) < 0.05


def test_gamma_distribution_ks():
    # ||h_q||^2 is a sum of n unit-mean exponentials, i.e. Gamma(n, 1).
    h = complex_gaussian((10_000, 6), np.random.default_rng(5))
    gammas = np.sum(np.abs(h[:, 2:]) ** 2, axis=1)
    result = stats.kstest(gammas, stats.gamma(a=4).cdf)
    assert result.pvalue >= 0.01


def test_per_entry_variance():
    # unit variance per complex entry, split evenly between re/im parts
    draws = complex_gaussian((50_000, 4), np.random.default_rng(17))
    assert np.abs(np.mean(np.abs(draws) ** 2, axis=0) - 1.0).max() < 0.02
    assert np.abs(np.var(draws.real, axis=0) - 0.5).max() < 0.02
    assert np.abs(np.var(draws.imag, axis=0) - 0.5).max() < 0.02


def test_direction_scalar_case():
    v = sample_directions(1, 20, np.random.default_rng(1))
    assert v.shape == (20, 1)
    assert np.abs(np.abs(v[:, 0]) - 1.0).max() <= 1e-12


def test_direction_uniformity_moments():
    # E[v v^H] = I/n on the complex unit sphere.
    vs = sample_directions(4, 50_000, np.random.default_rng(23))
    assert abs(np.mean(np.abs(vs[:, 0]) ** 2) - 0.25) < 0.01

    vs2 = sample_directions(2, 50_000, np.random.default_rng(29))
    second_moment = np.einsum("ka,kb->ab", vs2, vs2.conj()) / len(vs2)
    assert np.abs(second_moment - 0.5 * np.eye(2)).max() < 0.01


def test_deterministic_given_seed():
    a = complex_gaussian((3, 6), np.random.default_rng(99))
    b = complex_gaussian((3, 6), np.random.default_rng(99))
    assert np.array_equal(a, b)
    assert np.array_equal(sample_directions(4, 3, np.random.default_rng(99)),
                          sample_directions(4, 3, np.random.default_rng(99)))


def test_complex_gaussian_bit_identical_to_pair_draw():
    # All real parts first, then all imaginary parts, and a complex division
    # by sqrt(2): the same bytes as the two-array formula, not just close.
    rng = np.random.default_rng(41)
    re = rng.standard_normal((37, 5))
    im = rng.standard_normal((37, 5))
    expected = (re + 1j * im) / np.sqrt(2.0)
    got = complex_gaussian((37, 5), np.random.default_rng(41))
    assert got.dtype == np.complex128 and got.shape == (37, 5)
    assert got.tobytes() == expected.tobytes()


def test_directions_reject_negative_count():
    rng = np.random.default_rng(0)
    assert sample_directions(3, 0, rng).shape == (0, 3)
    with pytest.raises(ValueError, match="direction count must be nonnegative, got -1"):
        sample_directions(3, -1, rng)
