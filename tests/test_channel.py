"""Channel-law tests, vectorized over S draws of the channel draw the sweep
makes, `_gaussian_parts`, and of sample_directions. A draw is the real and
imaginary parts of S channels h, shape (2, S, m); the tail h_q is the last n
entries of each h and the head h_unq the first m - n. The draw and the
directions match the reference formula in `oracles.complex_gaussian` bit for
bit."""

import numpy as np
import pytest
from scipy import stats

from oracles import complex_gaussian
from podsim.channel import _gaussian_parts, sample_directions


def draw(shape, seed):
    """Real and imaginary parts of CN(0, 1) samples of the given shape."""
    return _gaussian_parts(np.empty((2, *shape)), np.random.default_rng(seed))


def test_split_lengths_and_concatenation():
    # m = 6, n = 4: the head h_unq is the first m - n = 2 entries of a draw,
    # the tail h_q the last n = 4, and [h_unq; h_q] is the draw itself.
    m, n = 6, 4
    parts = draw((8, m), 7)
    assert parts.shape == (2, 8, m)
    head, tail = parts[..., : m - n], parts[..., m - n :]
    assert head.shape == (2, 8, 2)
    assert tail.shape == (2, 8, 4)
    assert np.array_equal(np.concatenate([head, tail], axis=2), parts)


def test_full_quantization_edge_case():
    # n == m: the whole channel is the quantized tail, so the direction is
    # h / ||h|| of the same draw.
    re, im = draw((1000, 4), 3)
    h = re + 1j * im
    dirs = sample_directions(4, 1000, np.random.default_rng(3))
    np.testing.assert_allclose(dirs, h / np.linalg.norm(h, axis=1, keepdims=True), atol=1e-15)


def test_gamma_theta_decompose_norm():
    # m = 5, n = 2: gamma = ||h_q||^2 and theta = ||h_unq||^2 split ||h||^2,
    # and [h_unq; sqrt(gamma) direction] rebuilds h.
    re, im = draw((100, 5), 11)
    h = re + 1j * im
    power = re**2 + im**2
    gamma, theta = power[:, 3:].sum(axis=1), power[:, :3].sum(axis=1)
    assert np.abs(gamma + theta - np.sum(np.abs(h) ** 2, axis=1)).max() <= 1e-10
    direction = h[:, 3:] / np.sqrt(gamma)[:, None]
    assert np.abs(np.linalg.norm(direction, axis=1) - 1.0).max() <= 1e-12
    np.testing.assert_allclose(
        np.concatenate([h[:, :3], direction * np.sqrt(gamma)[:, None]], 1), h, atol=1e-12)


def test_gamma_mean_matches_quantized_dim():
    # E[gamma] = n for CN(0, I_n) tails; n = 4 here.
    re, im = draw((100_000, 4), 2024)
    gammas = np.sum(re**2 + im**2, axis=1)
    assert abs(gammas.mean() - 4.0) < 0.05


def test_gamma_distribution_ks():
    # ||h_q||^2 is a sum of n unit-mean exponentials, i.e. Gamma(n, 1).
    re, im = draw((10_000, 6), 5)
    gammas = np.sum(re[:, 2:] ** 2 + im[:, 2:] ** 2, axis=1)
    result = stats.kstest(gammas, stats.gamma(a=4).cdf)
    assert result.pvalue >= 0.01


def test_per_entry_variance():
    # unit variance per complex entry, split evenly between re/im parts
    re, im = draw((50_000, 4), 17)
    assert np.abs(np.mean(re**2 + im**2, axis=0) - 1.0).max() < 0.02
    assert np.abs(np.var(re, axis=0) - 0.5).max() < 0.02
    assert np.abs(np.var(im, axis=0) - 0.5).max() < 0.02


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
    assert draw((3, 6), 99).tobytes() == draw((3, 6), 99).tobytes()
    assert np.array_equal(sample_directions(4, 3, np.random.default_rng(99)),
                          sample_directions(4, 3, np.random.default_rng(99)))


def test_draw_and_directions_bit_identical_to_reference():
    # All real parts first, then all imaginary parts, and a complex division
    # by sqrt(2): the draw's parts and the directions built from them carry
    # the bytes of the reference formula, not just close values, and leave
    # the generator where the reference leaves it.
    ref, rng = np.random.default_rng(41), np.random.default_rng(41)
    want = complex_gaussian((37, 5), ref)
    re, im = _gaussian_parts(np.empty((2, 37, 5)), rng)
    assert re.tobytes() == want.real.tobytes() and im.tobytes() == want.imag.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state

    ref, rng = np.random.default_rng(43), np.random.default_rng(43)
    h = complex_gaussian((37, 5), ref)
    want = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-300)
    got = sample_directions(5, 37, rng)
    assert got.dtype == np.complex128 and got.shape == (37, 5)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_directions_reject_negative_count():
    rng = np.random.default_rng(0)
    assert sample_directions(3, 0, rng).shape == (0, 3)
    with pytest.raises(ValueError, match="direction count must be nonnegative, got -1"):
        sample_directions(3, -1, rng)
    with pytest.raises(ValueError, match="direction length must be positive, got 0"):
        sample_directions(0, 5, rng)
