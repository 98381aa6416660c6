import numpy as np
import pytest
from scipy import stats

from podsim.channel import ChannelDims, sample_channel, sample_direction, sample_directions


def test_dims_validation():
    ChannelDims(m=4, n=4, t=4)
    ChannelDims(m=6, n=4, t=8)
    with pytest.raises(ValueError):
        ChannelDims(m=4, n=5, t=4)
    with pytest.raises(ValueError):
        ChannelDims(m=4, n=0, t=4)
    with pytest.raises(ValueError):
        ChannelDims(m=0, n=0, t=1)
    with pytest.raises(ValueError):
        ChannelDims(m=2, n=2, t=0)


def test_split_lengths_and_concatenation():
    rng = np.random.default_rng(7)
    ch = sample_channel(ChannelDims(m=6, n=4, t=8), rng)
    assert ch.h.shape == (6,)
    assert ch.h_unq.shape == (2,)
    assert ch.h_q.shape == (4,)
    assert np.array_equal(np.concatenate([ch.h_unq, ch.h_q]), ch.h)


def test_full_quantization_edge_case():
    # n == m: empty head, theta identically zero
    rng = np.random.default_rng(3)
    ch = sample_channel(ChannelDims(m=4, n=4, t=4), rng)
    assert ch.h_unq.shape == (0,)
    assert ch.theta == 0.0
    assert ch.gamma > 0.0


def test_gamma_theta_decompose_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ch = sample_channel(ChannelDims(m=5, n=2, t=4), rng)
        total = float(np.sum(np.abs(ch.h) ** 2))
        assert abs(ch.gamma + ch.theta - total) <= 1e-10
        assert abs(np.linalg.norm(ch.direction) - 1.0) <= 1e-12
        assert np.allclose(ch.direction * np.sqrt(ch.gamma), ch.h_q, atol=1e-12)


def test_gamma_mean_matches_quantized_dim():
    # E[gamma] = n for CN(0, I_n) tails; n = 4 here.
    rng = np.random.default_rng(2024)
    dims = ChannelDims(m=4, n=4, t=4)
    gammas = np.array([sample_channel(dims, rng).gamma for _ in range(100_000)])
    assert abs(gammas.mean() - 4.0) < 0.05


def test_gamma_distribution_ks():
    # ||h_q||^2 is a sum of n unit-mean exponentials, i.e. Gamma(n, 1).
    rng = np.random.default_rng(5)
    dims = ChannelDims(m=6, n=4, t=8)
    gammas = np.array([sample_channel(dims, rng).gamma for _ in range(10_000)])
    result = stats.kstest(gammas, stats.gamma(a=4).cdf)
    assert result.pvalue >= 0.01


def test_per_entry_variance():
    # unit variance per complex entry, split evenly between re/im parts
    rng = np.random.default_rng(17)
    dims = ChannelDims(m=4, n=2, t=2)
    draws = np.array([sample_channel(dims, rng).h for _ in range(50_000)])
    assert np.abs(np.mean(np.abs(draws) ** 2, axis=0) - 1.0).max() < 0.02
    assert np.abs(np.var(draws.real, axis=0) - 0.5).max() < 0.02
    assert np.abs(np.var(draws.imag, axis=0) - 0.5).max() < 0.02


def test_direction_scalar_case():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = sample_direction(1, rng)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) <= 1e-12


def test_direction_uniformity_moments():
    # E[v v^H] = I/n on the complex unit sphere.
    rng = np.random.default_rng(23)
    vs = np.stack([sample_direction(4, rng) for _ in range(50_000)])
    assert abs(np.mean(np.abs(vs[:, 0]) ** 2) - 0.25) < 0.01

    rng = np.random.default_rng(29)
    vs2 = np.stack([sample_direction(2, rng) for _ in range(50_000)])
    second_moment = np.einsum("ka,kb->ab", vs2, vs2.conj()) / len(vs2)
    assert np.abs(second_moment - 0.5 * np.eye(2)).max() < 0.01


def test_deterministic_given_seed():
    dims = ChannelDims(m=6, n=4, t=8)
    a = sample_channel(dims, np.random.default_rng(99))
    b = sample_channel(dims, np.random.default_rng(99))
    assert np.array_equal(a.h, b.h)
    assert a.gamma == b.gamma
    assert np.array_equal(a.direction, b.direction)


def test_directions_reject_negative_count():
    rng = np.random.default_rng(0)
    assert sample_directions(3, 0, rng).shape == (0, 3)
    with pytest.raises(ValueError, match="direction count must be nonnegative, got -1"):
        sample_directions(3, -1, rng)
