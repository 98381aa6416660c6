import logging
import re
import tracemalloc

import numpy as np
import pytest

import podsim.feedback
from podsim.codebook import PrecoderCodebook
from podsim.feedback import (
    FeedbackChannel,
    _chordal_distance_matrix,
    _num_bits,
    bsc_inversion_matrix,
    load_mapping,
    mapping_cost,
    optimize_mapping,
    save_mapping,
)

from oracles import transmit_reference


def rank_one_codebook(directions, power):
    """Stack of power * u u^H matrices from unit column directions."""
    mats = np.stack([power * np.outer(u, u.conj()) for u in directions])
    return mats


def anneal(mats, marginals, rho_f, n_iter, seed):
    """optimize_mapping on the codebook of the entries mats, each of power N."""
    cb = PrecoderCodebook(m=mats.shape[1], matrices=mats, eta_c=1.0, rho_d=0.0,
                          marginals=marginals)
    return optimize_mapping(cb, rho_f, n_iter, np.random.default_rng(seed))


def test_noiseless_matrix_is_identity():
    p = bsc_inversion_matrix(2, 0.0)
    assert p[0, 0] == 1.0
    assert p[1, 0] == 0.0
    assert np.array_equal(p, np.eye(2))


def test_uniform_at_half_crossover():
    p = bsc_inversion_matrix(4, 0.5)
    assert np.array_equal(p, np.full((4, 4), 0.25))


def test_inversion_matrix_holds_two_tables_at_most():
    # Each entry is looked up by the Hamming weight of i ^ j in a (b + 1)-entry
    # law, so no more than two K x K arrays are alive at once.
    k = 1024
    tracemalloc.start()
    try:
        bsc_inversion_matrix(k, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * k * k * 8


def test_two_bit_error_probability():
    # K=16, rho=0.04, indices at Hamming distance 2: rho^2 (1-rho)^2
    p = bsc_inversion_matrix(16, 0.04)
    assert abs(p[3, 0] - 0.00147456) <= 1e-12
    assert abs(p[0, 3] - 0.04**2 * 0.96**2) <= 1e-15
    # diagonal carries the no-error mass (1-rho)^b
    assert np.allclose(np.diag(p), 0.96**4)


def test_matrix_is_column_stochastic_and_symmetric():
    # Also under a mapping: the permuted matrix mapping_cost builds.
    rng = np.random.default_rng(0)
    for k, rho in [(2, 0.3), (8, 0.04), (16, 0.11), (16, 0.5)]:
        perm = rng.permutation(k)
        for p in (bsc_inversion_matrix(k, rho), bsc_inversion_matrix(k, rho)[np.ix_(perm, perm)]):
            assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(p - p.T).max() <= 1e-15


def test_mapping_permutes_error_pattern():
    # mapping_cost scores perm by p_f(perm[j] | perm[i]): with all of the
    # usage on i and unit distortion on (i, j) alone, the cost is that entry.
    perm = np.array([2, 0, 3, 1])
    p_plain = bsc_inversion_matrix(4, 0.1)
    for i in range(4):
        for j in range(4):
            dist = np.zeros((4, 4))
            dist[i, j] = 1.0
            got = mapping_cost(perm, p_plain, np.eye(4)[i], dist)
            assert got == p_plain[perm[j], perm[i]]


def test_mapping_irrelevant_at_extreme_crossover():
    rng = np.random.default_rng(4)
    for rho in (0.0, 0.5):
        base = bsc_inversion_matrix(8, rho)
        for _ in range(5):
            perm = rng.permutation(8)
            assert np.abs(base[np.ix_(perm, perm)] - base).max() <= 1e-15


def test_degenerate_single_index():
    assert np.array_equal(bsc_inversion_matrix(1, 0.3), np.array([[1.0]]))


def test_validation(tmp_path):
    with pytest.raises(ValueError):
        bsc_inversion_matrix(3, 0.1)
    with pytest.raises(ValueError):
        bsc_inversion_matrix(4, 0.6)
    with pytest.raises(ValueError):
        FeedbackChannel(k=1, rho_f=0.1)
    with pytest.raises(ValueError, match="permutation"):
        save_mapping(tmp_path / "map.txt", np.array([0, 0, 1, 2]))
    assert not (tmp_path / "map.txt").exists()


def test_index_count_is_sized_before_any_table(monkeypatch):
    # Every K x K table sizes K first: K = 2^15 would need 2^30 elements
    # (8 GiB) per table and is rejected before anything is allocated. No
    # codebook of that K can be built, so the annealer, which takes one,
    # never reaches its distance table. K = 2^14 (2 GiB) is allowed.
    assert _num_bits(2**14) == 14

    def no_table(matrices):
        raise AssertionError("built a K x K table before sizing K")

    monkeypatch.setattr(podsim.feedback, "_chordal_distance_matrix", no_table)
    k, message = 2**15, "K=32768 needs an array of 1073741824 elements"
    with pytest.raises(ValueError, match=message):
        bsc_inversion_matrix(k, 0.1)
    with pytest.raises(ValueError, match=message):
        FeedbackChannel(k=k, rho_f=0.1)
    with pytest.raises(ValueError, match=message):
        anneal(np.ones((k, 1, 1), complex), np.full(k, 1.0 / k), 0.1, n_iter=10, seed=0)


def test_transmit_noiseless_is_identity():
    chan = FeedbackChannel(k=8, rho_f=0.0)
    rng = np.random.default_rng(1)
    sent = np.tile(np.arange(8), 100)
    assert np.array_equal(chan.transmit_batch(sent, rng), sent)


@pytest.mark.parametrize("rho_f", [0.0, 0.04, 0.5])
@pytest.mark.parametrize("k", [2, 4, 16, 256])
def test_transmit_matches_reference_formula(k, rho_f):
    # The same uniform draws, the same flip patterns, the same indices.
    sent = np.random.default_rng(3).integers(0, k, 5000)
    out = FeedbackChannel(k=k, rho_f=rho_f).transmit_batch(sent, np.random.default_rng(k))
    assert out.dtype == np.int64
    assert np.array_equal(out, transmit_reference(sent, k, rho_f, np.random.default_rng(k)))


def test_transmit_empirical_distribution():
    chan = FeedbackChannel(k=4, rho_f=0.1)
    rng = np.random.default_rng(12)
    out = chan.transmit_batch(np.zeros(100_000, dtype=np.int64), rng)
    freq = np.bincount(out, minlength=4) / 100_000
    assert np.abs(freq - np.array([0.81, 0.09, 0.09, 0.01])).max() < 0.01


def test_transmit_uniform_at_half():
    chan = FeedbackChannel(k=16, rho_f=0.5)
    rng = np.random.default_rng(13)
    out = chan.transmit_batch(np.full(100_000, 5, dtype=np.int64), rng)
    freq = np.bincount(out, minlength=16) / 100_000
    assert np.abs(freq - 1.0 / 16).max() < 0.01


def test_inversion_probability_matches_matrix():
    # p_f(j|i) = rho^d (1 - rho)^(b - d), d the Hamming distance of the
    # mapped bit patterns, one pair at a time, in the permuted matrix that
    # mapping_cost builds.
    mapping = np.array([4, 2, 7, 0, 3, 6, 1, 5])
    p = bsc_inversion_matrix(8, 0.07)[np.ix_(mapping, mapping)]
    for i in range(8):
        for j in range(8):
            d = int(mapping[i] ^ mapping[j]).bit_count()
            assert abs(0.07**d * 0.93 ** (3 - d) - p[j, i]) <= 1e-15


def test_dominant_directions_rank_one():
    # The dominant direction of power * u u^H is u, so the distances are
    # those of the input directions. Orthonormal inputs alone would also pass
    # with the wrong eigenvector, so skewed ones follow.
    z = np.random.default_rng(12).standard_normal((3, 3, 2)) @ [1.0, 1j]
    for dirs in (np.eye(3, dtype=complex), z / np.linalg.norm(z, axis=1, keepdims=True)):
        mats = rank_one_codebook(dirs, power=2.0)
        got = _chordal_distance_matrix(mats)
        want = 1.0 - np.abs(dirs @ dirs.conj().T) ** 2
        assert np.abs(got - want).max() <= 1e-12


def test_chordal_distance_endpoints():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    # entries with dominant directions e0, e1 and a phase-rotated e0
    dist = _chordal_distance_matrix(rank_one_codebook([e0, e1, e0 * np.exp(0.7j)], power=1.0))
    assert dist[0, 0] == 0.0
    assert dist[0, 1] == 1.0
    # invariant to a phase on either direction
    assert abs(dist[2, 0]) <= 1e-15


def test_mapping_cost_small_case():
    # K=2, p=[0.5, 0.5], |<u0,u1>|^2 = 0.75, rho=0.1:
    # D = 2 * 0.5 * 0.1 * 0.25 = 0.025 for either permutation.
    u0 = np.array([1.0, 0.0], dtype=complex)
    u1 = np.array([np.sqrt(0.75), 0.5], dtype=complex)
    dist = np.array([[0.0, 0.25], [0.25, 0.0]])
    measured = _chordal_distance_matrix(rank_one_codebook([u0, u1], power=1.0))
    assert abs(dist[0, 1] - measured[0, 1]) <= 1e-12
    bit_matrix = bsc_inversion_matrix(2, 0.1)
    marg = np.array([0.5, 0.5])
    assert abs(mapping_cost(np.array([0, 1]), bit_matrix, marg, dist) - 0.025) <= 1e-12
    assert abs(mapping_cost(np.array([1, 0]), bit_matrix, marg, dist) - 0.025) <= 1e-12


def test_anneal_noiseless_returns_identity_with_zero_cost():
    rng = np.random.default_rng(3)
    dirs = np.stack([v / np.linalg.norm(v) for v in rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))])
    mats = rank_one_codebook(dirs, power=np.sqrt(2.0))
    marg = np.full(4, 0.25)
    perm = anneal(mats, marg, 0.0, n_iter=200, seed=0)
    assert np.array_equal(perm, np.arange(4))


def test_anneal_symmetric_codebook_returns_identity():
    # Orthonormal dominant directions: all pairs equidistant, every mapping
    # costs the same, so the identity must come back.
    mats = rank_one_codebook(np.eye(4, dtype=complex), power=2.0)
    marg = np.full(4, 0.25)
    perm = anneal(mats, marg, 0.1, n_iter=500, seed=5)
    assert np.array_equal(perm, np.arange(4))


def exhaustive_best_cost(mats, marg, rho):
    from itertools import permutations

    dist = _chordal_distance_matrix(mats)
    bit_matrix = bsc_inversion_matrix(len(mats), rho)
    best = np.inf
    for perm in permutations(range(len(mats))):
        best = min(best, mapping_cost(np.array(perm), bit_matrix, marg, dist))
    return best


def test_anneal_matches_exhaustive_minimum_k4():
    rng = np.random.default_rng(77)
    z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    dirs = np.stack([v / np.linalg.norm(v) for v in z])
    mats = rank_one_codebook(dirs, power=np.sqrt(3))
    marg = rng.random(4)
    marg /= marg.sum()

    best = exhaustive_best_cost(mats, marg, 0.08)
    perm = anneal(mats, marg, 0.08, n_iter=10_000, seed=9)
    dist = _chordal_distance_matrix(mats)
    got = mapping_cost(perm, bsc_inversion_matrix(4, 0.08), marg, dist)
    assert got <= best + 1e-12


def test_anneal_logs_identity_and_annealed_cost(caplog):
    rng = np.random.default_rng(31)
    z = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    mats = rank_one_codebook([v / np.linalg.norm(v) for v in z], power=2.0)
    marg = np.full(8, 1 / 8)
    with caplog.at_level(logging.INFO, logger="podsim.feedback"):
        perm = anneal(mats, marg, 0.05, n_iter=2000, seed=0)
    bit_matrix = bsc_inversion_matrix(8, 0.05)
    dist = _chordal_distance_matrix(mats)
    costs = [mapping_cost(p, bit_matrix, marg, dist) for p in (np.arange(8), perm)]
    assert costs[1] < costs[0]
    records = [r for r in caplog.records if r.name == "podsim.feedback"]
    assert [r.levelno for r in records] == [logging.INFO]
    assert records[0].getMessage() == "identity cost %.6g, annealed cost %.6g" % tuple(costs)


def test_anneal_never_worse_than_identity():
    rng = np.random.default_rng(31)
    for trial in range(3):
        z = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        dirs = np.stack([v / np.linalg.norm(v) for v in z])
        mats = rank_one_codebook(dirs, power=2.0)
        marg = np.full(8, 1 / 8)
        perm = anneal(mats, marg, 0.05, n_iter=2000, seed=trial)
        dist = _chordal_distance_matrix(mats)
        bit_matrix = bsc_inversion_matrix(8, 0.05)
        got = mapping_cost(perm, bit_matrix, marg, dist)
        ident = mapping_cost(np.arange(8), bit_matrix, marg, dist)
        assert got <= ident + 1e-15


def test_mapping_file_round_trip(tmp_path):
    perm = np.array([2, 0, 3, 1])
    path = tmp_path / "map.txt"
    save_mapping(path, perm)
    assert np.array_equal(load_mapping(path, k=4), perm)
    with pytest.raises(ValueError):
        load_mapping(path, k=8)


def test_mapping_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a mapping\n")
    with pytest.raises(ValueError):
        load_mapping(path, k=4)
    path.write_text("PODMAP 1\nK 4\n1 1 2 3\n")
    with pytest.raises(ValueError, match="permutation"):
        load_mapping(path, k=4)
    # The header is exactly "K <int>", and every parse error names the file.
    for text in ("PODMAP 1\nK 4 junk\n1 2 3 4\n", "PODMAP 1\nK x\n1 2 3 4\n",
                 "PODMAP 1\nK 4.0\n1 2 3 4\n", "PODMAP 1\nK 4\n1 2 3 4.0\n",
                 "PODMAP 1\nK 4\n1 2 3 99999999999999999999\n", "PODMAP 1\nK 4\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed mapping file"):
            load_mapping(path, k=4)
