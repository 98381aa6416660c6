import numpy as np
import pytest

from oracles import assemble, build
from podsim.link import _group_decoder, candidate_codewords
from podsim.stbc import _REGISTRY, Constellation, PodStructure, _slot_alphabets, get_design

REAL_KINDS = ["real-od-2", "real-od-4", "real-od-8", "real-od-6x8"]


def random_psd_precoder(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g @ g.conj().T + 0.1 * np.eye(n)
    return h * np.sqrt(n / np.sum(np.abs(h) ** 2))


def test_registry_shapes():
    # m, t and is_real are read off each builder; these are the shapes the
    # paper's designs have.
    expected = {
        "real-od-2": (2, 2, 2, True),
        "real-od-4": (4, 4, 4, True),
        "real-od-8": (8, 8, 8, True),
        "real-od-6x8": (6, 8, 8, True),
        "alamouti": (2, 2, 2, False),
        "qostbc-4": (4, 4, 4, False),
    }
    assert set(_REGISTRY) == set(expected)
    for kind, shape in expected.items():
        d = get_design(kind)
        assert (d.m, d.t, d.n_sym, d.is_real) == shape
    with pytest.raises(ValueError):
        get_design("bogus")


def test_od4_all_ones_columns():
    z = build(get_design("real-od-4"), [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(z[:, 0].real, [1, 1, 1, 1])
    assert np.array_equal(z[:, 1].real, [-1, 1, -1, 1])
    assert np.array_equal(z[:, 2].real, [-1, 1, 1, -1])
    assert np.array_equal(z[:, 3].real, [-1, -1, 1, 1])


def test_real_designs_orthogonal():
    rng = np.random.default_rng(8)
    for kind in REAL_KINDS:
        d = get_design(kind)
        for _ in range(250):
            sym = rng.standard_normal(d.n_sym)
            z = build(d, sym)
            gram = z @ z.conj().T
            target = np.sum(sym**2) * np.eye(d.m)
            assert np.abs(gram - target).max() <= 1e-10


def test_bpsk_gram_scale():
    z = build(get_design("real-od-4"), [1.0, -1.0, 1.0, 1.0])
    assert np.abs(z @ z.conj().T - 4 * np.eye(4)).max() <= 1e-12


def test_6x8_is_truncated_8x8():
    rng = np.random.default_rng(5)
    sym = rng.standard_normal(8)
    z8 = build(get_design("real-od-8"), sym)
    z6 = build(get_design("real-od-6x8"), sym)
    assert np.array_equal(z6, z8[:6, :])


def test_alamouti_orthogonal_and_first_row_receive():
    rng = np.random.default_rng(9)
    d = get_design("alamouti")
    for _ in range(100):
        sym = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = build(d, sym)
        assert np.abs(z @ z.conj().T - np.sum(np.abs(sym) ** 2) * np.eye(2)).max() <= 1e-12
    # channel (1, 0): noiseless receive vector involves only the first antenna row
    z = build(d, [2.0 + 1.0j, -0.5 + 0.25j])
    y = z.conj().T @ np.array([1.0, 0.0])
    assert np.allclose(y, np.array([2.0 - 1.0j, 0.5 - 0.25j]))


def test_qostbc_gram_coupling_pattern():
    # Gram = a I + c (E14 + E41 - E23 - E32): quasi-orthogonal with coupled
    # antenna pairs (1,4) and (2,3); every other off-diagonal entry vanishes.
    rng = np.random.default_rng(10)
    d = get_design("qostbc-4")
    for _ in range(100):
        sym = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = build(d, sym) @ build(d, sym).conj().T
        a = np.sum(np.abs(sym) ** 2)
        assert np.abs(np.diag(g) - a).max() <= 1e-12
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert abs(g[i, j]) <= 1e-12
        assert abs(g[0, 3] + g[1, 2]) <= 1e-12  # equal magnitude, opposite sign
        assert abs(g[0, 3].imag) <= 1e-12


def test_qostbc_metric_separates_stated_pairs():
    # ML metric must split as f(z1, z3) + g(z2, z4) + const for any channel:
    # the four-point difference over one pair with the other pair fixed is zero.
    rng = np.random.default_rng(11)
    d = get_design("qostbc-4")
    h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def metric(sym):
        return np.linalg.norm(y - build(d, sym).conj().T @ h) ** 2

    base = np.array([1 + 0j, 1j, -1, -1j])
    rot = base * np.exp(1j * np.pi / 4)

    def sym(i1, i2, i3, i4):
        return np.array([base[i1], base[i2], rot[i3], rot[i4]])

    for i1, i2, i3, i4 in [(1, 2, 3, 0), (2, 2, 2, 2), (3, 0, 1, 2), (0, 3, 2, 1)]:
        defect = metric(sym(i1, i2, i3, i4)) + metric(sym(0, 0, 0, 0)) \
            - metric(sym(i1, 0, i3, 0)) - metric(sym(0, i2, 0, i4))
        assert abs(defect) <= 1e-10


def test_build_validation():
    d = get_design("real-od-4")
    with pytest.raises(ValueError):
        build(d, [1.0, 1.0])
    with pytest.raises(ValueError):
        build(d, np.array([1.0, 1j, 1.0, 1.0]))


def test_constellation_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown constellation kind 'qpsk-rot45'"):
        Constellation("qpsk-rot45")  # the CLI's name; the library's is "qpsk-rot"


def test_coefficient_tensors_reproduce_builder():
    rng = np.random.default_rng(12)
    for kind in sorted(_REGISTRY):
        d = get_design(kind)
        a, b = d.coefficient_tensors()
        for _ in range(20):
            sym = rng.standard_normal(d.n_sym)
            if not d.is_real:
                sym = sym + 1j * rng.standard_normal(d.n_sym)
            direct = build(d, sym)
            via = np.einsum("k,kmt->mt", sym.astype(complex), a) + np.einsum(
                "k,kmt->mt", np.conj(sym).astype(complex), b
            )
            assert np.abs(direct - via).max() <= 1e-12
        if d.is_real:
            assert np.abs(b).max() == 0.0


def test_assemble_identity_precoder_is_inner():
    rng = np.random.default_rng(13)
    for kind, n in [("real-od-4", 2), ("real-od-4", 4), ("real-od-6x8", 4)]:
        d = get_design(kind)
        pod = PodStructure(inner=d, n=n)
        sym = rng.standard_normal(d.n_sym)
        assert np.allclose(assemble(pod, np.eye(n), sym), build(d, sym))


def test_assemble_partial_precoding_structure():
    # n=2 on the 4x4 design: head rows untouched, tail sub-vectors premultiplied.
    rng = np.random.default_rng(14)
    d = get_design("real-od-4")
    pod = PodStructure(inner=d, n=2)
    p = random_psd_precoder(2, rng)
    sym = rng.standard_normal(4)
    z = build(d, sym)
    out = assemble(pod, p, sym)
    assert np.allclose(out[:2, :], z[:2, :])
    for col in range(4):
        assert np.allclose(out[2:, col], p @ z[2:, col])
    # first column tail is P (z3, z4), third column tail is P (z1, -z2)
    assert np.allclose(out[2:, 0], p @ np.array([sym[2], sym[3]], dtype=complex))
    assert np.allclose(out[2:, 2], p @ np.array([sym[0], -sym[1]], dtype=complex))


def test_assemble_codeword_power():
    # Orthogonal rows make the power exact: t(m-n) + t ||P||_F^2 = m t.
    rng = np.random.default_rng(15)
    d = get_design("real-od-4")
    pod = PodStructure(inner=d, n=4)
    for _ in range(10):
        p = random_psd_precoder(4, rng)
        sym = rng.choice([-1.0, 1.0], size=4)
        z = assemble(pod, p, sym)
        assert abs(np.sum(np.abs(z) ** 2) - 16.0) <= 1e-9


def test_assemble_rejects_bad_precoder():
    d = get_design("real-od-4")
    pod = PodStructure(inner=d, n=2)
    with pytest.raises(ValueError):
        assemble(pod, np.eye(3), np.ones(4))
    with pytest.raises(ValueError):
        assemble(pod, 2.0 * np.eye(2), np.ones(4))


def test_difference_spectrum_factorizes():
    # (Z - Z') (Z - Z')^H = sum|dz|^2 * blockdiag(I_{m-n}, P P^H) for
    # orthogonal inner designs under a common precoder.
    rng = np.random.default_rng(16)
    cases = [("real-od-2", 1), ("real-od-4", 2), ("real-od-4", 4), ("real-od-6x8", 4), ("alamouti", 2)]
    for kind, n in cases:
        d = get_design(kind)
        pod = PodStructure(inner=d, n=n)
        for _ in range(20):
            p = random_psd_precoder(n, rng)
            s1 = rng.standard_normal(d.n_sym)
            s2 = rng.standard_normal(d.n_sym)
            if not d.is_real:
                s1 = s1 + 1j * rng.standard_normal(d.n_sym)
                s2 = s2 + 1j * rng.standard_normal(d.n_sym)
            delta = assemble(pod, p, s1) - assemble(pod, p, s2)
            target = np.zeros((d.m, d.m), dtype=complex)
            target[: d.m - n, : d.m - n] = np.eye(d.m - n)
            target[d.m - n :, d.m - n :] = p @ p.conj().T
            target *= np.sum(np.abs(np.asarray(s1) - np.asarray(s2)) ** 2)
            assert np.abs(delta @ delta.conj().T - target).max() <= 1e-9


def test_gray_code_adjacency():
    # QPSK index k carries Gray label k ^ (k >> 1); the decoder counts a bit
    # error per differing label bit, so neighbouring points differ in one bit.
    labels = [0b00, 0b01, 0b11, 0b10]
    bit_dist = _group_decoder(get_design("alamouti"), Constellation("qpsk-rot")).bit_dist
    assert bit_dist.tolist() == [[bin(a ^ b).count("1") for b in labels] for a in labels]
    for k in range(4):
        assert bit_dist[k, (k + 1) % 4] == 1


def test_slot_alphabets_bpsk():
    d = get_design("real-od-4")
    alphabets = _slot_alphabets(d, Constellation("bpsk"))
    assert len(alphabets) == 4
    for a in alphabets:
        assert np.array_equal(a, np.array([1.0, -1.0], dtype=complex))


def test_slot_alphabets_qpsk_rotation():
    d = get_design("qostbc-4")
    con = Constellation("qpsk-rot")
    alphabets = _slot_alphabets(d, con)
    base = np.array([1, 1j, -1, -1j], dtype=complex)
    assert np.allclose(alphabets[0], base)
    assert np.allclose(alphabets[1], base)
    assert np.allclose(alphabets[2], base * np.exp(1j * np.pi / 4))
    assert np.allclose(alphabets[3], base * np.exp(1j * np.pi / 4))
    assert np.abs(np.abs(np.concatenate(alphabets)) - 1.0).max() <= 1e-12


def test_real_design_rejects_qpsk():
    with pytest.raises(ValueError):
        _slot_alphabets(get_design("real-od-4"), Constellation("qpsk-rot"))


def test_worst_case_distances():
    # min of sum_k |z_k - z'_k|^2 over distinct candidate symbol vectors: one
    # flipped BPSK symbol gives 4, one QPSK neighbour step 2.
    for kind, const, expect in (("real-od-4", "bpsk", 4.0), ("qostbc-4", "qpsk-rot", 2.0)):
        syms, _ = candidate_codewords(get_design(kind), Constellation(const))
        dist = np.sum(np.abs(syms[:, None, :] - syms[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert abs(dist.min() - expect) <= 1e-12
