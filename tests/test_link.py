"""Link-level simulation tests.

Oracles:

* every design has a fixed rotation T with T^T Gamma T diagonal, and the
  noiseless statistic of a received block, T^T r with r = U^T y of the
  oracle's y = Z_pod(s)^H h, is lambda x' for every candidate s: the gains
  lambda of the sweep's tables times the candidate's rotated components.
* the group-separable ML decoder, deciding a batch of frames from the
  statistic r = U^T y of fixed received blocks, is checked against a
  second, blind brute-force implementation, against the standard linear
  matched-filter detector for real orthogonal designs with identity
  precoding, and, in sweeps, against pinned error counts.
* Gamma from the quadratic-form kernel matches U^T U on every (design,
  constellation) pair; L = 1 gain on every orthogonal design and 2 on
  qostbc-4. The sweep's gains match diag(T^T Gamma T) of explicitly
  precoded channels, head-tail cross terms included, and its encoder on
  F(tail) / ||tail||^2 picks the indices of the complex-direction route in
  the oracles.
* the Alamouti block with h = (1, 0) only sees the first antenna row:
  y = (conj(s1), -s2).
* empirical noise variance of the reference blocks must match sigma_n2 =
  m / eta0 within 2%; on every pair, the drawn statistic's noise r' -
  lambda x' must have mean 0 and variance sigma_n2 / 2 * lambda.
* on real orthogonal designs with BPSK, the error count of fixed channels
  follows the Poisson-binomial law of the per-bit probabilities
  Q(sqrt(2 gamma_c / sigma_n2)); on qostbc-4, the sweep's error counts on
  fixed channels follow the law of the received-block route.
"""

import dataclasses
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import podsim.link
from podsim.codebook import PrecoderCodebook, load_codebook, project_psd_power
from podsim.feedback import FeedbackChannel, bsc_inversion_matrix
from podsim.link import (
    BerResult,
    SimulationConfig,
    candidate_codewords,
    run_ber_sweep,
    write_ber_csv,
)
from podsim.link import (
    _BER_CSV_HEADER,
    _block_errors,
    _effective_channels,
    _group_decoder,
    _precoders,
    _sampler,
    _Scratch,
    _worker_count,
)
from podsim.stbc import Constellation, InnerDesign, PodStructure, _slot_alphabets, get_design
from podsim.trainer import (
    TrainerConfig,
    _coordinates,
    _direction_features,
    _features,
    _gram,
    fit,
)

from oracles import (
    assemble,
    build,
    candidate_quads,
    complex_gaussian,
    components,
    decode_frames,
    feature_encode,
    kernel_encode,
    kernel_features,
    kernel_gamma,
    matched_filter_real_od,
    naive_ml_decode,
    received_block,
    statistic,
    tail_directions,
)

# (design, constellation, precoded tail n) of the batched decoder checks.
DECODER_CASES = [
    ("real-od-2", "bpsk", 2),
    ("real-od-4", "bpsk", 2),
    ("alamouti", "qpsk-rot", 2),
    ("qostbc-4", "qpsk-rot", 4),
]

# Every (design, constellation) pair; all but qostbc-4's are orthogonal designs.
DESIGN_PAIRS = [
    ("real-od-2", "bpsk"), ("real-od-4", "bpsk"), ("real-od-6x8", "bpsk"),
    ("real-od-8", "bpsk"), ("alamouti", "bpsk"), ("alamouti", "qpsk-rot"),
    ("qostbc-4", "bpsk"), ("qostbc-4", "qpsk-rot"),
]


def random_precoder(n, rng, spread=0.4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return project_psd_power(np.eye(n) + spread * g, n)


def random_symbols(design, constellation, rng):
    alphabets = _slot_alphabets(design, constellation)
    return np.array([a[rng.integers(len(a))] for a in alphabets])


def small_trained_codebook(m=2, n=2, k=4, rho_d=0.0, eta_c=2.5, seed=101):
    cfg = TrainerConfig(
        m=m, n=n, k=k, eta_c=eta_c, rho_d=rho_d, n_train=3000,
        inner_iters=5, max_rounds=40, tol=1e-6, step_m=63.0,
    )
    return fit(cfg, np.random.default_rng(seed)).codebook


def table_gains(decoder, pod, h, precoders=None):
    """The sweep's gains F(h) . g(B M_l B^H) of each frame, h[f] precoded by
    precoders[f] (a power-of-two count), or unprecoded without precoders:
    shape (F, L)."""
    if precoders is None:
        tables = _precoders(None, decoder, pod.m)[2][[0] * len(h)]
    else:
        k = len(precoders)
        cb = PrecoderCodebook(m=pod.m, matrices=precoders, eta_c=1.0, rho_d=0.0,
                              marginals=np.full(k, 1.0 / k))
        tables = _precoders(cb, decoder, pod.m)[2]
    return np.einsum("flk,fk->fl", tables, kernel_features(h))


def precoded(h, precoders, n):
    """h_eff = [head; P^H tail] of each frame, formed explicitly."""
    h_eff = np.array(h, dtype=complex)
    h_eff[:, h_eff.shape[1] - n :] = (h_eff[:, None, -n:] @ np.conj(precoders))[:, 0, :]
    return h_eff


def random_frames(pod, const, frames, sigma_n2, rng):
    """Per frame: a precoder, a channel, transmitted symbols and the received
    reference block."""
    precoders = np.stack([random_precoder(pod.n, rng) for _ in range(frames)])
    h = complex_gaussian((frames, pod.m), rng)
    syms = np.stack([random_symbols(pod.inner, const, rng) for _ in range(frames)])
    y = np.stack([
        received_block(pod, p, s, hf, sigma_n2, rng) for p, s, hf in zip(precoders, syms, h)
    ])
    return precoders, h, syms, y


def test_noise_variance_formula(monkeypatch):
    # Each SNR point's chunks run at sigma_n2 = m / eta0.
    seen = []

    def record(decoder, gains, blocks, sigma_n2, rng, scratch):
        seen.append(sigma_n2)
        return 0

    monkeypatch.setattr(podsim.link, "_block_errors", record)
    for kind, snr_db in (("real-od-4", 0.0), ("real-od-2", 10.0)):
        design = get_design(kind)
        run_ber_sweep(SimulationConfig(
            snr_grid_db=[snr_db], frames=1, pod=PodStructure(inner=design, n=design.m),
            constellation=Constellation("bpsk"),
        ))
    assert seen == [pytest.approx(4.0), pytest.approx(0.2)]


def test_non_finite_noise_is_an_error():
    # Validation keeps sigma_n2 times any gain finite. Should a gain pass
    # that ceiling anyway, the draw raises rather than decide from nan metrics.
    decoder = _group_decoder(get_design("real-od-4"), Constellation("bpsk"))
    gains = np.full((3, 1), 4.0)
    with pytest.raises(ValueError, match="not finite"):
        _block_errors(decoder, gains, 2, 1e308, np.random.default_rng(0), _Scratch())


def test_transmit_block_noiseless_matches_codeword_projection():
    # For the oracle's noiseless y = Z_pod(s)^H h and its statistic r = U^T y
    # (u = R^H h_eff), the rotated T^T r must be lambda x' for every candidate
    # s, lambda from the sweep's gain tables and x' = cand_points[s].
    rng = np.random.default_rng(0)
    for kind, const_kind, n in DECODER_CASES:
        pod = PodStructure(inner=get_design(kind), n=n)
        const = Constellation(const_kind)
        decoder = _group_decoder(pod.inner, const)
        syms, _ = candidate_codewords(pod.inner, const)
        precoders = np.stack([random_precoder(n, rng) for _ in range(2)])
        h = complex_gaussian((2, pod.m), rng)
        h_eff = precoded(h, precoders, n)
        lam = table_gains(decoder, pod, h, precoders)[:, decoder.component_gain]
        for f in range(2):
            y = np.stack([received_block(pod, precoders[f], s, h[f], 0.0, rng) for s in syms])
            r, _ = statistic(pod.inner, const, np.broadcast_to(h_eff[f], (len(syms), pod.m)), y)
            np.testing.assert_allclose(
                r @ decoder.rotation, lam[f] * decoder.cand_points, atol=1e-12, err_msg=kind
            )


def test_transmit_block_alamouti_single_path():
    # h = (1, 0) sees the first antenna row, y = (conj(s1), -s2); h = (0, 1)
    # the second, y = (conj(s2), s1). Either way lambda = ||h||^2 = 1, so the
    # noiseless statistic is the candidate's own components, T = I.
    rng = np.random.default_rng(1)
    design = get_design("alamouti")
    pod = PodStructure(inner=design, n=2)
    const = Constellation("qpsk-rot")
    decoder = _group_decoder(design, const)
    syms, _ = candidate_codewords(design, const)
    eye = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(decoder.rotation, np.eye(4))
    np.testing.assert_allclose(table_gains(decoder, pod, eye), 1.0, atol=1e-15)
    seen = (np.stack([syms[:, 0].conj(), -syms[:, 1]], 1),
            np.stack([syms[:, 1].conj(), syms[:, 0]], 1))
    for h, want in zip(eye, seen):
        y = np.stack([received_block(pod, eye, s, h, 0.0, rng) for s in syms])
        np.testing.assert_allclose(y, want, atol=1e-14)
        r, _ = statistic(design, const, np.broadcast_to(h, (len(syms), 2)), y)
        np.testing.assert_allclose(r, decoder.cand_points, atol=1e-14)


def test_transmit_block_noise_variance_empirical():
    rng = np.random.default_rng(2)
    pod = PodStructure(inner=get_design("real-od-2"), n=2)
    h = complex_gaussian(2, rng)
    sym = np.array([1.0, -1.0])
    p = np.eye(2, dtype=complex)
    clean = assemble(pod, p, sym).conj().T @ h
    sigma_n2 = 2.0 / 10.0 ** (7.0 / 10.0)  # m / eta0
    resid = np.stack([received_block(pod, p, sym, h, sigma_n2, rng) for _ in range(30000)])
    measured = float(np.mean(np.abs(resid - clean) ** 2))
    assert measured == pytest.approx(sigma_n2, rel=0.02)


def test_drawn_statistic_moments():
    # r' - lambda x' = w ~ N(0, sigma_n2 / 2 * Lambda) for one fixed h_eff:
    # in the rotated basis Gamma is diagonal, so each component is its own
    # normal. The sampler takes the gains of the sweep's tables, and the
    # oracle's T^T Gamma T gives the moments. 20000 draws put the sample
    # variance's standard error at 1 %, so 5 % is a 5 sigma bound.
    rng = np.random.default_rng(2)
    frames = 20_000
    for kind, const_kind in DESIGN_PAIRS:
        design, const = get_design(kind), Constellation(const_kind)
        decoder = _group_decoder(design, const)
        h_eff = complex_gaussian((1, design.m), rng)
        sigma_n2 = design.m / 10.0 ** (7.0 / 10.0)
        gains = table_gains(decoder, PodStructure(inner=design, n=design.m), h_eff)
        draw, _ = _sampler(decoder, np.repeat(gains, frames, axis=0), sigma_n2, _Scratch())
        tx = rng.integers(0, len(decoder.cand_points), size=(frames, 1))
        r = draw(tx, rng)[:, 0, :]
        gamma = statistic(design, const, h_eff, np.zeros((1, design.t)))[1][0]
        lam = np.diagonal(decoder.rotation.T @ gamma @ decoder.rotation)
        x = decoder.cand_points[tx[:, 0]]
        w = r - x * lam
        want = sigma_n2 / 2.0 * lam
        # w has mean 0, also given the sent x: a misscaled signal would not.
        assert np.all(np.abs(w.mean(axis=0)) <= 5.0 * np.sqrt(want / frames)), kind
        bound = 5.0 * np.sqrt(want * np.mean(x**2, axis=0) / frames)
        assert np.all(np.abs(np.mean(w * x, axis=0)) <= bound), kind
        np.testing.assert_allclose(w.var(axis=0), want, rtol=0.05, err_msg=kind)


@pytest.mark.parametrize("kind,const", sorted(DESIGN_PAIRS))
def test_kernel_gamma_matches_projection(kind, const):
    # Gamma_cd = Re(u_c^H u_d) from the coefficient tensors against the
    # kernel's F(h_eff) . g(Herm(R_c R_d^H)); rectangular R (real-od-6x8)
    # included. The decoder's fixed rotation T makes T^T Gamma T diagonal for
    # every channel, and its diagonal is lambda from the gain tables, with one
    # distinct gain on the orthogonal designs (Herm(R_c R_d^H) = 2 delta_cd
    # kappa_c I, T = I and Gamma = ||h_eff||^2 diag(kappa)) and two on
    # qostbc-4. The x^T Gamma x the sampler forms from the gains match.
    rng = np.random.default_rng(8)
    design, constellation = get_design(kind), Constellation(const)
    decoder = _group_decoder(design, constellation)
    h_eff = complex_gaussian((16, design.m), rng)
    _, gamma = statistic(design, constellation, h_eff, np.zeros((16, design.t)))
    kernel = kernel_gamma(design, constellation, h_eff)
    np.testing.assert_allclose(kernel, gamma, rtol=0, atol=1e-12)
    rot = decoder.rotation
    np.testing.assert_allclose(rot.T @ rot, np.eye(len(rot)), rtol=0, atol=1e-12)
    rotated = rot.T @ gamma @ rot
    lam = np.einsum("fcc->fc", rotated)
    np.testing.assert_allclose(rotated, lam[:, :, None] * np.eye(len(rot)), rtol=0, atol=1e-12)
    gains = table_gains(decoder, PodStructure(inner=design, n=design.m), h_eff)
    np.testing.assert_allclose(gains[:, decoder.component_gain], lam, rtol=0, atol=1e-12)
    assert len(decoder.gains) == (2 if kind == "qostbc-4" else 1)
    comps = components(design, constellation)
    prod = np.einsum("cmt,dnt->cdmn", comps, comps.conj())
    herm = prod + prod.conj().swapaxes(-1, -2)
    kappa = herm[np.arange(len(comps)), np.arange(len(comps)), 0, 0].real / 2.0
    want = np.einsum("cd,c,mn->cdmn", np.eye(len(comps)), 2.0 * kappa, np.eye(design.m))
    orthogonal = np.abs(herm - want).max() <= 1e-12
    assert orthogonal == (kind != "qostbc-4")
    if orthogonal:
        np.testing.assert_array_equal(rot, np.eye(len(rot)))
        gain = np.sum(np.abs(h_eff) ** 2, axis=1)
        np.testing.assert_allclose(
            gamma, gain[:, None, None] * np.diag(kappa), rtol=0, atol=1e-12
        )
    _, quad = _sampler(decoder, gains, 1.0, _Scratch())
    np.testing.assert_allclose(quad, candidate_quads(decoder, gamma), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["real-od-2", "real-od-4", "real-od-6x8", "real-od-8"])
def test_block_errors_follow_conditional_ber(kind):
    # Given h_eff, a real orthogonal design with BPSK errs on bit c of a block
    # independently with probability Q(sqrt(2 gamma_c / sigma_n2)), so the
    # count over fixed channels is Poisson-binomial: mean sum p, variance
    # v = sum p (1 - p). Bernstein's inequality bounds its two-sided tail:
    # P(|count - mean| >= d) <= 2 exp(-d^2 / (2 (v + d / 3))) = alpha.
    alpha = 1e-6
    rng = np.random.default_rng(31)
    design = get_design(kind)
    const = Constellation("bpsk")
    frames, blocks = 1024, 64
    sigma_n2 = design.m / 10.0 ** (6.0 / 10.0)
    h_eff = complex_gaussian((frames, design.m), rng)
    gamma = np.einsum("fcc->fc", statistic(design, const, h_eff, np.zeros((frames, design.t)))[1])
    gain = np.sum(np.abs(h_eff) ** 2, axis=1)
    p = np.array([[0.5 * math.erfc(math.sqrt(g / sigma_n2)) for g in row] for row in gamma])
    mean = blocks * p.sum()
    var = blocks * (p * (1.0 - p)).sum()
    log_term = math.log(2.0 / alpha)
    bound = log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)
    errors = _block_errors(
        _group_decoder(design, const), gain[:, None], blocks, sigma_n2, rng, _Scratch()
    )
    assert abs(errors - mean) <= bound, (errors, mean, bound)


def test_qostbc4_errors_follow_received_block_route():
    # The sweep draws qostbc-4's rotated statistic r'; the oracle route sends
    # y = Z(s)^H h + n through received_block and decides with decode_frames.
    # On the same fixed channels, frame f's error counts X_f (sweep) and Y_f
    # (oracle) are independent with one law, so the d_f = X_f - Y_f are
    # independent with mean 0. A two-sided one-sample t test on d rejects a
    # correct sweep with probability alpha = 1e-4; a noise variance off by
    # 2x moves the mean by about 20 standard errors.
    alpha = 1e-4
    rng = np.random.default_rng(47)
    design, const = get_design("qostbc-4"), Constellation("qpsk-rot")
    pod = PodStructure(inner=design, n=design.m)
    decoder = _group_decoder(design, const)
    frames, blocks = 1024, 8
    sigma_n2 = design.m / 10.0 ** (4.0 / 10.0)
    h = complex_gaussian((frames, design.m), rng)
    gains = table_gains(decoder, pod, h)
    sweep = np.array([
        _block_errors(decoder, gains[f : f + 1], blocks, sigma_n2, rng, _Scratch())
        for f in range(frames)
    ])
    alphabets = np.array(_slot_alphabets(design, const))
    slots = np.arange(design.n_sym)
    sent = rng.integers(0, alphabets.shape[1], size=(frames * blocks, design.n_sym))
    h_rep = np.repeat(h, blocks, axis=0)
    y = np.stack([
        received_block(pod, np.eye(pod.n), alphabets[slots, d], hf, sigma_n2, rng)
        for d, hf in zip(sent, h_rep)
    ])
    eyes = np.broadcast_to(np.eye(pod.n, dtype=complex), (len(y), pod.n, pod.n))
    decided = decode_frames(pod, eyes, h_rep, y, const)
    got = np.argmin(np.abs(decided[:, :, None] - alphabets[None]), axis=2)
    ones = np.array([bin(v).count("1") for v in range(alphabets.shape[1])])
    oracle = ones[(sent ^ (sent >> 1)) ^ (got ^ (got >> 1))].reshape(frames, -1).sum(axis=1)
    assert oracle.sum() > 1000  # enough errors for the test to have power
    p = stats.ttest_1samp(sweep - oracle, 0.0).pvalue
    assert p >= alpha, (sweep.sum(), oracle.sum(), p)


STORED_CODEBOOK = Path(__file__).resolve().parents[1] / "bench" / "data" / "k16_m4_rho0.04.pcb"


@pytest.mark.parametrize("loop", ["open", "genie", "closed"])
@pytest.mark.parametrize("kind,n", [
    ("real-od-4", 4), ("real-od-4", 2), ("real-od-6x8", 4), ("qostbc-4", 4), ("qostbc-4", 2),
])
def test_sweep_gain_matches_explicit_precoding(kind, n, loop, monkeypatch):
    # The sweep carries lambda = F(h) . g(B M_l B^H) per frame in place of
    # h_eff = B^H h = [head; P^H tail]. lambda must equal diag(T^T Gamma T)
    # of h_eff precoded explicitly by the entry the transmitter applied: in
    # the open loop (P = I), the genie (error-free feedback: the closed loop
    # at rho_f = 0, which applies the encoder's index) and the closed loop at
    # rho_f = 0.5 (the index after the feedback link), with every seventh
    # tail zero. qostbc-4's M_l couple head and tail antennas, so
    # n = 2 checks the cross terms.
    rng = np.random.default_rng(41)
    design, frames, k = get_design(kind), 300, 8
    const = Constellation("qpsk-rot" if kind == "qostbc-4" else "bpsk")
    decoder = _group_decoder(design, const)
    head = design.m - n
    h = complex_gaussian((frames, design.m), rng)
    h[::7, head:] = 0.0
    mats = np.stack([random_precoder(n, rng) for _ in range(k)])
    cb = PrecoderCodebook(m=design.m, matrices=mats, eta_c=2.5, rho_d=0.1,
                          marginals=np.full(k, 1.0 / k))
    config = SimulationConfig(
        snr_grid_db=[0.0], frames=frames, pod=PodStructure(inner=design, n=n),
        constellation=const, codebook=None if loop == "open" else cb,
        feedback=None if loop == "open" else FeedbackChannel(k, 0.5 if loop == "closed" else 0.0),
    )

    def draw(out, rng):  # the channel draw's seam: these channels, not random ones
        out[:] = h.real, h.imag
        return out

    monkeypatch.setattr(podsim.link, "_gaussian_parts", draw)
    encoded = kernel_encode(tail_directions(h[:, head:]), mats, cb.eta_c,
                            bsc_inversion_matrix(k, cb.rho_d))
    applied = []
    send = FeedbackChannel.transmit_batch

    def record(channel, indices, rng):
        assert np.array_equal(indices, encoded)
        applied.append(send(channel, indices, rng))
        return applied[-1]

    # A FeedbackChannel is frozen, so the method is patched on its class.
    monkeypatch.setattr(FeedbackChannel, "transmit_batch", record)
    precoders = _precoders(config.codebook, decoder, design.m)
    gains = _effective_channels(config, precoders, frames, rng, _Scratch())
    h_eff = h
    assert len(applied) == (loop != "open")
    if loop != "open":
        assert np.array_equal(applied[0], encoded) == (loop == "genie")
        h_eff = precoded(h, mats[applied[0]], n)
    gamma = statistic(design, const, h_eff, np.zeros((frames, design.t)))[1]
    want = np.einsum("fcc->fc", decoder.rotation.T @ gamma @ decoder.rotation)
    np.testing.assert_allclose(gains[:, decoder.component_gain], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rho_d", [0.0, 0.1])
def test_feature_encoder_matches_direction_route(rho_d):
    # The sweep encodes each tail from F(tail) / ||tail||^2, not from the
    # complex unit direction tail / ||tail||. The two round differently, and
    # must still pick the same index on 100k tails of widely spread norms;
    # a zero tail encodes as F(e_1).
    rng = np.random.default_rng(43)
    cb = load_codebook(STORED_CODEBOOK)
    tails = complex_gaussian((100_000, cb.n), rng) * 10.0 ** rng.uniform(-3, 3, (100_000, 1))
    tails[:50] = 0.0
    inv = bsc_inversion_matrix(cb.k, rho_d)
    feats = _direction_features(_features(tails.real, tails.imag))
    e_1 = kernel_features(np.eye(cb.n)[:1])
    np.testing.assert_array_equal(feats[:50], np.broadcast_to(e_1, (50, cb.n**2)))
    coords = _coordinates(_gram(np.asarray(cb.matrices)))
    fast = feature_encode(feats, coords, cb.eta_c, cb.n, inv)
    ref = kernel_encode(tail_directions(tails), cb.matrices, cb.eta_c, inv)
    assert np.array_equal(fast, ref), np.flatnonzero(fast != ref)[:10]


def test_effective_channel_projection_identity():
    # Z_pod(s)^H h = Z_in(s)^H h_eff with h_eff = [head; P^H tail], formed
    # for a batch of frames as the sweep forms it.
    rng = np.random.default_rng(4)
    design = get_design("real-od-4")
    pod = PodStructure(inner=design, n=2)
    precoders = np.stack([random_precoder(2, rng) for _ in range(5)])
    h = complex_gaussian((5, 4), rng)
    h_eff = h.copy()
    h_eff[:, 2:] = (h[:, None, 2:] @ precoders.conj())[:, 0, :]
    sym = np.array([1.0, -1.0, 1.0, 1.0])
    z_in = build(design, sym)
    for p, hf, hf_eff in zip(precoders, h, h_eff):
        np.testing.assert_allclose(
            assemble(pod, p, sym).conj().T @ hf, z_in.conj().T @ hf_eff, atol=1e-13
        )


def test_candidate_codewords_enumeration_order():
    design = get_design("real-od-2")
    syms, words = candidate_codewords(design, Constellation("bpsk"))
    assert syms.shape == (4, 2) and words.shape == (4, 2, 2)
    # lexicographic over slot alphabets [+1, -1] x [+1, -1]
    np.testing.assert_allclose(
        syms, [[1, 1], [1, -1], [-1, 1], [-1, -1]], atol=0
    )
    for s, w in zip(syms, words):
        np.testing.assert_allclose(w, build(design, s.real), atol=1e-15)


def test_ml_decode_noiseless_exact():
    rng = np.random.default_rng(5)
    for kind, const_kind, n in DECODER_CASES:
        pod = PodStructure(inner=get_design(kind), n=n)
        const = Constellation(const_kind)
        precoders, h, syms, y = random_frames(pod, const, 40, 0.0, rng)
        np.testing.assert_allclose(decode_frames(pod, precoders, h, y, const), syms, atol=1e-9)


def test_ml_decode_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for kind, const_kind, n in DECODER_CASES:
        pod = PodStructure(inner=get_design(kind), n=n)
        const = Constellation(const_kind)
        alphabets = _slot_alphabets(pod.inner, const)
        precoders, h, _, y = random_frames(pod, const, 34, 0.3, rng)
        fast = decode_frames(pod, precoders, h, y, const)
        for f in range(34):
            slow = naive_ml_decode(pod, precoders[f], y[f], h[f], alphabets)
            np.testing.assert_allclose(fast[f], slow, atol=1e-12)


def test_ml_decode_matches_matched_filter_on_orthogonal_design():
    rng = np.random.default_rng(7)
    design = get_design("real-od-4")
    pod = PodStructure(inner=design, n=4)
    const = Constellation("bpsk")
    total = 10000
    h = complex_gaussian((total, 4), rng)
    precoders = np.broadcast_to(np.eye(4, dtype=complex), (total, 4, 4))
    syms = np.stack([random_symbols(design, const, rng) for _ in range(total)])
    y = np.stack([received_block(pod, np.eye(4), s, hf, 0.5, rng) for s, hf in zip(syms, h)])
    ml = decode_frames(pod, precoders, h, y, const).real
    stats = np.stack([matched_filter_real_od(design, hf, yf) for hf, yf in zip(h, y)])
    mf = np.where(stats >= 0, 1.0, -1.0)
    assert np.array_equal(ml, mf)


def make_sim(cb=None, rho_f=0.0, frames=400, snr=None, seed=5, symbols=130):
    """Alamouti sweep: the open loop without cb, and the closed loop with cb
    and a feedback crossover rho_f."""
    if snr is None:
        snr = [8.0]
    design = get_design("alamouti")
    pod = PodStructure(inner=design, n=2)
    feedback = None
    if cb is not None:
        feedback = FeedbackChannel(k=cb.k, rho_f=rho_f)
    return SimulationConfig(
        snr_grid_db=snr,
        frames=frames,
        pod=pod,
        constellation=Constellation("qpsk-rot"),
        codebook=cb,
        feedback=feedback,
        symbols_per_frame=symbols,
        seed=seed,
    )


def test_simulation_config_validation():
    cb = small_trained_codebook()
    with pytest.raises(ValueError, match="multiple"):
        make_sim(symbols=131)
    with pytest.raises(ValueError, match="frame"):
        make_sim(frames=0)
    with pytest.raises(ValueError, match="need at least one SNR point"):
        make_sim(snr=[])
    for bad_snr in ([float("nan")], [4.0, float("-inf")], [float("inf")]):
        with pytest.raises(ValueError, match="SNR points must be finite"):
            make_sim(snr=bad_snr)
    # The closed loop takes a codebook and its feedback link together.
    with pytest.raises(ValueError, match="go together"):
        dataclasses.replace(make_sim(), feedback=FeedbackChannel(k=2, rho_f=0.1))
    with pytest.raises(ValueError, match="go together"):
        dataclasses.replace(make_sim(cb=cb), feedback=None)
    with pytest.raises(ValueError, match="K="):
        dataclasses.replace(make_sim(cb=cb), feedback=FeedbackChannel(k=2, rho_f=0.0))
    # 130 symbols break real-od-4 blocks
    design4 = get_design("real-od-4")
    with pytest.raises(ValueError, match="multiple"):
        SimulationConfig(
            snr_grid_db=[8.0], frames=10, pod=PodStructure(inner=design4, n=4),
            constellation=Constellation("bpsk"), symbols_per_frame=130,
        )


@pytest.mark.parametrize("kind, symbols", [
    ("real-od-2", 130), ("alamouti", 130), ("real-od-4", 128), ("qostbc-4", 128),
    ("real-od-8", 128), ("real-od-6x8", 128),
])
def test_default_symbols_per_frame_fills_whole_blocks(kind, symbols):
    # 130 symbols rounded down to whole blocks of the design.
    design = get_design(kind)
    cfg = SimulationConfig(
        snr_grid_db=[8.0], frames=10, pod=PodStructure(inner=design, n=design.m),
        constellation=Constellation("bpsk"),
    )
    cfg.validate()
    assert cfg.symbols_per_frame == symbols


def test_sweep_reproducible_and_worker_invariant():
    # Three chunks (two full, one partial) at two SNR points: six tasks, which
    # two or three workers split into contiguous batches at different places.
    cb = small_trained_codebook()
    cfg = make_sim(cb, rho_f=0.1, frames=2 * 2048 + 300, snr=[4.0, 8.0])
    a = [r.bit_errors for r in run_ber_sweep(cfg)]
    assert [r.bit_errors for r in run_ber_sweep(cfg)] == a
    for workers in (2, 3):
        assert [r.bit_errors for r in run_ber_sweep(cfg, workers=workers)] == a


def test_sweep_plan_is_arithmetic(monkeypatch):
    # A sweep's tasks are numbers, not a stored plan: 10^13 frames at two
    # points run as one range of 2 ceil(10^13 / 2048) tasks whose error sums
    # add per point, with nothing sized by the frame count. A list of the
    # chunk sizes alone would take 39 GB, so the bound fails a regression
    # long before memory runs out.
    ranges = []

    def record(config, lo, hi):
        ranges.append((lo, hi))
        return [0] * len(config.snr_grid_db)

    monkeypatch.setattr(podsim.link, "_simulate_chunks", record)
    frames = 10**13
    cfg = make_sim(frames=frames, snr=[4.0, 8.0])
    tracemalloc.start()
    try:
        out = run_ber_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranges == [(0, 2 * -(-frames // 2048))]
    assert [(r.frames, r.bits_sent, r.bit_errors) for r in out] == [(frames, frames * 65 * 2 * 2, 0)] * 2
    assert peak < 64 * 1024


def test_sweep_counts_and_fields():
    cb = small_trained_codebook()
    cfg = make_sim(cb, frames=500, snr=[4.0, 8.0])
    out = run_ber_sweep(cfg)
    assert len(out) == 2
    for r, snr in zip(out, [4.0, 8.0]):
        assert r.snr_db == snr
        assert r.rho_f == 0.0
        assert r.frames == 500
        assert r.bits_sent == 500 * 65 * 2 * 2  # blocks * symbols * bits
        assert 0 <= r.bit_errors <= r.bits_sent
        assert r.ber == r.bit_errors / r.bits_sent
        assert r.ber_stderr == pytest.approx(
            math.sqrt(r.ber * (1 - r.ber) / r.bits_sent)
        )


def test_sweep_ber_decreases_with_snr():
    cfg = make_sim(frames=2500, snr=[0.0, 6.0, 12.0])
    out = run_ber_sweep(cfg)
    bers = [r.ber for r in out]
    assert bers[0] > bers[1] > bers[2]


def test_sweep_high_snr_error_free():
    cb = small_trained_codebook()
    cfg = make_sim(cb, frames=200, snr=[40.0])
    out = run_ber_sweep(cfg)
    assert out[0].bit_errors == 0
    assert out[0].ber_stderr == 0.0


def test_closed_loop_beats_open_loop_with_clean_feedback():
    cb = small_trained_codebook()
    frames = 4000
    closed = run_ber_sweep(make_sim(cb, rho_f=0.0, frames=frames, seed=11))[0]
    open_ = run_ber_sweep(make_sim(frames=frames, seed=12))[0]
    gap = open_.ber - closed.ber
    sigma = math.hypot(open_.ber_stderr, closed.ber_stderr)
    assert gap > 5.0 * sigma


# Error counts of the sweep on the configs below. They were first those of
# the exhaustive search over every candidate codeword on drawn received
# blocks, which the group-separable decoder, exact ML on the same blocks,
# reproduced bit for bit. The sweep now draws the rotated statistic r' in
# place of y, so its noise draws differ from the search's: the counts were
# re-recorded by running the sweep (the orthogonal designs' when they began
# drawing r, qostbc-4's when it began drawing r' in its rotated basis), and
# the exact decisions on fixed y are checked against the naive ML oracle
# instead.
EXHAUSTIVE_CLOSED_OD2 = 1360
EXHAUSTIVE_OPEN_OD6X8 = 4
EXHAUSTIVE_PAIR_COUNTS = {
    ("real-od-2", "bpsk"): [365, 30],
    ("real-od-4", "bpsk"): [547, 28],
    ("real-od-6x8", "bpsk"): [944, 39],
    ("real-od-8", "bpsk"): [877, 17],
    ("alamouti", "bpsk"): [365, 30],
    ("alamouti", "qpsk-rot"): [1341, 228],
    ("qostbc-4", "bpsk"): [637, 54],
    ("qostbc-4", "qpsk-rot"): [2611, 401],
}


def test_decoupled_sweep_matches_exhaustive():
    cb = small_trained_codebook()
    design = get_design("real-od-2")
    pod = PodStructure(inner=design, n=2)
    base = dict(
        snr_grid_db=[6.0],
        frames=500,
        pod=pod,
        constellation=Constellation("bpsk"),
        codebook=cb,
        feedback=FeedbackChannel(k=cb.k, rho_f=0.1),
        symbols_per_frame=128,
        seed=17,
    )
    assert run_ber_sweep(SimulationConfig(**base))[0].bit_errors == EXHAUSTIVE_CLOSED_OD2

    wide = dict(
        snr_grid_db=[10.0],
        frames=120,
        pod=PodStructure(inner=get_design("real-od-6x8"), n=4),
        constellation=Constellation("bpsk"),
        symbols_per_frame=64,
        seed=9,
    )
    assert run_ber_sweep(SimulationConfig(**wide))[0].bit_errors == EXHAUSTIVE_OPEN_OD6X8


@pytest.mark.parametrize("kind,const", sorted(EXHAUSTIVE_PAIR_COUNTS))
def test_sweep_matches_exhaustive_on_every_design(kind, const):
    design = get_design(kind)
    cfg = SimulationConfig(
        snr_grid_db=[2.0, 8.0],
        frames=300,
        pod=PodStructure(inner=design, n=design.m),
        constellation=Constellation(const),
        symbols_per_frame=8 * design.n_sym,
        seed=23,
    )
    counts = [r.bit_errors for r in run_ber_sweep(cfg)]
    assert counts == EXHAUSTIVE_PAIR_COUNTS[kind, const]


# Error counts of closed-loop (rho_f = 0.1) sweeps over 2 * 2048 +
# 300 frames (two full chunks and a partial one) at two SNR points, recorded
# before the chunks of a sweep shared one scratch (real-od-4: re-recorded
# when it began drawing the decoder statistic itself; qostbc-4: when it
# began drawing the rotated statistic). Full and
# partial chunks slice their slabs of blocks differently, so a row left over
# from a larger chunk, an earlier chunk or an earlier SNR point would change
# them.
SCRATCH_REUSE_COUNTS = {
    ("real-od-4", "bpsk", 12): [2220, 132],
    ("qostbc-4", "qpsk-rot", 16): [15839, 2386],
}


@pytest.mark.parametrize("kind,const,symbols", sorted(SCRATCH_REUSE_COUNTS))
def test_multi_chunk_sweep_counts_are_pinned(kind, const, symbols):
    cb = small_trained_codebook(m=4, n=2, k=4, rho_d=0.1)
    cfg = SimulationConfig(
        snr_grid_db=[2.0, 8.0],
        frames=2 * 2048 + 300,
        pod=PodStructure(inner=get_design(kind), n=cb.n),
        constellation=Constellation(const),
        codebook=cb,
        feedback=FeedbackChannel(k=cb.k, rho_f=0.1),
        symbols_per_frame=symbols,
        seed=29,
    )
    assert [r.bit_errors for r in run_ber_sweep(cfg)] == SCRATCH_REUSE_COUNTS[kind, const, symbols]


@pytest.mark.parametrize("kind,const,closed", [("real-od-4", "bpsk", True),
                                               ("qostbc-4", "qpsk-rot", False)])
def test_sweep_stops_allocating_after_its_first_full_chunk(kind, const, closed, monkeypatch):
    # What the scratch is for: fresh per-chunk arrays cost a sweep 1.3-2x. Over
    # two full chunks and a partial one at two SNR points, every region taken
    # after the first full chunk lies in one buffer that no take replaces.
    regions, chunk_starts = [], []
    take, effective = _Scratch.take, podsim.link._effective_channels

    def recording_take(self, shape, dtype=float):
        out = take(self, shape, dtype)
        regions.append((self._buf, out))
        return out

    def marking_chunk(*args):
        chunk_starts.append(len(regions))
        return effective(*args)

    monkeypatch.setattr(_Scratch, "take", recording_take)
    monkeypatch.setattr(podsim.link, "_effective_channels", marking_chunk)
    cb = small_trained_codebook(m=4, n=2, k=4, rho_d=0.1) if closed else None
    cfg = SimulationConfig(
        snr_grid_db=[2.0, 8.0],
        frames=2 * 2048 + 300,
        pod=PodStructure(inner=get_design(kind), n=cb.n if closed else 4),
        constellation=Constellation(const),
        codebook=cb,
        feedback=FeedbackChannel(k=cb.k, rho_f=0.1) if closed else None,
        symbols_per_frame=16,
        seed=29,
    )
    assert len(podsim.link._simulate_chunks(cfg, 0, 6)) == 2
    assert len(chunk_starts) == 6
    later = regions[chunk_starts[1] :]
    buf = later[0][0]
    assert all(b is buf for b, _ in later)
    assert all(np.shares_memory(region, buf) for _, region in later)


@pytest.mark.parametrize("kind,const", sorted(EXHAUSTIVE_PAIR_COUNTS))
def test_derived_slot_groups(kind, const):
    groups = _group_decoder(get_design(kind), Constellation(const)).slot_groups.tolist()
    if kind == "qostbc-4":
        assert groups == [[0, 2], [1, 3]]
    else:
        assert groups == [[k] for k in range(get_design(kind).n_sym)]


def test_unequal_slot_groups_are_rejected():
    # Z = [[z1, 0], [z2, z3]]: z1 and z2 share time slot 1, so they couple;
    # z3 alone fills time slot 2 and couples with neither.
    design = InnerDesign(
        "uneven-3", lambda z1, z2, z3: np.array([[z1, 0.0], [z2, z3]], dtype=complex)
    )
    with pytest.raises(ValueError, match=r"slot groups \[\(0, 1\), \(2,\)\] differ in size"):
        _group_decoder(design, Constellation("bpsk"))


def test_design_without_fixed_basis_is_rejected():
    # Z = [[z1], [z2]]: Gamma(h) = [[|h1|^2, Re(h1^* h2)], [Re(h1^* h2),
    # |h2|^2]] spans every symmetric 2 x 2 matrix, so no fixed rotation makes
    # it diagonal for every channel, and there is no fallback.
    design = InnerDesign("column-2", lambda z1, z2: np.array([[z1], [z2]], dtype=complex))
    with pytest.raises(ValueError, match="no fixed basis makes Gamma diagonal"):
        _group_decoder(design, Constellation("bpsk"))


@pytest.mark.parametrize("kind, constellation", [("real-od-4", "bpsk"), ("qostbc-4", "qpsk-rot")])
def test_closed_loop_counts_do_not_depend_on_the_serial_split(kind, constellation, monkeypatch):
    # Every product of the sweep, the encoder's and the decoder's, is split
    # into row blocks below _SERIAL_MACS; one row per product gives the same
    # counts as the default split.
    cb = load_codebook(STORED_CODEBOOK)
    config = SimulationConfig(
        snr_grid_db=[4.0, 8.0], frames=600, pod=PodStructure(inner=get_design(kind), n=cb.n),
        constellation=Constellation(constellation), codebook=cb,
        feedback=FeedbackChannel(k=cb.k, rho_f=0.04), symbols_per_frame=16, seed=5,
    )
    default = [r.bit_errors for r in run_ber_sweep(config)]
    monkeypatch.setattr(podsim.link, "_SERIAL_MACS", 256)
    assert [r.bit_errors for r in run_ber_sweep(config)] == default


def test_worker_count_capped_by_tasks_and_cores(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    assert _worker_count(10**6, 3) == min(3, cpus)
    assert _worker_count(10**6, 10**6) == cpus
    assert _worker_count(1, 50) == 1
    # A process allowed on one CPU of a larger machine starts one worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _worker_count(8, 50) == 1


def test_write_ber_csv_layout(tmp_path):
    rows = [
        BerResult(10.0, 0.1, 100, 26000, 130),
        BerResult(12.0, 0.1, 100, 26000, 31),
    ]
    path = tmp_path / "ber.csv"
    write_ber_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == _BER_CSV_HEADER
    assert text[1].startswith("10,0.1,100,26000,130,0.005,")
    assert len(text) == 3


def test_write_ber_csv_wilson_interval(tmp_path):
    # ber_stderr is 0 at a point without errors; the 95 % Wilson score
    # interval in the trailing columns still bounds its BER from above.
    rows = [BerResult(14.0, 0.0, 100, 26000, 0), BerResult(10.0, 0.1, 100, 26000, 130)]
    path = tmp_path / "ber.csv"
    write_ber_csv(path, rows)
    header, *lines = path.read_text().splitlines()
    assert header.split(",")[-2:] == ["ber_wilson_low", "ber_wilson_high"]
    for r, line in zip(rows, lines):
        low, high = (float(v) for v in line.split(",")[-2:])
        want = stats.binomtest(r.bit_errors, r.bits_sent).proportion_ci(method="wilson")
        assert low == pytest.approx(want.low, rel=1e-10, abs=1e-15)
        assert high == pytest.approx(want.high, rel=1e-10)
        assert low <= r.ber < high
    assert float(lines[0].split(",")[6]) == 0.0 and float(lines[0].split(",")[8]) > 0.0
