"""Link-level simulation tests.

Oracles:

* noiseless transmission must reproduce Z^H h exactly, and decoding it must
  return the transmitted symbols whenever codewords are distinct.
* the group-separable ML decoder is checked against a second, blind
  brute-force implementation, against the standard linear matched-filter
  detector for real orthogonal designs with identity precoding, and, in
  sweeps, against error counts recorded from the exhaustive search.
* the Alamouti block with h = (1, 0) only sees the first antenna row:
  y = (conj(s1), -s2).
* empirical noise variance must match sigma_n2 = 1/(m * eta0) within 2%.
"""

import math
import os

import numpy as np
import pytest

from podsim.channel import ChannelDims, sample_channel
from podsim.codebook import project_psd_power
from podsim.feedback import FeedbackChannel
from podsim.link import (
    BER_CSV_HEADER,
    BerResult,
    SimulationConfig,
    candidate_codewords,
    effective_channel,
    ml_decode,
    noise_variance,
    run_ber_sweep,
    transmit_block,
    write_ber_csv,
)
from podsim.link import _group_decoder, _worker_count
from podsim.stbc import Constellation, PodStructure, assemble, get_design, slot_alphabets
from podsim.trainer import TrainerConfig, train

from oracles import matched_filter_real_od, naive_ml_decode


def random_precoder(n, rng, spread=0.4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return project_psd_power(np.eye(n) + spread * g, n)


def random_symbols(design, constellation, rng):
    alphabets = slot_alphabets(design, constellation)
    return np.array([a[rng.integers(len(a))] for a in alphabets])


def small_trained_codebook(m=2, n=2, k=4, rho_d=0.0, eta_c=2.5, seed=101):
    cfg = TrainerConfig(
        m=m, n=n, k=k, eta_c=eta_c, rho_d=rho_d, n_train=3000,
        inner_iters=5, max_rounds=40, tol=1e-6, step_m=63.0, seed=seed,
    )
    return train(cfg)


def test_noise_variance_formula():
    assert noise_variance(4, 0.0) == pytest.approx(4.0)
    assert noise_variance(2, 10.0) == pytest.approx(0.2)


def test_transmit_block_noiseless_matches_codeword_projection():
    rng = np.random.default_rng(0)
    for kind, const in [("real-od-4", "bpsk"), ("alamouti", "qpsk-rot"), ("qostbc-4", "qpsk-rot")]:
        design = get_design(kind)
        pod = PodStructure(inner=design, n=design.m)
        p = random_precoder(pod.n, rng)
        ch = sample_channel(ChannelDims(m=pod.m, n=pod.n, t=pod.t), rng)
        sym = random_symbols(design, Constellation(const), rng)
        y = transmit_block(pod, p, sym, ch, 0.0, rng)
        expect = assemble(pod, p, sym).conj().T @ ch.h
        np.testing.assert_allclose(y, expect, atol=1e-13)


def test_transmit_block_alamouti_single_path():
    rng = np.random.default_rng(1)
    design = get_design("alamouti")
    pod = PodStructure(inner=design, n=2)
    dims = ChannelDims(m=2, n=2, t=2)
    ch_raw = sample_channel(dims, rng)
    h = np.array([1.0 + 0j, 0.0 + 0j])
    ch = type(ch_raw)(h=h, h_unq=h[:0], h_q=h, gamma=1.0, direction=h, theta=0.0)
    s = np.array([np.exp(1j * 0.3), np.exp(1j * 1.1)])
    y = transmit_block(pod, np.eye(2, dtype=complex), s, ch, 0.0, rng)
    np.testing.assert_allclose(y, [np.conj(s[0]), -s[1]], atol=1e-14)


def test_transmit_block_noise_variance_empirical():
    rng = np.random.default_rng(2)
    design = get_design("real-od-2")
    pod = PodStructure(inner=design, n=2)
    dims = ChannelDims(m=2, n=2, t=2)
    ch = sample_channel(dims, rng)
    sym = np.array([1.0, -1.0])
    p = np.eye(2, dtype=complex)
    clean = assemble(pod, p, sym).conj().T @ ch.h
    sigma_n2 = noise_variance(2, 7.0)
    n_blocks = 30000
    resid = np.empty((n_blocks, 2), dtype=complex)
    for b in range(n_blocks):
        resid[b] = transmit_block(pod, p, sym, ch, sigma_n2, rng) - clean
    measured = float(np.mean(np.abs(resid) ** 2))
    assert measured == pytest.approx(sigma_n2, rel=0.02)


def test_transmit_block_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    design = get_design("real-od-2")
    pod = PodStructure(inner=design, n=2)
    ch = sample_channel(ChannelDims(m=4, n=2, t=2), rng)  # wrong antenna count
    with pytest.raises(ValueError):
        transmit_block(pod, np.eye(2, dtype=complex), np.array([1.0, 1.0]), ch, 0.1, rng)
    ch2 = sample_channel(ChannelDims(m=2, n=2, t=2), rng)
    with pytest.raises(ValueError):
        transmit_block(pod, np.eye(2, dtype=complex), np.array([1.0, 1.0]), ch2, -0.1, rng)


def test_effective_channel_projection_identity():
    rng = np.random.default_rng(4)
    design = get_design("real-od-4")
    pod = PodStructure(inner=design, n=2)
    p = random_precoder(2, rng)
    ch = sample_channel(ChannelDims(m=4, n=2, t=4), rng)
    sym = np.array([1.0, -1.0, 1.0, 1.0])
    # Z(s)^H h must equal Z_in(s)^H h_eff
    z = assemble(pod, p, sym)
    h_eff = effective_channel(pod, p, ch.h)
    z_in = design.build(sym)
    np.testing.assert_allclose(z.conj().T @ ch.h, z_in.conj().T @ h_eff, atol=1e-13)


def test_candidate_codewords_enumeration_order():
    design = get_design("real-od-2")
    syms, words = candidate_codewords(design, Constellation("bpsk"))
    assert syms.shape == (4, 2) and words.shape == (4, 2, 2)
    # lexicographic over slot alphabets [+1, -1] x [+1, -1]
    np.testing.assert_allclose(
        syms, [[1, 1], [1, -1], [-1, 1], [-1, -1]], atol=0
    )
    for s, w in zip(syms, words):
        np.testing.assert_allclose(w, design.build(s.real), atol=1e-15)


def test_ml_decode_noiseless_exact():
    rng = np.random.default_rng(5)
    cases = [("real-od-4", "bpsk", 4), ("alamouti", "qpsk-rot", 2), ("qostbc-4", "qpsk-rot", 4)]
    for kind, const_kind, n in cases:
        design = get_design(kind)
        pod = PodStructure(inner=design, n=n)
        const = Constellation(const_kind)
        for _ in range(40):
            p = random_precoder(n, rng)
            ch = sample_channel(ChannelDims(m=pod.m, n=n, t=pod.t), rng)
            sym = random_symbols(design, const, rng)
            y = transmit_block(pod, p, sym, ch, 0.0, rng)
            decoded = ml_decode(pod, p, y, ch, const)
            np.testing.assert_allclose(decoded, sym, atol=1e-9)


def test_ml_decode_matches_naive_oracle():
    rng = np.random.default_rng(6)
    cases = [("real-od-2", "bpsk", 2), ("alamouti", "qpsk-rot", 2), ("qostbc-4", "qpsk-rot", 4)]
    for kind, const_kind, n in cases:
        design = get_design(kind)
        pod = PodStructure(inner=design, n=n)
        const = Constellation(const_kind)
        alphabets = slot_alphabets(design, const)
        for _ in range(34):
            p = random_precoder(n, rng)
            ch = sample_channel(ChannelDims(m=pod.m, n=n, t=pod.t), rng)
            sym = random_symbols(design, const, rng)
            y = transmit_block(pod, p, sym, ch, 0.3, rng)
            fast = ml_decode(pod, p, y, ch, const)
            slow = naive_ml_decode(pod, p, y, ch.h, alphabets)
            np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_ml_decode_matches_matched_filter_on_orthogonal_design():
    rng = np.random.default_rng(7)
    design = get_design("real-od-4")
    pod = PodStructure(inner=design, n=4)
    const = Constellation("bpsk")
    p = np.eye(4, dtype=complex)
    agree = 0
    total = 10000
    for _ in range(total):
        ch = sample_channel(ChannelDims(m=4, n=4, t=4), rng)
        sym = random_symbols(design, const, rng)
        y = transmit_block(pod, p, sym, ch, 0.5, rng)
        ml = ml_decode(pod, p, y, ch, const).real
        stats = matched_filter_real_od(design, ch.h, y)
        mf = np.where(stats >= 0, 1.0, -1.0)
        agree += int(np.array_equal(ml, mf))
    assert agree == total


def make_sim(baseline, frames=400, snr=None, rho_f=0.0, seed=5, cb=None, symbols=130):
    if snr is None:
        snr = [8.0]
    design = get_design("alamouti")
    pod = PodStructure(inner=design, n=2)
    feedback = None
    if baseline == "closed-loop":
        feedback = FeedbackChannel(k=cb.k, rho_f=rho_f)
    return SimulationConfig(
        snr_grid_db=snr,
        frames=frames,
        pod=pod,
        constellation=Constellation("qpsk-rot"),
        codebook=cb,
        feedback=feedback,
        baseline_mode=baseline,
        symbols_per_frame=symbols,
        seed=seed,
    )


def test_simulation_config_validation():
    cb = small_trained_codebook()
    with pytest.raises(ValueError, match="multiple"):
        make_sim("open-loop", symbols=131).validate()
    with pytest.raises(ValueError, match="frame"):
        make_sim("open-loop", frames=0).validate()
    with pytest.raises(ValueError, match="baseline"):
        make_sim("unknown").validate()
    with pytest.raises(ValueError, match="codebook"):
        make_sim("genie", cb=None).validate()
    cfg = make_sim("closed-loop", cb=cb)
    cfg.feedback = None
    with pytest.raises(ValueError, match="feedback"):
        cfg.validate()
    bad = make_sim("closed-loop", cb=cb)
    bad.feedback = FeedbackChannel(k=2, rho_f=0.0)
    with pytest.raises(ValueError, match="K="):
        bad.validate()
    # 130 symbols break real-od-4 blocks
    design4 = get_design("real-od-4")
    cfg4 = SimulationConfig(
        snr_grid_db=[8.0], frames=10, pod=PodStructure(inner=design4, n=4),
        constellation=Constellation("bpsk"), baseline_mode="open-loop",
    )
    with pytest.raises(ValueError, match="multiple"):
        cfg4.validate()


def test_sweep_reproducible_and_worker_invariant():
    cb = small_trained_codebook()
    cfg = make_sim("closed-loop", frames=3000, rho_f=0.1, cb=cb)
    a = run_ber_sweep(cfg)
    b = run_ber_sweep(cfg)
    assert [r.bit_errors for r in a] == [r.bit_errors for r in b]
    c = run_ber_sweep(cfg, workers=2)
    assert [r.bit_errors for r in a] == [r.bit_errors for r in c]


def test_sweep_counts_and_fields():
    cb = small_trained_codebook()
    cfg = make_sim("genie", frames=500, snr=[4.0, 8.0], cb=cb)
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
    cb = small_trained_codebook()
    cfg = make_sim("open-loop", frames=2500, snr=[0.0, 6.0, 12.0])
    out = run_ber_sweep(cfg)
    bers = [r.ber for r in out]
    assert bers[0] > bers[1] > bers[2]


def test_sweep_high_snr_error_free():
    cb = small_trained_codebook()
    cfg = make_sim("genie", frames=200, snr=[40.0], cb=cb)
    out = run_ber_sweep(cfg)
    assert out[0].bit_errors == 0
    assert out[0].ber_stderr == 0.0


def test_closed_loop_beats_open_loop_with_clean_feedback():
    cb = small_trained_codebook()
    frames = 4000
    closed = run_ber_sweep(make_sim("closed-loop", frames=frames, rho_f=0.0, cb=cb, seed=11))[0]
    open_ = run_ber_sweep(make_sim("open-loop", frames=frames, seed=12))[0]
    gap = open_.ber - closed.ber
    sigma = math.hypot(open_.ber_stderr, closed.ber_stderr)
    assert gap > 5.0 * sigma


# Error counts of the exhaustive search over every candidate codeword (the
# former SimulationConfig(force_exhaustive=True) path, run at the commit
# before that option was removed) on the configs below. The group-separable
# decoder is exact ML, so it must reproduce them bit for bit.
EXHAUSTIVE_CLOSED_OD2 = 1411
EXHAUSTIVE_OPEN_OD6X8 = 4
EXHAUSTIVE_PAIR_COUNTS = {
    ("real-od-2", "bpsk"): [360, 42],
    ("real-od-4", "bpsk"): [520, 33],
    ("real-od-6x8", "bpsk"): [1014, 42],
    ("real-od-8", "bpsk"): [874, 26],
    ("alamouti", "bpsk"): [360, 42],
    ("alamouti", "qpsk-rot"): [1305, 244],
    ("qostbc-4", "bpsk"): [634, 47],
    ("qostbc-4", "qpsk-rot"): [2588, 417],
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
        baseline_mode="closed-loop",
        symbols_per_frame=128,
        seed=17,
    )
    assert run_ber_sweep(SimulationConfig(**base))[0].bit_errors == EXHAUSTIVE_CLOSED_OD2

    wide = dict(
        snr_grid_db=[10.0],
        frames=120,
        pod=PodStructure(inner=get_design("real-od-6x8"), n=4),
        constellation=Constellation("bpsk"),
        baseline_mode="open-loop",
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
        baseline_mode="open-loop",
        symbols_per_frame=8 * design.n_sym,
        seed=23,
    )
    counts = [r.bit_errors for r in run_ber_sweep(cfg)]
    assert counts == EXHAUSTIVE_PAIR_COUNTS[kind, const]


@pytest.mark.parametrize("kind,const", sorted(EXHAUSTIVE_PAIR_COUNTS))
def test_derived_slot_groups(kind, const):
    groups = _group_decoder(get_design(kind), Constellation(const)).slot_groups.tolist()
    if kind == "qostbc-4":
        assert groups == [[0, 2], [1, 3]]
    else:
        assert groups == [[k] for k in range(get_design(kind).n_sym)]


def test_worker_count_capped_by_tasks_and_cores():
    assert _worker_count(10**6, 3) == min(3, os.cpu_count() or 1)
    assert _worker_count(10**6, 10**6) == (os.cpu_count() or 1)
    assert _worker_count(1, 50) == 1


def test_genie_equals_closed_loop_at_zero_rho():
    cb = small_trained_codebook()
    genie = run_ber_sweep(make_sim("genie", frames=800, cb=cb, seed=21))[0]
    closed = run_ber_sweep(make_sim("closed-loop", frames=800, rho_f=0.0, cb=cb, seed=21))[0]
    # same seed; the only rng difference is the feedback draw, which flips
    # nothing at rho_f = 0 but advances the stream, so compare statistically
    sigma = math.hypot(genie.ber_stderr, closed.ber_stderr)
    assert abs(genie.ber - closed.ber) <= 3.0 * sigma


def test_write_ber_csv_layout(tmp_path):
    rows = [
        BerResult.from_counts(10.0, 0.1, 100, 26000, 130),
        BerResult.from_counts(12.0, 0.1, 100, 26000, 31),
    ]
    path = tmp_path / "ber.csv"
    write_ber_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == BER_CSV_HEADER
    assert text[1].startswith("10,0.1,100,26000,130,0.005,")
    assert len(text) == 3
