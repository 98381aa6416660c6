"""Full-scale acceptance checks for the flagship configurations.

Each test covers one acceptance criterion end to end and prints a single
[PASS]/[FAIL] line with the measured quantities. Trained codebooks are
shared through session fixtures. The whole file takes roughly ten minutes
on four cores; the per-criterion runtime budgets are asserted where the
criterion states one.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import conftest
from oracles import (
    closed_form_integrals_check,
    complex_gaussian,
    conditional_pep_bound,
    decode_frames,
    finite_difference_gradient,
    kernel_encode,
    kernel_features,
    kernel_gradient,
    kernel_objective,
    naive_encode,
    naive_gradient,
    naive_ml_decode,
    naive_objective,
    received_block,
)
from podsim.channel import sample_directions
from podsim.codebook import PrecoderCodebook, eigen_profile, project_psd_power
from podsim.feedback import (
    FeedbackChannel,
    _chordal_distance_matrix,
    bsc_inversion_matrix,
    mapping_cost,
    optimize_mapping,
)
from podsim.link import SimulationConfig, run_ber_sweep
from podsim.pep import average_pep_bound, build_evaluation_set
from podsim.stbc import Constellation, PodStructure, _slot_alphabets, get_design
from podsim.trainer import TrainerConfig, eta_c_from_snr_db, fit, range_design

WORKERS = max(1, min(4, os.cpu_count() or 1))
N_TRAIN = 50_000
STEP_K16 = 32767.0  # 16-entry codebooks need long early steps to converge
STEP_K4 = 1023.0

POD4 = PodStructure(inner=get_design("real-od-4"), n=4)
POD6 = PodStructure(inner=get_design("real-od-6x8"), n=4)
BPSK = Constellation("bpsk")


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)


def _sweep(pod, cb, rho_f, snr_db, frames, seed):
    """Closed-loop sweep of cb at crossover rho_f; the open loop when cb is None."""
    feedback = None if cb is None else FeedbackChannel(k=cb.k, rho_f=rho_f)
    config = SimulationConfig(
        snr_grid_db=[float(s) for s in np.atleast_1d(snr_db)],
        frames=frames,
        pod=pod,
        constellation=BPSK,
        codebook=cb,
        feedback=feedback,
        symbols_per_frame=128,
        seed=seed,
    )
    return run_ber_sweep(config, workers=WORKERS)


def _random_codebook(n, k, rng, eta_c, m=None, rho_d=0.0):
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
        m=m if m is not None else n, matrices=mats, eta_c=eta_c,
        rho_d=rho_d, marginals=np.full(k, 1.0 / k),
    )


def _random_frames(pod, constellation, frames, sigma_n2, rng):
    """Per frame: a random precoder, a channel, symbols and the received block."""
    alphabets = _slot_alphabets(pod.inner, constellation)
    precoders = np.stack([
        project_psd_power(
            np.eye(pod.n) + 0.4 * (rng.standard_normal((pod.n, pod.n))
                                   + 1j * rng.standard_normal((pod.n, pod.n))),
            pod.n,
        )
        for _ in range(frames)
    ])
    h = complex_gaussian((frames, pod.m), rng)
    syms = np.array([[a[rng.integers(len(a))] for a in alphabets] for _ in range(frames)])
    y = np.stack([
        received_block(pod, p, s, hf, sigma_n2, rng) for p, s, hf in zip(precoders, syms, h)
    ])
    return precoders, h, syms, y


@pytest.fixture(scope="session")
def design10():
    """M=4, K=16 codebooks at the 10 dB design point, with training times."""
    eta = eta_c_from_snr_db(4, 4, 10.0)
    cbs, secs = {}, {}
    for rho in (0.0, 0.04, 0.1, 0.2, 0.3, 0.5):
        t0 = time.monotonic()
        cbs[rho] = fit(
            TrainerConfig(
                m=4, n=4, k=16, eta_c=eta, rho_d=rho,
                n_train=N_TRAIN, step_m=STEP_K16,
            ),
            np.random.default_rng(1),
        ).codebook
        secs[rho] = time.monotonic() - t0
    return cbs, secs


@pytest.fixture(scope="session")
def design6():
    """M=4, K=16 codebooks at the 6 dB design point for the mismatch study."""
    base = TrainerConfig(
        m=4, n=4, k=16, eta_c=eta_c_from_snr_db(4, 4, 6.0), rho_d=0.0,
        rho_range=(0.0, 0.04), n_train=N_TRAIN, step_m=STEP_K16,
    )
    return {
        "clean": fit(replace(base, rho_range=None), np.random.default_rng(1)).codebook,
        "worst": fit(range_design(base, "worst-case"), np.random.default_rng(1)).codebook,
        "avg": fit(range_design(base, "average"), np.random.default_rng(1)).codebook,
    }


@pytest.fixture(scope="session")
def six_antenna():
    """M=6, K=4, N=4 codebooks for the low-rate construction."""
    kw = dict(
        m=6, n=4, k=4, eta_c=eta_c_from_snr_db(6, 8, 10.0),
        n_train=N_TRAIN, step_m=STEP_K4,
    )
    return {
        0.0: fit(TrainerConfig(rho_d=0.0, **kw), np.random.default_rng(1)).codebook,
        0.04: fit(TrainerConfig(rho_d=0.04, **kw), np.random.default_rng(1)).codebook,
    }


def test_trained_eigenvalue_concentration_and_balance(design10):
    cbs, secs = design10
    rhos = [0.0, 0.1, 0.3, 0.5]
    elapsed = sum(secs[r] for r in rhos)
    profiles = {r: eigen_profile(cbs[r]) ** 2 for r in rhos}

    p_clean = profiles[0.0]
    d1_min = float(p_clean[:, 0].min())
    tail_max = float(p_clean[:, 1:].sum(axis=1).max())
    clean_ok = d1_min >= 3.8 and tail_max <= 0.2

    p_half = profiles[0.5]
    balanced_ok = float(p_half.min()) >= 0.85 and float(p_half.max()) <= 1.15

    spreads = [float(np.mean(profiles[r].max(axis=1) - profiles[r].min(axis=1))) for r in rhos]
    monotone_ok = all(spreads[i] >= spreads[i + 1] - 1e-9 for i in range(len(spreads) - 1))

    time_ok = elapsed <= 600.0
    ok = clean_ok and balanced_ok and monotone_ok and time_ok
    _report(
        "eigen-structure",
        ok,
        f"d1^2 min {d1_min:.3f} (>=3.8), tail max {tail_max:.3f} (<=0.2), "
        f"balanced [{p_half.min():.3f}, {p_half.max():.3f}] (within [0.85, 1.15]), "
        "spreads " + " > ".join(f"{s:.2f}" for s in spreads) + f", train {elapsed:.0f}s (<=600)",
    )
    assert clean_ok, f"clean-design concentration failed: d1^2 {d1_min}, tail {tail_max}"
    assert balanced_ok, f"balanced profile failed: [{p_half.min()}, {p_half.max()}]"
    assert monotone_ok, f"spread not monotone: {spreads}"
    assert time_ok, f"training took {elapsed:.0f}s"


def test_matched_crossover_ber_ordering(design10):
    cbs, secs = design10
    t0 = time.monotonic()
    res = {rho: _sweep(POD4, cbs[rho], rho, 10.0, 20_000, seed=77)[0] for rho in (0.0, 0.04, 0.2, 0.5)}
    open_ = _sweep(POD4, None, 0.0, 10.0, 20_000, seed=77)[0]
    elapsed = time.monotonic() - t0 + sum(secs[r] for r in (0.0, 0.04, 0.2, 0.5))

    def gap_sigmas(a, b):
        s = math.hypot(a.ber_stderr, b.ber_stderr)
        return (b.ber - a.ber) / s if s > 0 else math.inf

    g1 = gap_sigmas(res[0.0], res[0.04])
    g2 = gap_sigmas(res[0.04], res[0.2])
    g3 = gap_sigmas(res[0.2], open_)
    s5 = math.hypot(res[0.5].ber_stderr, open_.ber_stderr)
    g5 = abs(res[0.5].ber - open_.ber) / s5 if s5 > 0 else 0.0

    order_ok = g1 >= 2.0 and g2 >= 2.0 and g3 >= -2.0
    near_open_ok = g5 <= 3.0
    time_ok = elapsed <= 900.0
    ok = order_ok and near_open_ok and time_ok
    _report(
        "ber-ordering",
        ok,
        f"gaps 0<0.04: {g1:.1f}s, 0.04<0.2: {g2:.1f}s, 0.2<=open: {g3:.1f}s (need >=2, >=2, >=-2), "
        f"|0.5-open| {g5:.1f}s (<=3), total {elapsed:.0f}s (<=900)",
    )
    assert order_ok, f"ordering gaps {g1:.1f}, {g2:.1f}, {g3:.1f} sigmas"
    assert near_open_ok, f"rho 0.5 sits {g5:.1f} sigmas from open loop"
    assert time_ok, f"criterion took {elapsed:.0f}s"


def test_low_rate_construction_diversity_slope(six_antenna):
    snrs = [12.0, 14.0, 16.0, 18.0]
    plans = {
        "matched": (six_antenna[0.04], [100_000, 300_000, 1_000_000, 4_000_000]),
        "clean-design": (six_antenna[0.0], [100_000, 100_000, 200_000, 500_000]),
    }
    slopes, errs = {}, {}
    for name, (cb, frames) in plans.items():
        points = [_sweep(POD6, cb, 0.04, s, f, seed=55)[0] for s, f in zip(snrs, frames)]
        errs[name] = [r.bit_errors for r in points]
        if min(errs[name]) > 0:
            slopes[name] = float(np.polyfit(snrs, np.log10([r.ber for r in points]), 1)[0])
        else:
            slopes[name] = float("nan")

    counts_ok = all(min(c) > 0 for c in errs.values())
    ratio = slopes["matched"] / slopes["clean-design"] if counts_ok else float("nan")
    frames_ok = all(frames[-1] >= 100_000 for _, frames in plans.values())
    ok = counts_ok and frames_ok and ratio >= 1.2
    _report(
        "diversity-slope",
        ok,
        f"matched slope {slopes['matched']:.3f}, clean-design slope {slopes['clean-design']:.3f} "
        f"per dB, ratio {ratio:.2f} (need >=1.2), high-point errors "
        f"{errs['matched'][-1]}/{errs['clean-design'][-1]}",
    )
    assert counts_ok, f"zero error count in {errs}"
    assert frames_ok
    assert ratio >= 1.2, f"slope ratio {ratio:.2f}"


def test_design_crossover_mismatch_effects(design6):
    clean, worst, avg = design6["clean"], design6["worst"], design6["avg"]

    # (a) clean-trained codebook on a noisy link vs the matched design
    vq = _sweep(POD4, clean, 0.04, 14.0, 50_000, seed=88)[0]
    matched = _sweep(POD4, worst, 0.04, 14.0, 50_000, seed=88)[0]
    ratio_a = vq.ber / matched.ber if matched.ber > 0 else float("inf")
    a_ok = ratio_a >= 1.5

    # (b) noise-hardened codebook on a clean link vs the fully matched pair.
    # Extra frames beyond the headline count: at these bit error rates the
    # headline budget leaves only a few dozen errors per point.
    covq_mis = _sweep(POD4, worst, 0.0, 14.0, 600_000, seed=88)[0]
    full = _sweep(POD4, clean, 0.0, 14.0, 600_000, seed=88)[0]
    ratio_b = covq_mis.ber / full.ber if full.ber > 0 else float("inf")
    b_ok = ratio_b <= 2.0

    # (c) worst-case rule vs average rule, averaged over the crossover grid
    grid = [0.0, 0.01, 0.02, 0.03, 0.04]
    wc_avg = float(np.mean([_sweep(POD4, worst, rf, 16.0, 400_000, seed=99)[0].ber for rf in grid]))
    av_avg = float(np.mean([_sweep(POD4, avg, rf, 16.0, 400_000, seed=99)[0].ber for rf in grid]))
    c_ok = wc_avg <= av_avg

    ok = a_ok and b_ok and c_ok
    _report(
        "design-mismatch",
        ok,
        f"(a) clean-design penalty {ratio_a:.1f}x (need >=1.5), "
        f"(b) hardened-design overhead {ratio_b:.2f}x (need <=2, errors "
        f"{covq_mis.bit_errors}/{full.bit_errors}), "
        f"(c) grid-average worst {wc_avg:.3e} <= average-rule {av_avg:.3e}: {c_ok}",
    )
    assert a_ok, f"mismatch penalty only {ratio_a:.2f}x"
    assert b_ok, f"hardened-design overhead {ratio_b:.2f}x"
    assert c_ok, f"worst-case rule {wc_avg:.3e} vs average rule {av_avg:.3e}"


def test_fast_analytic_consistency_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = []

    # (a) gradient against central finite differences, 20 random configurations
    worst_rel = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.choice([2, 4]))
        cb = _random_codebook(n, k, rng, eta_c=float(0.3 + 2.5 * rng.random()))
        inv = bsc_inversion_matrix(k, float(0.3 * rng.random()))
        dirs = sample_directions(n, 25, rng)
        asg = kernel_encode(dirs, np.asarray(cb.matrices), cb.eta_c, inv)
        j = int(rng.integers(k))

        def partial_j(p):
            w = inv[j, asg]
            q = np.array([float(np.sum(np.abs(p.conj().T @ h) ** 2)) for h in dirs])
            return float(np.mean(w * (1.0 + cb.eta_c * q) ** (-cb.n)))

        got = kernel_gradient(cb, j, inv, dirs, asg)
        fd = finite_difference_gradient(partial_j, np.asarray(cb.matrices)[j])
        rel = float(np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12))
        worst_rel = max(worst_rel, rel)
    if worst_rel > 1e-3:
        failures.append(f"gradient-fd rel {worst_rel:.2e}")

    # (b) bound chain equals the scaled training objective
    worst_id = 0.0
    for m, n, k in ((2, 1, 2), (3, 2, 4), (2, 2, 2)):
        cb = replace(_random_codebook(n, k, rng, eta_c=1.4, m=m), rho_d=0.07)
        inv = bsc_inversion_matrix(k, 0.07)
        dirs = sample_directions(n, 400, rng)
        evset = build_evaluation_set(cb, kernel_features(dirs))
        lhs = average_pep_bound(evset, inv)
        rhs = 0.5 * (1.0 + cb.eta_c) ** (-(m - n)) * kernel_objective(cb, inv, dirs)
        worst_id = max(worst_id, abs(lhs - rhs) / rhs)
    if worst_id > 1e-12:
        failures.append(f"bound-objective identity rel {worst_id:.2e}")

    # (c) closed-form fading integrals against Monte Carlo
    for m, n, beta in ((2, 1, 1.0), (4, 2, 1.0), (3, 2, 0.7)):
        rep = closed_form_integrals_check(1.5, m, n, 200_000, rng, beta=beta)
        if not rep.ok:
            failures.append(f"integrals m={m} n={n}")

    # (d) projection idempotence and power over 1000 random matrices
    worst_fix, worst_pow = 0.0, 0.0
    for trial in range(1000):
        n = 2 + trial % 2
        a = np.eye(n) + 0.6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        p = project_psd_power(a, n)
        p2 = project_psd_power(p, n)
        worst_fix = max(worst_fix, float(np.abs(p - p2).max()))
        worst_pow = max(worst_pow, abs(float(np.sum(np.abs(p) ** 2)) - n))
    if worst_fix > 1e-10 or worst_pow > 1e-8:
        failures.append(f"projection fix {worst_fix:.2e} pow {worst_pow:.2e}")

    # (e) inversion matrices are column stochastic and symmetric
    for k in (2, 8, 16):
        for rho in (0.0, 0.04, 0.3, 0.5):
            inv = bsc_inversion_matrix(k, rho)
            if np.abs(inv.sum(axis=0) - 1.0).max() > 1e-12 or not np.array_equal(inv, inv.T):
                failures.append(f"inversion matrix k={k} rho={rho}")

    # (f) training objective history never increases
    for seed in range(5):
        cfg = TrainerConfig(
            m=2, n=2, k=2, eta_c=2.0, rho_d=0.05, n_train=1000,
            inner_iters=4, max_rounds=25, tol=1e-8, step_m=63.0,
        )
        hist = fit(cfg, np.random.default_rng(seed)).objective_history
        if any(hist[i + 1] > hist[i] + 1e-12 for i in range(len(hist) - 1)):
            failures.append(f"history increased at seed {seed}")

    # (g) noiseless decoding is exact, one batch of frames per design
    bad_blocks = 0
    for kind, const, n_blocks in (("real-od-4", "bpsk", 600), ("qostbc-4", "qpsk-rot", 400)):
        design = get_design(kind)
        pod = PodStructure(inner=design, n=design.m)
        constellation = Constellation(const)
        precoders, h, syms, y = _random_frames(pod, constellation, n_blocks, 0.0, rng)
        decoded = decode_frames(pod, precoders, h, y, constellation)
        bad_blocks += int(np.sum(~np.all(np.isclose(decoded, syms, atol=1e-9), axis=1)))
    if bad_blocks:
        failures.append(f"{bad_blocks} noiseless decode mismatches")

    # (h) conditional bound dominates the simulated pairwise error rate
    sigma_n2, dist_sq = 0.8, 1.3
    bound = conditional_pep_bound(sigma_n2, dist_sq)
    g = rng.normal(0.0, math.sqrt(sigma_n2 / 2.0), size=200_000)
    rate = float(np.mean(g > math.sqrt(dist_sq) / 2.0))
    mc_sigma = math.sqrt(rate * (1.0 - rate) / len(g))
    if rate > bound + 3.0 * mc_sigma:
        failures.append(f"pairwise rate {rate:.4f} above bound {bound:.4f}")

    elapsed = time.monotonic() - t0
    time_ok = elapsed < 60.0
    ok = not failures and time_ok
    _report(
        "analytic-suite",
        ok,
        (f"8 subchecks clean, {elapsed:.1f}s (<60)" if not failures
         else f"failed: {'; '.join(failures)}, {elapsed:.1f}s"),
    )
    assert not failures, failures
    assert time_ok, f"suite took {elapsed:.1f}s"


def test_micro_scale_oracle_equivalence():
    rng = np.random.default_rng(31)
    encode_ok = objective_ok = gradient_ok = True
    for n, k in ((1, 2), (2, 2), (2, 4)):
        cb = _random_codebook(n, k, rng, eta_c=1.7)
        mats = np.asarray(cb.matrices)
        inv = bsc_inversion_matrix(k, 0.06)
        dirs = sample_directions(n, 120, rng)
        asg = kernel_encode(dirs, mats, cb.eta_c, inv)
        encode_ok &= asg.tolist() == [
            naive_encode(h, mats, cb.eta_c, cb.n, inv) for h in dirs
        ]
        objective_ok &= (
            abs(kernel_objective(cb, inv, dirs) - naive_objective(dirs, mats, cb.eta_c, cb.n, inv))
            <= 1e-12
        )
        for j in range(k):
            delta = np.abs(
                kernel_gradient(cb, j, inv, dirs, asg)
                - naive_gradient(dirs, mats, j, cb.eta_c, cb.n, inv, asg)
            ).max()
            gradient_ok &= bool(delta <= 1e-12)

    decode_ok = True
    for kind, const in (("real-od-2", "bpsk"), ("real-od-4", "bpsk"), ("qostbc-4", "qpsk-rot")):
        design = get_design(kind)
        pod = PodStructure(inner=design, n=design.m)
        constellation = Constellation(const)
        alphabets = _slot_alphabets(design, constellation)
        precoders, h, _, y = _random_frames(pod, constellation, 10, 0.15, rng)
        got = decode_frames(pod, precoders, h, y, constellation)
        for f in range(10):
            want = naive_ml_decode(pod, precoders[f], y[f], h[f], alphabets)
            decode_ok &= bool(np.allclose(got[f], want, atol=1e-12))

    ok = encode_ok and objective_ok and gradient_ok and decode_ok
    _report(
        "oracle-equivalence",
        ok,
        f"encode {encode_ok}, objective {objective_ok}, gradient {gradient_ok}, "
        f"decode {decode_ok} (all against naive loops)",
    )
    assert ok


def test_annealed_mapping_near_exhaustive_optimum():
    rng = np.random.default_rng(7)
    worst_excess = 0.0
    zero_ok = True
    for trial in range(3):
        mats = np.stack(
            [
                project_psd_power(
                    np.eye(2) + 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
                    2,
                )
                for _ in range(8)
            ]
        )
        marginals = rng.dirichlet(np.ones(8))
        dist_sq = _chordal_distance_matrix(mats)
        np.fill_diagonal(dist_sq, 0.0)
        bit_matrix = bsc_inversion_matrix(8, 0.04)
        best = min(
            mapping_cost(np.array(p), bit_matrix, marginals, dist_sq)
            for p in itertools.permutations(range(8))
        )
        cb = PrecoderCodebook(m=2, matrices=mats, eta_c=1.0, rho_d=0.0, marginals=marginals)
        perm = optimize_mapping(cb, 0.04, n_iter=10_000, rng=np.random.default_rng(100 + trial))
        got = mapping_cost(perm, bit_matrix, marginals, dist_sq)
        worst_excess = max(worst_excess, got / best - 1.0)

        bit_zero = bsc_inversion_matrix(8, 0.0)
        perms = [np.arange(8)] + [rng.permutation(8) for _ in range(50)]
        zero_ok &= all(mapping_cost(p, bit_zero, marginals, dist_sq) == 0.0 for p in perms)

    ok = worst_excess <= 0.02 and zero_ok
    _report(
        "index-mapping",
        ok,
        f"annealed within {worst_excess:.2%} of the exhaustive optimum over 8! "
        f"permutations (need <=2%), zero-crossover cost identically 0: {zero_ok}",
    )
    assert worst_excess <= 0.02, f"annealed mapping {worst_excess:.2%} above optimum"
    assert zero_ok
