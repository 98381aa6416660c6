import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from podsim.cli import main
from podsim.codebook import (
    CodebookError,
    PrecoderCodebook,
    eigen_profile,
    load_codebook,
    project_psd_power,
    save_codebook,
)


def random_codebook(m, n, k, rng, eta_c=2.5, rho_d=0.04):
    mats = np.stack(
        [
            project_psd_power(
                np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
                n,
            )
            for _ in range(k)
        ]
    )
    marg = rng.random(k)
    marg /= marg.sum()
    return PrecoderCodebook(
        m=m, matrices=mats, eta_c=eta_c, rho_d=rho_d, marginals=marg
    )


def test_project_feasible_input_unchanged():
    p = project_psd_power(np.eye(2), 2.0)
    assert np.allclose(p, np.eye(2), atol=1e-12)


def test_project_clamps_then_scales():
    # diag(2, -1): clamp to diag(2, 0), rescale to power 2 -> diag(sqrt 2, 0)
    p = project_psd_power(np.diag([2.0, -1.0]), 2.0)
    assert np.allclose(p, np.diag([np.sqrt(2.0), 0.0]), atol=1e-12)


def test_project_non_hermitian_input():
    # [[1, 1], [0, 1]] -> Hermitian part [[1, .5], [.5, 1]] (PSD, power 2.5),
    # so the result is just the power rescaling of that part.
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    p = project_psd_power(a, 2.0)
    expected = np.sqrt(2.0 / 2.5) * np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(p, expected, atol=1e-12)
    assert abs(np.sum(np.abs(p) ** 2) - 2.0) <= 1e-12


def test_project_output_always_feasible():
    rng = np.random.default_rng(0)
    for n in (2, 4):
        for _ in range(200):
            a = np.eye(n) + 0.8 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            p = project_psd_power(a, n)
            assert np.abs(p - p.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(p).min() >= -1e-12
            assert abs(np.sum(np.abs(p) ** 2) - n) <= 1e-9


def test_project_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = np.eye(3) + 0.8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        p1 = project_psd_power(a, 3.0)
        p2 = project_psd_power(p1, 3.0)
        assert np.abs(p1 - p2).max() <= 1e-10


def test_project_rejects_degenerate():
    with pytest.raises(CodebookError):
        project_psd_power(np.zeros((2, 2)), 2.0)
    with pytest.raises(CodebookError):
        project_psd_power(-np.eye(3), 3.0)
    # skew-Hermitian: Hermitian part vanishes
    with pytest.raises(CodebookError):
        project_psd_power(np.array([[0.0, 1.0], [-1.0, 0.0]]), 2.0)


def test_project_stack_matches_per_matrix():
    rng = np.random.default_rng(3)
    a = np.eye(3) + 0.8 * (rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))
    stacked = project_psd_power(a, 3.0)
    assert stacked.shape == (5, 3, 3)
    for j in range(5):
        assert np.abs(stacked[j] - project_psd_power(a[j], 3.0)).max() <= 1e-14
    a[2] = 0.0
    with pytest.raises(CodebookError):
        project_psd_power(a, 3.0)


def test_psd_cone_projection_nonexpansive():
    # ||proj(a) - x|| <= ||a - x|| for any Hermitian PSD x. proj(a) is the
    # unit-power output d scaled back: a cone projection is orthogonal to its
    # residual, so ||proj(a)|| = Re <a, d>.
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = g @ g.conj().T
        d = project_psd_power(a, 1.0)
        lhs = np.linalg.norm(np.vdot(d, a).real * d - x)
        rhs = np.linalg.norm(a - x)
        assert lhs <= rhs + 1e-10


def test_eigen_profile_identity_and_rank_one():
    mats = np.stack([np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)])
    u = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    mats[1] = 2.0 * np.outer(u, u.conj())
    cb = PrecoderCodebook(
        m=4, matrices=mats, eta_c=1.0, rho_d=0.0, marginals=np.array([0.5, 0.5])
    )
    prof = eigen_profile(cb)
    assert np.allclose(prof[0], [1.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(prof[1], [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_eigen_profile_power_sum_and_order():
    rng = np.random.default_rng(3)
    cb = random_codebook(m=4, n=4, k=8, rng=rng)
    prof = eigen_profile(cb)
    assert np.all(np.diff(prof, axis=1) <= 1e-12)
    assert np.abs((prof**2).sum(axis=1) - 4.0).max() <= 1e-9


def test_eigen_profile_reconstructs_gram():
    rng = np.random.default_rng(4)
    cb = random_codebook(m=4, n=4, k=4, rng=rng)
    prof = eigen_profile(cb)
    for j in range(cb.k):
        gram = cb.matrices[j] @ cb.matrices[j].conj().T
        w, u = np.linalg.eigh(gram)
        assert np.abs(np.sort(w)[::-1] - prof[j] ** 2).max() <= 1e-9
        assert np.linalg.norm((u * w) @ u.conj().T - gram) <= 1e-9


def test_gram_spectrum_invariant_to_right_unitary():
    rng = np.random.default_rng(5)
    cb = random_codebook(m=4, n=4, k=1, rng=rng)
    p = cb.matrices[0]
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rotated = p @ q
    assert np.allclose(
        np.linalg.eigvalsh(rotated @ rotated.conj().T),
        np.linalg.eigvalsh(p @ p.conj().T),
        atol=1e-9,
    )


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    cb = random_codebook(m=6, n=4, k=4, rng=rng, eta_c=1.875, rho_d=0.04)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    assert (loaded.m, loaded.n, loaded.k) == (6, 4, 4)
    assert loaded.eta_c == cb.eta_c
    assert loaded.rho_d == cb.rho_d
    assert np.array_equal(loaded.marginals, cb.marginals)
    assert np.array_equal(loaded.matrices, cb.matrices)
    # a second save must be byte-identical
    path2 = tmp_path / "cb2.txt"
    save_codebook(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_file_format_layout(tmp_path):
    rng = np.random.default_rng(7)
    cb = random_codebook(m=4, n=2, k=2, rng=rng)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "PODCB 1"
    assert lines[1].startswith("M 4 N 2 K 2 ETA_C ")
    assert lines[2].startswith("MARGINALS ")
    assert len(lines[2].split()) == 3
    assert lines[3] == "P 1"
    assert len(lines[4].split()) == 4  # two "re im" pairs per row
    assert lines[6] == "P 2"
    assert len(lines) == 3 + 2 * 3


def test_load_rejects_bad_version(tmp_path):
    rng = np.random.default_rng(8)
    cb = random_codebook(m=4, n=2, k=2, rng=rng)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    text = path.read_text().replace("PODCB 1", "PODCB 2", 1)
    path.write_text(text)
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_load_rejects_truncation(tmp_path):
    rng = np.random.default_rng(9)
    cb = random_codebook(m=4, n=2, k=2, rng=rng)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_load_rejects_power_violation(tmp_path):
    rng = np.random.default_rng(10)
    cb = random_codebook(m=4, n=2, k=2, rng=rng)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    lines = path.read_text().splitlines()
    lines[4] = "2.5 0 0 0"  # overweight first row of P 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_load_rejects_non_psd(tmp_path):
    # Hermitian with an eigenvalue well below the -1e-6 tolerance but the
    # right power: diag(a, -b) scaled to power 2.
    mats = np.zeros((1, 2, 2), dtype=complex)
    d = np.diag([2.0, -1.0])
    mats[0] = d * np.sqrt(2.0 / 5.0)
    with pytest.raises(CodebookError, match="below PSD tolerance"):
        PrecoderCodebook(m=2, matrices=mats, eta_c=1.0, rho_d=0.0, marginals=np.array([1.0]))


def test_load_rejects_nan(tmp_path):
    rng = np.random.default_rng(11)
    cb = random_codebook(m=4, n=2, k=2, rng=rng)
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    lines = path.read_text().splitlines()
    parts = lines[4].split()
    parts[0] = "nan"
    lines[4] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodebookError):
        load_codebook(path)


def test_worst_case_range_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    cb = dataclasses.replace(random_codebook(m=4, n=2, k=2, rng=rng), rho_range=(0.01, 0.04))
    path = tmp_path / "wc.cb"
    save_codebook(cb, path)
    lines = path.read_text().splitlines()
    assert lines[2] == "RANGE 0.01 0.040000000000000001"
    assert lines[3].startswith("MARGINALS ")
    loaded = load_codebook(path)
    assert loaded.rho_range == (0.01, 0.04)
    assert loaded.rho_d == cb.rho_d
    assert np.array_equal(loaded.matrices, cb.matrices)
    path2 = tmp_path / "wc2.cb"
    save_codebook(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_file_without_range_loads_as_before(tmp_path):
    # The benchmark codebook predates the RANGE line: it loads with no range
    # and saves back to the same bytes.
    stored = Path(__file__).resolve().parents[1] / "bench" / "data" / "k16_m4_rho0.04.pcb"
    cb = load_codebook(stored)
    assert cb.rho_range is None
    assert (cb.m, cb.n, cb.k, cb.rho_d) == (4, 4, 16, 0.04)
    save_codebook(cb, tmp_path / "again.pcb")
    assert (tmp_path / "again.pcb").read_bytes() == stored.read_bytes()


@pytest.mark.parametrize("line", [
    "RANGE 0.1", "RANGE 0.01 0.02 0.03", "RANGE a 0.1", "RANGE nan 0.1",
    "RANGE 0.3 0.1", "RANGE -0.1 0.2", "RANGE 0.1 0.6",
])
def test_load_rejects_bad_range(tmp_path, line):
    rng = np.random.default_rng(13)
    path = tmp_path / "cb.txt"
    save_codebook(random_codebook(m=4, n=2, k=2, rng=rng), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
    with pytest.raises(CodebookError):
        load_codebook(path)
    assert main(["eigen", "--codebook", str(path), "--out", str(tmp_path / "e.csv")]) == 3


@pytest.mark.parametrize("rho_range", [(0.3, 0.1), (-0.1, 0.2), (0.1, 0.6), (0.1,), "ab"])
def test_validate_rejects_bad_range(rho_range):
    rng = np.random.default_rng(14)
    with pytest.raises(CodebookError):
        dataclasses.replace(random_codebook(m=4, n=2, k=2, rng=rng), rho_range=rho_range)


@pytest.mark.parametrize("field, value, message", [
    ("matrices", np.ones((2, 2, 3)), r"matrices must have shape \(K, N, N\), got \(2, 2, 3\)"),
    ("matrices", np.full((2, 2, 2), np.nan), "matrices contain non-finite entries"),
    ("marginals", np.full(3, 1.0 / 3.0), r"marginals must have shape \(2,\), got \(3,\)"),
    ("matrices", np.eye(2), r"matrices must have shape \(K, N, N\), got \(2, 2\)"),
    ("marginals", np.array([np.nan, 0.5]), "marginals contain non-finite entries"),
])
def test_validate_rejects_arrays_no_file_can_hold(field, value, message):
    # load_codebook fills (K, N, N) finite matrices and K finite marginals
    # from the header's counts, so only a codebook built in code can break these.
    cb = random_codebook(m=4, n=2, k=2, rng=np.random.default_rng(15))
    with pytest.raises(CodebookError, match=message):
        dataclasses.replace(cb, **{field: value})


def test_entry_count_must_be_a_power_of_two():
    # K indices travel as log2 K feedback bits; K = 1 sends none.
    for k in (1, 2, 4):
        assert PrecoderCodebook(m=2, matrices=np.stack([np.eye(2)] * k), eta_c=1.0,
                                rho_d=0.0, marginals=np.full(k, 1.0 / k)).k == k
    with pytest.raises(CodebookError, match="power of two, got K=3"):
        PrecoderCodebook(m=2, matrices=np.stack([np.eye(2)] * 3), eta_c=1.0, rho_d=0.0,
                         marginals=np.full(3, 1.0 / 3.0))


# A valid file: two identity entries, each of power N = 2.
GOOD_FILE = """PODCB 1
M 2 N 2 K 2 ETA_C 1 RHO_D 0
MARGINALS 0.5 0.5
P 1
1 0 0 0
0 0 1 0
P 2
1 0 0 0
0 0 1 0
"""


@pytest.mark.parametrize("old, new, message", [
    (GOOD_FILE, "", "empty file"),
    (GOOD_FILE, "PODCB 1\nM 2 N 2 K 2 ETA_C 1 RHO_D 0\n", "truncated header"),
    (GOOD_FILE, "PODCB 1\nM 2 N 2 K 2 ETA_C 1 RHO_D 0\nRANGE 0 0.1\n", "truncated header"),
    ("ETA_C 1 RHO_D 0", "ETA_C 1", "malformed dimension line"),
    ("M 2 N 2 K 2", "M two N 2 K 2", "invalid literal for int"),
    ("MARGINALS", "MARGINS", "expected MARGINALS line"),
    ("P 2", "P 3", "expected 'P 2', got 'P 3'"),
    ("M 2 N 2", "M 1 N 2", "need 1 <= N <= M, got N=2, M=1"),
    ("ETA_C 1", "ETA_C -1", "eta_c must be finite and nonnegative, got -1.0"),
    ("RHO_D 0", "RHO_D 0.7", r"rho_d must lie in \[0, 0.5\], got 0.7"),
    ("0.5 0.5", "0.5 0.6", "marginals must be nonnegative and sum to one"),
    ("P 2\n1 0 0 0\n0 0 1 0", "P 2\n1 0 1 0\n0 0 0 0", "entry 1 is not Hermitian"),
    (GOOD_FILE, "PODCB 1\nM 2 N 2 K 0 ETA_C 1 RHO_D 0\nMARGINALS\n", "need at least one entry"),
    (GOOD_FILE, GOOD_FILE.replace("K 2", "K 3").replace("0.5 0.5", "0.5 0.25 0.25")
     + "P 3\n1 0 0 0\n0 0 1 0\n", "index count must be a power of two, got K=3"),
])
def test_malformed_file_exits_3_and_writes_nothing(tmp_path, capsys, old, new, message):
    assert old in GOOD_FILE
    path = tmp_path / "cb.txt"
    path.write_text(GOOD_FILE, encoding="utf-8")
    load_codebook(path)  # the unedited file loads, so the edit alone is at fault
    path.write_text(GOOD_FILE.replace(old, new), encoding="utf-8")
    out = tmp_path / "e.csv"
    assert main(["eigen", "--codebook", str(path), "--out", str(out)]) == 3
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_load_missing_file():
    with pytest.raises(OSError):
        load_codebook("/nonexistent/path/cb.txt")
