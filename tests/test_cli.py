"""Command line interface tests: flag validation, exit codes, file
artifacts, and recipe determinism."""

import math

import numpy as np
import pytest

from podsim.channel import sample_directions
from podsim.cli import _parse_snr_grid, main
from podsim.codebook import load_codebook
from podsim.feedback import bsc_inversion_matrix, load_mapping
from podsim.link import BER_CSV_HEADER


@pytest.fixture(scope="module")
def tiny_codebook_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "tiny.cb"
    rc = main(
        ["train", "--antennas", "2", "--feedback-bits", "1", "--precoder-dim", "2",
         "--rho-d", "0.1", "--eta-c", "2.0", "--train-size", "1500",
         "--step-m", "63", "--max-rounds", "30", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    return out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    assert "train" in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_bad_snr_grid_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--code", "od2", "--constellation", "bpsk",
              "--snr-db", "5:1", "--frames", "10", "--out", str(tmp_path / "x.csv")])
    assert ei.value.code == 2


def test_snr_grid_parsing():
    assert _parse_snr_grid("10") == [10.0]
    assert _parse_snr_grid("0:12:2") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    assert _parse_snr_grid("4:8:2") == [4.0, 6.0, 8.0]


def test_zero_feedback_bits_rejected(tmp_path, capsys):
    rc = main(
        ["train", "--antennas", "4", "--feedback-bits", "0", "--rho-d", "0",
         "--eta-c", "1.0", "--out", str(tmp_path / "cb.cb")]
    )
    assert rc == 3
    assert "feedback bit" in capsys.readouterr().err


def test_eta_flags_must_be_exclusive(tmp_path):
    base = ["train", "--antennas", "2", "--feedback-bits", "1",
            "--rho-d", "0", "--out", str(tmp_path / "cb.cb")]
    assert main(base) == 3  # neither eta flag
    assert main(base + ["--eta-c", "1.0", "--design-snr-db", "10"]) == 3


def test_rho_flags_must_be_exclusive(tmp_path):
    rc = main(
        ["train", "--antennas", "2", "--feedback-bits", "1", "--eta-c", "1.0",
         "--rho-d", "0.1", "--rho-range", "0,0.1", "--out", str(tmp_path / "cb.cb")]
    )
    assert rc == 3


def test_missing_codebook_file_is_io_error(tmp_path, capsys):
    rc = main(["eigen", "--codebook", str(tmp_path / "absent.cb"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("podsim:")


def test_garbage_codebook_file_is_validation_error(tmp_path):
    bad = tmp_path / "bad.cb"
    bad.write_text("not a codebook\n", encoding="utf-8")
    rc = main(["eigen", "--codebook", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_train_writes_loadable_codebook(tiny_codebook_path):
    cb = load_codebook(tiny_codebook_path)
    assert (cb.m, cb.n, cb.k) == (2, 2, 2)
    assert cb.rho_d == pytest.approx(0.1)
    cb.validate()


def test_train_worst_case_rule_trains_at_upper_end(tmp_path):
    out = tmp_path / "wc.cb"
    rc = main(
        ["train", "--antennas", "2", "--feedback-bits", "1", "--rho-range", "0,0.08",
         "--eta-c", "2.0", "--train-size", "1500", "--step-m", "63",
         "--max-rounds", "30", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert load_codebook(out).rho_d == pytest.approx(0.08)


def test_eigen_csv_layout(tiny_codebook_path, tmp_path):
    out = tmp_path / "eigen.csv"
    assert main(["eigen", "--codebook", str(tiny_codebook_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,delta_sq_1,delta_sq_2"
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 1.0
    assert row[1] + row[2] == pytest.approx(2.0, abs=1e-6)


def test_eval_pep_csv_layout(tiny_codebook_path, tmp_path):
    out = tmp_path / "pep.csv"
    rc = main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.1",
               "--samples", "2000", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rho_f,eta_c,bound"
    assert len(lines) == 3
    clean = float(lines[1].split(",")[2])
    noisy = float(lines[2].split(",")[2])
    assert 0.0 < clean < noisy <= 0.5


def test_eval_pep_eta_c_override_matches_numpy(tiny_codebook_path, tmp_path):
    # Regions come from the codebook's eta_c and rho_d; only the bound is
    # evaluated at the override. The reference recomputes both with numpy.
    out = tmp_path / "pep.csv"
    rho_f, eta_c, samples, seed = [0.0, 0.05, 0.2], 0.7, 3000, 6
    rc = main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.05,0.2",
               "--eta-c", "0.7", "--samples", str(samples), "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split()
    assert lines[0] == "rho_f,eta_c,bound" and len(lines) == len(rho_f) + 1

    cb = load_codebook(tiny_codebook_path)
    dirs = sample_directions(cb.n, samples, np.random.default_rng(seed))
    q = np.stack([np.sum(np.abs(dirs @ p.conj()) ** 2, axis=1) for p in cb.matrices], axis=1)
    design_w = (1.0 + cb.eta_c * q) ** (-cb.n)
    assigned = np.argmin(design_w @ bsc_inversion_matrix(cb.k, cb.rho_d), axis=1)
    w = (1.0 + eta_c * q) ** (-cb.n)
    head = 0.5 * (1.0 + eta_c) ** (-(cb.m - cb.n))
    for rho, line in zip(rho_f, lines[1:]):
        row = [float(v) for v in line.split(",")]
        ref = head * float(np.mean(np.take_along_axis(
            w @ bsc_inversion_matrix(cb.k, rho), assigned[:, None], axis=1)))
        # The CSV keeps 12 significant digits: allow half a unit of the last
        # one on top of 1e-12 relative.
        last_digit = 10.0 ** (math.floor(math.log10(ref)) - 11)
        assert row[:2] == [rho, eta_c]
        assert abs(row[2] - ref) <= 0.5 * last_digit + 1e-12 * ref


@pytest.mark.parametrize("flags", [["--eta-c", "-1"], ["--eta-c", "nan"],
                                   ["--samples", "0"], ["--samples", "-1"]])
def test_eval_pep_rejects_bad_eta_c_and_sample_count(tiny_codebook_path, tmp_path, flags):
    out = tmp_path / "pep.csv"
    rc = main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.1",
               *flags, "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_eval_pep_snr_db_does_not_change_the_bound(tiny_codebook_path, tmp_path):
    # No bound eval-pep writes depends on the noise variance.
    texts = []
    for snr_db in ("0", "30"):
        out = tmp_path / f"pep{snr_db}.csv"
        rc = main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.1",
                   "--snr-db", snr_db, "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_eval_pep_block_length_is_usage_error(tiny_codebook_path, tmp_path):
    # No bound depends on the block length, so eval-pep does not take one.
    with pytest.raises(SystemExit) as ei:
        main(["eval-pep", "--codebook", str(tiny_codebook_path), "--block-length", "4",
              "--out", str(tmp_path / "pep.csv")])
    assert ei.value.code == 2


def test_simulate_csv_header_and_grid(tiny_codebook_path, tmp_path):
    out = tmp_path / "ber.csv"
    rc = main(["simulate", "--codebook", str(tiny_codebook_path), "--code", "od2",
               "--constellation", "bpsk", "--rho-f", "0.1", "--snr-db", "4:8:2",
               "--frames", "200", "--symbols-per-frame", "128", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == BER_CSV_HEADER
    assert len(lines) == 4
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [4.0, 6.0, 8.0]


def test_simulate_open_loop_needs_no_codebook(tmp_path):
    out = tmp_path / "open.csv"
    rc = main(["simulate", "--code", "od2", "--constellation", "bpsk",
               "--baseline", "open-loop", "--snr-db", "6", "--frames", "150",
               "--symbols-per-frame", "128", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(BER_CSV_HEADER)


def test_simulate_closed_loop_without_codebook_rejected(tmp_path):
    rc = main(["simulate", "--code", "od2", "--constellation", "bpsk",
               "--snr-db", "6", "--frames", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_simulate_mapping_flags(tiny_codebook_path, tmp_path):
    args = ["simulate", "--codebook", str(tiny_codebook_path), "--code", "od2",
            "--constellation", "bpsk", "--rho-f", "0.1", "--snr-db", "6",
            "--frames", "100", "--symbols-per-frame", "128", "--seed", "2"]
    assert main(args + ["--mapping", "anneal", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--mapping", "bogus", "--out", str(tmp_path / "b.csv")]) == 3


def test_map_anneal_writes_permutation(tiny_codebook_path, tmp_path):
    out = tmp_path / "map.txt"
    rc = main(["map-anneal", "--codebook", str(tiny_codebook_path), "--rho-f", "0.1",
               "--sa-iters", "500", "--seed", "4", "--out", str(out)])
    assert rc == 0
    perm = load_mapping(out, k=2)
    assert sorted(perm.tolist()) == [0, 1]


def test_smoke_recipe_reruns_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["recipe", "smoke", "--out-dir", str(d1)]) == 0
    assert main(["recipe", "smoke", "--out-dir", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert len(names) == 5
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
