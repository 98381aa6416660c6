"""Command line interface tests: flag validation, exit codes, file
artifacts, and recipe determinism."""

import argparse
import dataclasses
import logging
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import podsim
from podsim.channel import sample_directions
from podsim.cli import (
    _MAX_SNR_POINTS,
    RECIPES,
    _build_parser,
    _parse_snr_grid,
    main,
)
from podsim.codebook import load_codebook, save_codebook
from podsim.feedback import bsc_inversion_matrix, load_mapping, save_mapping
from podsim.link import _BER_CSV_HEADER, SimulationConfig, run_ber_sweep
from podsim.pep import average_pep_bound
from podsim.stbc import _REGISTRY, Constellation, PodStructure, get_design


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


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["train"], 2)])
def test_module_entry_point_exits_with_main(args, code):
    src = str(Path(podsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "podsim.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "podsim" in (proc.stdout if code == 0 else proc.stderr)


def test_bad_snr_grid_is_usage_error(tmp_path):
    for grid in ("5:1", "0:nan:1", "0:1:nan"):
        with pytest.raises(SystemExit) as ei:
            main(["simulate", "--code", "real-od-2", "--constellation", "bpsk",
                  "--snr-db", grid, "--frames", "10", "--out", str(tmp_path / "x.csv")])
        assert ei.value.code == 2


def test_snr_grid_parsing():
    assert _parse_snr_grid("10") == [10.0]
    assert _parse_snr_grid("0:12:2") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    assert _parse_snr_grid("4:8:2") == [4.0, 6.0, 8.0]


def test_snr_grid_past_the_point_ceiling_is_usage_error(tmp_path, capsys, monkeypatch):
    # The points are counted from A, B and STEP before any is made, so a grid
    # the run cannot hold exits 2 without reaching np.arange.
    assert len(_parse_snr_grid(f"0:{_MAX_SNR_POINTS - 1}:1")) == _MAX_SNR_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        _parse_snr_grid(f"0:{_MAX_SNR_POINTS}:1")

    def no_arange(*args, **kwargs):
        raise AssertionError(f"np.arange{args} called")

    monkeypatch.setattr(np, "arange", no_arange)
    out = tmp_path / "x.csv"
    for grid in ("0:1e13:1", "0:inf:1"):
        with pytest.raises(SystemExit) as ei:
            main(["simulate", "--code", "real-od-2", "--constellation", "bpsk",
                  "--snr-db", grid, "--frames", "10", "--out", str(out)])
        assert ei.value.code == 2
        assert capsys.readouterr().err.strip().endswith("SNR points")
    assert not out.exists()


def test_zero_feedback_bits_rejected(tmp_path, capsys):
    rc = main(
        ["train", "--antennas", "4", "--feedback-bits", "0", "--rho-d", "0",
         "--eta-c", "1.0", "--out", str(tmp_path / "cb.cb")]
    )
    assert rc == 3
    assert "feedback bit" in capsys.readouterr().err


def test_eta_flags_must_be_exclusive(tmp_path):
    # The parser states the rule: exactly one of the two, or a usage error.
    base = ["train", "--antennas", "2", "--feedback-bits", "1",
            "--rho-d", "0", "--out", str(tmp_path / "cb.cb")]
    for argv in (base, base + ["--eta-c", "1.0", "--design-snr-db", "10"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
    assert not (tmp_path / "cb.cb").exists()


def test_block_length_only_with_design_snr(tmp_path, capsys):
    # --block-length only sets eta_c from --design-snr-db, so it is an error
    # next to --eta-c, and a block length below 1 is invalid.
    base = ["train", "--antennas", "2", "--feedback-bits", "1", "--rho-d", "0",
            "--out", str(tmp_path / "cb.cb")]
    assert main(base + ["--eta-c", "1", "--block-length", "-3"]) == 3
    assert "--block-length" in capsys.readouterr().err
    assert main(base + ["--design-snr-db", "10", "--block-length", "0"]) == 3
    assert "block length must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "cb.cb").exists()


def test_rho_flags_must_be_exclusive(tmp_path):
    # At most one crossover flag; an explicit --rho-d 0 still counts as given.
    base = ["train", "--antennas", "2", "--feedback-bits", "1", "--eta-c", "1.0",
            "--out", str(tmp_path / "cb.cb")]
    pairs = (["--rho-d", "0.1", "--rho-range", "0,0.1"],
             ["--rho-d", "0", "--rho-average", "0,0.1"],
             ["--rho-range", "0,0.1", "--rho-average", "0,0.1"])
    for flags in pairs:
        with pytest.raises(SystemExit) as ei:
            main(base + flags)
        assert ei.value.code == 2
    assert not (tmp_path / "cb.cb").exists()


def test_train_logs_stop_reason_and_halvings(tmp_path, caplog):
    base = ["train", "--antennas", "2", "--feedback-bits", "1", "--rho-d", "0.1",
            "--eta-c", "2.0", "--train-size", "500", "--max-rounds", "4",
            "--log-level", "info", "--out", str(tmp_path / "cb.cb")]
    for tol, reason in (("-inf", "max_rounds"), ("0.5", "tol")):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="podsim"):
            assert main(base + [f"--tol={tol}"]) == 0
        stops = [r.getMessage() for r in caplog.records if "stopped on" in r.getMessage()]
        assert len(stops) == 1 and stops[0].startswith(f"stopped on {reason} after ")
        assert "backtracking halvings" in stops[0]


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
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.05", "0.2"]

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
        assert row[:2] == [rho, eta_c]
        assert abs(row[2] - ref) <= 1e-12 * ref


def test_parser_defaults_survive_earlier_calls(tiny_codebook_path, tmp_path):
    # Every main() call in a process parses with one parser: the --rho-f list
    # of one call must not become the default of the next.
    assert _build_parser() is _build_parser()
    out = tmp_path / "pep.csv"
    argv = ["eval-pep", "--codebook", str(tiny_codebook_path), "--samples", "200",
            "--out", str(out)]
    assert main([*argv, "--rho-f", "0,0.1"]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.0,")


def test_eval_pep_holds_one_index_table_at_a_time(tiny_codebook_path, tmp_path, monkeypatch):
    # A K x K table per crossover is built for its own row: at K = 16384 one
    # table is 2 GiB, so a list of them would multiply the peak by the rows.
    tables, alive = [], []

    def tracked_table(k, rho_f):
        table = bsc_inversion_matrix(k, rho_f)
        tables.append(weakref.ref(table))
        return table

    def counted_bound(evset, inv):
        alive.append(sum(ref() is not None for ref in tables))
        return average_pep_bound(evset, inv)

    monkeypatch.setattr("podsim.cli.bsc_inversion_matrix", tracked_table)
    monkeypatch.setattr("podsim.cli.average_pep_bound", counted_bound)
    assert main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.05,0.2",
                 "--samples", "200", "--out", str(tmp_path / "pep.csv")]) == 0
    assert len(tables) == 3 and alive == [1, 1, 1]


@pytest.mark.parametrize("flags", [["--eta-c", "-1"], ["--eta-c", "nan"],
                                   ["--samples", "0"], ["--samples", "-1"]])
def test_eval_pep_rejects_bad_eta_c_and_sample_count(tiny_codebook_path, tmp_path, flags, capsys):
    out = tmp_path / "pep.csv"
    rc = main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", "0,0.1",
               *flags, "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    if flags == ["--samples", "-1"]:
        assert "need at least one direction, got --samples -1" in capsys.readouterr().err


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


@pytest.mark.parametrize("rho_f", [",", ""])
def test_eval_pep_empty_rho_f_list_is_usage_error(tiny_codebook_path, tmp_path, rho_f):
    # An empty element would leave a CSV with only its header.
    out = tmp_path / "pep.csv"
    with pytest.raises(SystemExit) as ei:
        main(["eval-pep", "--codebook", str(tiny_codebook_path), "--rho-f", rho_f,
              "--out", str(out)])
    assert ei.value.code == 2
    assert not out.exists()


def test_eval_pep_block_length_is_usage_error(tiny_codebook_path, tmp_path):
    # No bound depends on the block length, so eval-pep does not take one.
    with pytest.raises(SystemExit) as ei:
        main(["eval-pep", "--codebook", str(tiny_codebook_path), "--block-length", "4",
              "--out", str(tmp_path / "pep.csv")])
    assert ei.value.code == 2


def test_simulate_csv_header_and_grid(tiny_codebook_path, tmp_path):
    out = tmp_path / "ber.csv"
    rc = main(["simulate", "--codebook", str(tiny_codebook_path), "--code", "real-od-2",
               "--constellation", "bpsk", "--rho-f", "0.1", "--snr-db", "4:8:2",
               "--frames", "200", "--symbols-per-frame", "128", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == _BER_CSV_HEADER
    assert len(lines) == 4
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [4.0, 6.0, 8.0]


def test_simulate_open_loop_needs_no_codebook(tmp_path):
    # No codebook is the open loop: the counts are those of a sweep given no
    # codebook.
    out = tmp_path / "open.csv"
    rc = main(["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--snr-db", "6:10:4",
               "--frames", "150", "--symbols-per-frame", "128", "--seed", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split()
    assert lines[0] == _BER_CSV_HEADER
    design = get_design("real-od-2")
    config = SimulationConfig(
        snr_grid_db=[6.0, 10.0], frames=150, pod=PodStructure(inner=design, n=design.m),
        constellation=Constellation("bpsk"), symbols_per_frame=128, seed=2,
    )
    counts = [int(line.split(",")[4]) for line in lines[1:]]
    assert counts == [r.bit_errors for r in run_ber_sweep(config)]
    assert min(counts) > 0


def test_simulate_closed_loop_without_codebook_rejected(tmp_path, capsys):
    # A feedback crossover asks for the closed loop, which needs the codebook
    # whose indices cross it; without one the run is refused, not run open.
    out = tmp_path / "x.csv"
    for rho_f in ("0.04", "0.5"):
        rc = main(["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--rho-f", rho_f,
                   "--snr-db", "6", "--frames", "10", "--out", str(out)])
        assert rc == 3
        assert "give --codebook" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_mapping_flags(tiny_codebook_path, tmp_path, capsys):
    # An annealed mapping comes only from map-anneal, as a file: --mapping is
    # its path, and any other word names a file that is not there.
    mapping = tmp_path / "map.txt"
    assert main(["map-anneal", "--codebook", str(tiny_codebook_path), "--rho-f", "0.1",
                 "--seed", "2", "--out", str(mapping)]) == 0
    args = ["simulate", "--codebook", str(tiny_codebook_path), "--code", "real-od-2",
            "--constellation", "bpsk", "--rho-f", "0.1", "--snr-db", "6",
            "--frames", "100", "--symbols-per-frame", "128", "--seed", "2"]
    assert main(args + ["--mapping", str(mapping), "--out", str(tmp_path / "a.csv")]) == 0
    for word in ("anneal", "identity"):
        assert main(args + ["--mapping", str(tmp_path / word),
                            "--out", str(tmp_path / "b.csv")]) == 4
        assert "No such file" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.fixture(scope="module")
def k8_codebook_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "k8.cb"
    assert main(["train", "--antennas", "2", "--feedback-bits", "3", "--precoder-dim", "2",
                 "--rho-d", "0.1", "--eta-c", "2.0", "--train-size", "2000", "--step-m", "63",
                 "--max-rounds", "20", "--seed", "3", "--out", str(out)]) == 0
    return out


def test_simulate_mapping_relabels_the_codebook(k8_codebook_path, tmp_path):
    # The mapping moves entry i to label pi(i). A K=8 pi tells that apart from
    # its inverse and the identity. The counts were first pinned when the
    # mapping still acted inside the feedback link, as pi(i) sent and pi^-1
    # applied, and re-recorded when real orthogonal designs began drawing the
    # decoder statistic itself.
    cb = str(k8_codebook_path)
    pi = np.array([3, 6, 0, 5, 1, 7, 2, 4])
    pinned = {"pi": (pi, [17089, 4625]), "inverse": (np.argsort(pi), [16536, 4322]),
              "identity": (np.arange(8), [13998, 3179])}
    for name, (perm, counts) in pinned.items():
        save_mapping(tmp_path / f"{name}.txt", perm)
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--codebook", cb, "--code", "real-od-2",
                     "--constellation", "bpsk", "--rho-f", "0.1", "--snr-db", "4:8:4", "--frames", "4000", "--seed", "3",
                     "--mapping", f"{tmp_path / name}.txt", "--out", str(out)]) == 0
        assert [int(line.split(",")[4]) for line in out.read_text().split()[1:]] == counts, name


def test_simulate_mapping_matters_without_index_errors(k8_codebook_path, tmp_path):
    # The encoder weighs the labels by its design channel, the BSC at rho_d.
    # So at rho_d = 0.1 a relabeling changes the applied entries, and the
    # counts, even at rho_f = 0; at rho_d = 0 the encoder ignores labels.
    designs = {"0.1": k8_codebook_path, "0": tmp_path / "k8_rho0.cb"}
    save_codebook(dataclasses.replace(load_codebook(k8_codebook_path), rho_d=0.0), designs["0"])
    perms = {"identity": np.arange(8), "pi": np.array([3, 6, 0, 5, 1, 7, 2, 4])}
    counts = {}
    for rho_d, cb in designs.items():
        for name, perm in perms.items():
            save_mapping(tmp_path / f"{name}.txt", perm)
            out = tmp_path / f"{rho_d}_{name}.csv"
            assert main(["simulate", "--codebook", str(cb), "--code", "real-od-2",
                         "--constellation", "bpsk", "--rho-f", "0", "--snr-db", "4:8:4",
                         "--frames", "4000", "--seed", "3",
                         "--mapping", f"{tmp_path / name}.txt", "--out", str(out)]) == 0
            counts[rho_d, name] = [int(line.split(",")[4]) for line in out.read_text().split()[1:]]
    assert counts["0.1", "pi"] != counts["0.1", "identity"]
    assert counts["0", "pi"] == counts["0", "identity"]


def test_train_takes_no_mapping(tmp_path):
    # The trained entry order is the index assignment, so train has no --mapping.
    with pytest.raises(SystemExit) as ei:
        main(["train", "--antennas", "2", "--feedback-bits", "1", "--rho-d", "0",
              "--eta-c", "1", "--mapping", "identity", "--out", str(tmp_path / "cb.cb")])
    assert ei.value.code == 2


TRAIN_SMALL = ["train", "--antennas", "2", "--feedback-bits", "1", "--rho-d", "0.1",
               "--train-size", "200", "--max-rounds", "3"]


@pytest.mark.parametrize("argv, field", [
    (TRAIN_SMALL + ["--eta-c", "nan"], "eta_c"),
    (TRAIN_SMALL + ["--design-snr-db", "nan"], "eta_c"),
    (TRAIN_SMALL + ["--eta-c", "inf"], "eta_c"),
    (TRAIN_SMALL + ["--eta-c", "1", "--step-m", "-3"], "step_m"),
    (TRAIN_SMALL + ["--eta-c", "1", "--step-m", "nan"], "step_m"),
    (TRAIN_SMALL + ["--eta-c", "1", "--tol", "nan"], "tol"),
    (["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--frames", "20",
      "--snr-db", "nan"], "SNR points"),
    (["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--frames", "20",
      "--snr-db=-inf"], "SNR points"),
    # Finite values whose 10^(snr/10) leaves the float range, so that neither
    # the noise variance m / 10^(snr/10) nor eta_c = m 10^(snr/10) / (4 T)
    # is a finite positive number.
    (["simulate", "--code", "real-od-4", "--constellation", "bpsk", "--frames", "1",
      "--snr-db", "4000"], "SNR points"),
    (["simulate", "--code", "real-od-4", "--constellation", "bpsk", "--frames", "1",
      "--snr-db=-4000"], "SNR points"),
    (TRAIN_SMALL + ["--design-snr-db", "4000"], "eta_c"),
    # A finite noise variance (about 1.3e308) whose product with a channel
    # gain is not: drawn with, it would decide every block from nan metrics.
    (["simulate", "--code", "real-od-4", "--constellation", "bpsk", "--frames", "10",
      "--snr-db=-3075"], "SNR points"),
])
def test_non_finite_numbers_are_validation_errors(argv, field, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--code", "real-od-4", "--constellation", "bpsk", "--snr-db", "6",
      "--frames", "1", "--symbols-per-frame", "100000000000"], "symbols_per_frame"),
    (["eval-pep", "--samples", "10000000000000"], "--samples"),
    (["train", "--antennas", "2", "--feedback-bits", "1", "--eta-c", "1",
      "--train-size", "10000000000000"], "n_train"),
    (["train", "--antennas", "2", "--feedback-bits", "15", "--eta-c", "1",
      "--train-size", "32768"], "--feedback-bits 15"),
    (["eval-pep", "--rho-f", "0,0.7"], "crossover must lie in [0, 0.5], got 0.7"),
    (["eval-pep", "--rho-f", "nan"], "crossover must lie in [0, 0.5], got nan"),
    (["eval-pep", "--eta-c", "nan"], "eta_c must be finite and nonnegative, got nan"),
    (["eval-pep", "--samples", "0"], "--samples 0"),
    (["train", "--antennas", "2", "--feedback-bits", "5000", "--eta-c", "1"],
     "--feedback-bits 5000"),
    (["train", "--antennas", "2", "--feedback-bits", "1000000", "--eta-c", "1"],
     "--feedback-bits 1000000"),
    (["simulate", "--code", "real-od-4", "--constellation", "qpsk-rot", "--snr-db", "6",
      "--frames", "10", "--workers", "2"], "real-od-4 carries real symbols"),
])
def test_oversized_requests_are_validation_errors(argv, field, tiny_codebook_path, tmp_path,
                                                  capsys, monkeypatch):
    # Each asks for an array of 8 GiB or more (K = 2^15 or more for a K x K table),
    # gives eval-pep a crossover, eta_c or sample count it cannot use, or pairs a
    # design with an alphabet its decoder cannot take; it is rejected before
    # anything is drawn, so every draw here fails the test.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before sizing the request")

    for target in ("podsim.link._simulate_chunks", "podsim.cli._draw_direction_features",
                   "podsim.trainer._draw_direction_features"):
        monkeypatch.setattr(target, no_draw)
    if argv[0] == "eval-pep":
        argv = argv + ["--codebook", str(tiny_codebook_path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


BENCH_CODEBOOK = Path(__file__).resolve().parents[1] / "bench" / "data" / "k16_m4_rho0.04.pcb"
SINGLE_ENTRY_CODEBOOK = "PODCB 1\nM 2 N 2 K 1 ETA_C 1 RHO_D 0\nMARGINALS 1\nP 1\n1 0 0 0\n0 0 1 0\n"
OPEN_LOOP = ["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--snr-db", "6",
             "--frames", "10"]


@pytest.mark.parametrize("argv, message", [
    (TRAIN_SMALL + ["--eta-c", "1", "--train-size", "1"], "at least k=2 training vectors, got 1"),
    (TRAIN_SMALL + ["--eta-c", "1", "--max-rounds", "0"], "and restarts must be positive"),
    (["train", "--antennas", "2", "--feedback-bits", "1", "--eta-c", "1",
      "--rho-range", "0.3,0.1"], "rho_range must be a pair"),
    (OPEN_LOOP + ["--codebook", "{tiny}", "--rho-f", "0.7"], r"crossover must lie in \[0, 0.5\]"),
    (OPEN_LOOP + ["--workers", "0"], "need at least one worker, got 0"),
    # A 2-antenna codebook on a 4-antenna code, and an N = 4 one on a 2-antenna code.
    (["simulate", "--codebook", "{tiny}", "--code", "real-od-4", "--constellation", "bpsk",
      "--snr-db", "6", "--frames", "10"], r"codebook \(2, 2\) does not match"),
    (OPEN_LOOP + ["--codebook", str(BENCH_CODEBOOK)], "precoded tail must satisfy 1 <= n <= 2"),
    (["map-anneal", "--codebook", "{single}", "--rho-f", "0.1"],
     "need at least one feedback bit, got K=1"),
])
def test_bad_values_from_flags_and_files_are_validation_errors(
        argv, message, tiny_codebook_path, tmp_path, capsys):
    single = tmp_path / "single.cb"
    single.write_text(SINGLE_ENTRY_CODEBOOK, encoding="utf-8")
    argv = [a.format(tiny=tiny_codebook_path, single=single) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    TRAIN_SMALL + ["--eta-c", "1"],
    ["eval-pep", "--codebook", "cb.cb"],
    OPEN_LOOP,
    ["eigen", "--codebook", "cb.cb"],
    ["map-anneal", "--codebook", "cb.cb", "--rho-f", "0.1"],
])
@pytest.mark.parametrize("out", ["missing/out", "dir"])
def test_out_directory_is_checked_before_any_work(argv, out, tmp_path, capsys, monkeypatch):
    # An --out in no directory, or naming one, is an I/O error before any
    # codebook is read, trained or swept.
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    for target in ("podsim.cli.fit", "podsim.cli.load_codebook", "podsim.cli.run_ber_sweep"):
        monkeypatch.setattr(target, no_work)
    (tmp_path / "dir").mkdir()
    assert main(argv + ["--out", str(tmp_path / out)]) == 4
    assert capsys.readouterr().err.startswith("podsim: --out ")
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("flag", ["--rho-range", "--rho-average"])
@pytest.mark.parametrize("pair", ["0.1", "0.1,0.2,0.3"])
def test_malformed_rho_pair_is_usage_error(flag, pair, tmp_path):
    out = tmp_path / "cb.cb"
    with pytest.raises(SystemExit) as ei:
        main(["train", "--antennas", "2", "--feedback-bits", "1", "--eta-c", "1",
              flag, pair, "--out", str(out)])
    assert ei.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("not a mapping\n", "not a mapping file"),
    ("PODMAP 1\nK 2\n", "malformed mapping file"),
    ("PODMAP 1\nN 2\n1 2\n", "malformed mapping file"),
    ("PODMAP 1\nK 4\n1 2 3 4\n", "mapping is for K=4, expected K=2"),
    ("PODMAP 1\nK 2\n1 1\n", "permutation"),
])
def test_malformed_mapping_file_exits_3_and_writes_nothing(text, message, tiny_codebook_path,
                                                           tmp_path, capsys):
    mapping = tmp_path / "map.txt"
    mapping.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(OPEN_LOOP + ["--codebook", str(tiny_codebook_path),
                             "--mapping", str(mapping), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_baseline_is_usage_error(tiny_codebook_path, tmp_path):
    # The inputs decide the run, so there is no mode to ask for.
    out = tmp_path / "x.csv"
    for mode in ("none", "open-loop", "genie"):
        with pytest.raises(SystemExit) as ei:
            main(["simulate", "--codebook", str(tiny_codebook_path), "--code", "real-od-2",
                  "--constellation", "bpsk", "--baseline", mode, "--snr-db", "6",
                  "--frames", "10", "--out", str(out)])
        assert ei.value.code == 2
    assert not out.exists()


def test_simulate_rejects_rho_f_outside_the_closed_loop(tmp_path, capsys):
    # Without a codebook there is no feedback link to cross and no entry to
    # relabel, so --rho-f or --mapping there is an error rather than a CSV
    # row saying 0.
    out = tmp_path / "x.csv"
    base = ["simulate", "--code", "real-od-2", "--constellation", "bpsk", "--snr-db", "6",
            "--frames", "10", "--out", str(out)]
    for flags in (["--rho-f", "0.3"], ["--mapping", str(tmp_path / "map.txt")]):
        assert main(base + flags) == 3
        assert "give --codebook" in capsys.readouterr().err
    assert not out.exists()


def test_recipes_pass_rho_f_only_to_the_closed_loop(tmp_path):
    for recipe in RECIPES.values():
        for step in recipe(tmp_path, 1):
            _build_parser().parse_args(step)
            if "--rho-f" in step:
                assert "--codebook" in step, step


@pytest.mark.parametrize("flag, old_name", [("--code", "od4"),
                                            ("--constellation", "qpsk-rot45")])
def test_simulate_takes_only_library_names(flag, old_name, tmp_path, capsys):
    # A design and an alphabet have one name each, the library's; a name the
    # command line once took is a usage error that lists the valid choices.
    argv = ["simulate", "--code", "real-od-4", "--constellation", "bpsk", "--snr-db", "6",
            "--frames", "10", "--out", str(tmp_path / "x.csv")]
    argv[argv.index(flag) + 1] = old_name
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{old_name}'" in err
    choices = sorted(_REGISTRY) if flag == "--code" else ["bpsk", "qpsk-rot"]
    assert all(f"'{name}'" in err for name in choices), err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind", sorted(_REGISTRY))
def test_simulate_open_loop_new_codes_match_sweep(tmp_path, kind):
    # Every registry kind runs under its own name, with its matching alphabet.
    design = get_design(kind)
    alphabet = "bpsk" if design.is_real else "qpsk-rot"
    out = tmp_path / "ber.csv"
    rc = main(["simulate", "--code", kind, "--constellation", alphabet, "--snr-db", "0:6:6",
               "--frames", "20", "--seed", "4", "--out", str(out)])
    assert rc == 0
    config = SimulationConfig(
        snr_grid_db=[0.0, 6.0], frames=20, pod=PodStructure(inner=design, n=design.m),
        constellation=Constellation(alphabet),
        symbols_per_frame=130 // design.n_sym * design.n_sym, seed=4,
    )
    counts = [int(line.split(",")[4]) for line in out.read_text().split()[1:]]
    assert counts == [r.bit_errors for r in run_ber_sweep(config)]
    assert counts[0] > 0


def test_map_anneal_writes_permutation(tiny_codebook_path, tmp_path):
    out = tmp_path / "map.txt"
    rc = main(["map-anneal", "--codebook", str(tiny_codebook_path), "--rho-f", "0.1",
               "--sa-iters", "500", "--seed", "4", "--out", str(out)])
    assert rc == 0
    perm = load_mapping(out, k=2)
    assert sorted(perm.tolist()) == [0, 1]


def test_map_anneal_rejects_zero_iterations(tiny_codebook_path, tmp_path, capsys):
    out = tmp_path / "map.txt"
    rc = main(["map-anneal", "--codebook", str(tiny_codebook_path), "--rho-f", "0.1",
               "--sa-iters", "0", "--out", str(out)])
    assert rc == 3
    assert "annealing iteration, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eigen", "--codebook", "cb.cb", "--out", "x.csv", "--seed", "1"],
    ["recipe", "smoke", "--out-dir", "out", "--seed", "1"],
])
def test_seed_is_usage_error_where_nothing_draws(argv):
    # eigen draws no random numbers, and every recipe step carries its own seed.
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2


def test_recipe_stops_at_its_first_failing_step(tiny_codebook_path, tmp_path, monkeypatch):
    # The first step reads a missing codebook (an I/O error, exit 4); the
    # recipe returns its code and never runs the second step.
    def two_steps(out, workers):
        return [["eigen", "--codebook", str(out / "missing.cb"), "--out", str(out / "first.csv")],
                ["eigen", "--codebook", str(tiny_codebook_path), "--out", str(out / "second.csv")]]

    monkeypatch.setitem(RECIPES, "smoke", two_steps)
    assert main(["recipe", "smoke", "--out-dir", str(tmp_path)]) == 4
    assert not (tmp_path / "first.csv").exists()
    assert not (tmp_path / "second.csv").exists()


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_checks_workers_before_its_first_step(name, tmp_path, capsys, monkeypatch):
    # Every recipe trains first, and eigen-spread never sweeps at all, so a
    # worker count is checked before any step runs.
    def no_fit(*args, **kwargs):
        raise AssertionError("trained before checking --workers")

    monkeypatch.setattr("podsim.cli.fit", no_fit)
    out = tmp_path / "r"
    assert main(["recipe", name, "--out-dir", str(out), "--workers", "0"]) == 3
    assert "need at least one worker, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_recipe_runs_every_step_at_its_log_level(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="podsim"):
        assert main(["recipe", "smoke", "--out-dir", str(tmp_path), "--log-level", "info"]) == 0
    messages = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("recipe step: ") for m in messages) == 5
    assert sum(m.startswith("stopped on ") for m in messages) == 1


def test_smoke_recipe_reruns_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["recipe", "smoke", "--out-dir", str(d1)]) == 0
    assert main(["recipe", "smoke", "--out-dir", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert len(names) == 5
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
