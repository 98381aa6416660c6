"""The public surface: every name a layer module lists in `__all__` resolves
(the benchmark tracer looks each one up), and the package exports exactly the
union of the library layers' lists; `cli` exports only its entry point.

The exports themselves are pinned. A new export needs a caller in
`src/podsim` outside its own module, or in `bench/`; a name that only the
tests use stays private, and the tests import the private name or a
reference in `tests/oracles.py`.

The knobs are pinned too: the fields of the configuration dataclasses, the
parameters of `build_evaluation_set` and the options of every subcommand, so
that adding or removing one is a visible edit here.

Every type that takes values from its caller checks them when it is built
and is frozen, and the package asks for no check later: only a
`__post_init__` calls `validate()`. Each design rule is stated once, in the
function of the layer that owns it.

The package runs on numpy and the standard library alone: scipy is a test
extra, so no module under `src/podsim` may import it, or anything else."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import podsim
from podsim.cli import _build_parser

LIBRARY_LAYERS = ("channel", "codebook", "feedback", "trainer", "stbc", "pep", "link")


PUBLIC_NAMES = [
    "BerResult", "CodebookError", "Constellation", "EvaluationSet", "FeedbackChannel",
    "InnerDesign", "PodStructure", "PrecoderCodebook", "SimulationConfig", "TrainerConfig",
    "TrainingState", "average_pep_bound", "bsc_inversion_matrix", "build_evaluation_set",
    "candidate_codewords", "eigen_profile", "eta_c_from_snr_db", "fit", "get_design",
    "load_codebook", "load_mapping", "mapping_cost", "optimize_mapping", "project_psd_power",
    "range_design", "run_ber_sweep", "sample_directions", "save_codebook", "save_mapping",
    "write_ber_csv",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 30
    assert podsim.__all__ == PUBLIC_NAMES


def test_all_entries_resolve_and_package_is_their_union():
    union = set()
    for layer in LIBRARY_LAYERS:
        mod = importlib.import_module(f"podsim.{layer}")
        assert len(mod.__all__) == len(set(mod.__all__)), layer
        for name in mod.__all__:
            assert getattr(podsim, name) is getattr(mod, name), f"{layer}.{name}"
        union |= set(mod.__all__)
    assert sorted(podsim.__all__) == sorted(union)
    assert len(podsim.__all__) == len(union)
    cli = importlib.import_module("podsim.cli")
    assert cli.__all__ == ["main"] and callable(cli.main)


def test_package_states_no_export_itself():
    # `podsim/__init__.py` republishes each layer's `__all__` with one star
    # import and names no export, so the layer lists are the only lists.
    path = Path(podsim.__file__)
    stars = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module == "podsim":
                assert set(names) <= set(LIBRARY_LAYERS), f"line {node.lineno} imports {names}"
            else:
                assert names == ["*"], f"line {node.lineno} imports {names} from {node.module}"
                stars.append(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert node.value not in PUBLIC_NAMES, f"line {node.lineno} names {node.value!r}"
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            assert name not in PUBLIC_NAMES, f"line {node.lineno} names {name!r}"
    assert sorted(stars) == sorted(f"podsim.{layer}" for layer in LIBRARY_LAYERS)


@pytest.mark.parametrize("cls, fields", [
    (podsim.SimulationConfig, ["snr_grid_db", "frames", "pod", "constellation", "codebook",
                               "feedback", "symbols_per_frame", "seed"]),
    (podsim.FeedbackChannel, ["k", "rho_f"]),
    (podsim.TrainerConfig, ["m", "n", "k", "eta_c", "rho_d", "rho_range", "n_train",
                            "inner_iters", "step_m", "tol", "max_rounds", "restarts", "seed"]),
    (podsim.BerResult, ["snr_db", "rho_f", "frames", "bits_sent", "bit_errors"]),
    # N and K are read off the (K, N, N) matrix stack.
    (podsim.PrecoderCodebook, ["m", "matrices", "eta_c", "rho_d", "marginals", "rho_range"]),
])
def test_config_fields_are_pinned(cls, fields):
    assert [f.name for f in dataclasses.fields(cls) if f.init] == fields


# (type, valid arguments, a change that makes them invalid)
CHECKED_WHEN_BUILT = [
    (podsim.TrainerConfig, dict(m=2, n=2, k=2, eta_c=1.0), dict(n=3)),
    (podsim.PrecoderCodebook, dict(m=2, matrices=np.stack([np.eye(2)] * 2), eta_c=1.0,
                                   rho_d=0.0, marginals=np.full(2, 0.5)),
     dict(marginals=np.full(2, 0.9))),
    (podsim.SimulationConfig, dict(snr_grid_db=[8.0], frames=10,
                                   pod=podsim.PodStructure(podsim.get_design("alamouti"), 2),
                                   constellation=podsim.Constellation("bpsk")),
     dict(frames=0)),
    (podsim.FeedbackChannel, dict(k=2, rho_f=0.1), dict(k=3)),
    (podsim.PodStructure, dict(inner=podsim.get_design("alamouti"), n=2), dict(n=3)),
    (podsim.Constellation, dict(kind="bpsk"), dict(kind="qam-16")),
    (podsim.EvaluationSet, dict(occupancy=np.full(2, 0.5), tail=np.ones((2, 2)), head=0.5),
     dict(tail=np.ones((3, 3)))),
]


@pytest.mark.parametrize("cls, good, bad", CHECKED_WHEN_BUILT,
                         ids=[case[0].__name__ for case in CHECKED_WHEN_BUILT])
def test_inputs_are_checked_when_built(cls, good, bad):
    obj = cls(**good)
    with pytest.raises(ValueError):
        cls(**{**good, **bad})
    # Every such type is frozen: no assignment can bring back a value the check rejected.
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, *next(iter(bad.items())))


def test_codebook_holds_read_only_copies():
    mats, marginals = np.stack([np.eye(2, dtype=complex)] * 2), np.full(2, 0.5)
    cb = podsim.PrecoderCodebook(m=2, matrices=mats, eta_c=1.0, rho_d=0.0, marginals=marginals)
    mats[0], marginals[0] = 0.0, 1.0
    assert np.array_equal(cb.matrices[0], np.eye(2)) and cb.marginals[0] == 0.5
    for array in (cb.matrices, cb.marginals):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_records_keep_copies_of_sequence_inputs():
    # A caller's list edited after the build reaches no record: the grid and
    # the ranges are kept as tuples of floats.
    good = {cls: args for cls, args, _ in CHECKED_WHEN_BUILT}
    grid, rho_range = [8.0], [0.0, 0.1]
    sim = podsim.SimulationConfig(**{**good[podsim.SimulationConfig], "snr_grid_db": grid})
    cfg = podsim.TrainerConfig(**{**good[podsim.TrainerConfig], "rho_range": rho_range})
    cb = podsim.PrecoderCodebook(**{**good[podsim.PrecoderCodebook], "rho_range": rho_range})
    grid.append(400.0)
    rho_range[1] = 0.9
    assert sim.snr_grid_db == (8.0,) and cfg.rho_range == cb.rho_range == (0.0, 0.1)
    assert all(type(v) is float for v in (*sim.snr_grid_db, *cfg.rho_range, *cb.rho_range))


# Each design rule's message and the one function that raises it.
RULE_OWNERS = {
    "must lie in [0, 0.5]": "feedback.py:_check_crossover",
    "power of two": "feedback.py:_num_bits",
    "at least one feedback bit": "feedback.py:_feedback_bits",
    "eta_c must be finite and nonnegative": "codebook.py:_check_eta_c",
    "rho_range must be a pair": "codebook.py:_check_design",
}


def test_each_rule_is_raised_from_one_function():
    # A rule stated twice can drift apart; every other layer calls its owner.
    raisers = {message: set() for message in RULE_OWNERS}

    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, name)
                continue
            if isinstance(child, ast.Raise):
                text = "".join(n.value for n in ast.walk(child)
                               if isinstance(n, ast.Constant) and isinstance(n.value, str))
                for message, found in raisers.items():
                    if message in text:
                        found.add(f"{name}:{owner}")
            visit(child, owner, name)

    for path in sorted(Path(podsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>", path.name)
    assert raisers == {message: {owner} for message, owner in RULE_OWNERS.items()}


def test_validate_is_called_only_from_post_init():
    # A type checks itself when it is built; a consumer never asks again.
    calls = []

    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"), name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "validate"):
                calls.append((name, child.lineno, owner))
            visit(child, owner, name)

    for path in sorted(Path(podsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "<module>", path.name)
    assert [(name, owner) for name, _, owner in calls] == [
        ("codebook.py", "__post_init__"), ("link.py", "__post_init__")], calls


def test_evaluation_set_takes_no_index_channel():
    # A codebook fixes the index channel its encoder was designed for.
    params = inspect.signature(podsim.build_evaluation_set).parameters
    assert list(params) == ["cb", "dirs", "eta_c"]
    assert params["eta_c"].default is None


SUBCOMMAND_OPTIONS = {
    "train": ["--antennas", "--feedback-bits", "--precoder-dim", "--rho-d", "--rho-range",
              "--rho-average", "--eta-c", "--design-snr-db", "--block-length", "--train-size",
              "--step-m", "--tol", "--max-rounds", "--out", "--seed", "--log-level"],
    "eval-pep": ["--codebook", "--rho-f", "--eta-c", "--snr-db", "--samples", "--out", "--seed",
                 "--log-level"],
    "simulate": ["--codebook", "--code", "--constellation", "--rho-f", "--snr-db", "--frames",
                 "--symbols-per-frame", "--mapping", "--workers", "--out", "--seed", "--log-level"],
    "eigen": ["--codebook", "--out", "--log-level"],
    "map-anneal": ["--codebook", "--rho-f", "--sa-iters", "--out", "--seed", "--log-level"],
    "recipe": ["name", "--out-dir", "--workers", "--log-level"],
}


def test_subcommand_options_are_pinned():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [opt for action in cmd._actions if not isinstance(action, argparse._HelpAction)
               for opt in (action.option_strings or [action.dest])]
        for name, cmd in sub.choices.items()
    }
    assert got == SUBCOMMAND_OPTIONS


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(Path(podsim.__file__).parent.glob("*.py"))
    assert len(sources) == len(LIBRARY_LAYERS) + 2  # the layers, cli and __init__
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["podsim"]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in {"numpy", "podsim"} | sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_every_top_level_import_is_read():
    # A name that a module binds by a top-level import is read in that module,
    # so a deletion cannot leave its import behind. __init__ imports only to
    # re-export.
    for path in sorted(Path(podsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = {(alias.asname or alias.name).split(".")[0]: node.lineno
                 for node in imports if getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread = {name: line for name, line in bound.items() if name not in read}
        assert not unread, f"{path.name} never reads these imports (name: line): {unread}"
