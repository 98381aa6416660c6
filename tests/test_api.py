"""The public surface: every name a layer module lists in `__all__` resolves
(the benchmark tracer looks each one up), and the package exports exactly the
union of the library layers' lists; `cli` exports only its entry point."""

import importlib

import podsim

LIBRARY_LAYERS = ("channel", "codebook", "feedback", "trainer", "stbc", "pep", "link")


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
