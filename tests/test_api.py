"""Public names: every exported name resolves, removed names stay gone,
and every name the benchmark's tracer wraps is there to wrap."""

import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import ftclique

MODULES = sorted(m.name for m in pkgutil.iter_modules(ftclique.__path__)
                 if m.name != "__main__")


def test_package_exports_resolve():
    for name in ftclique.__all__:
        assert hasattr(ftclique, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ftclique.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"ftclique.{name}.{attr}"


def test_benchmark_wrap_points_exist():
    # bench/tracer.py replaces these attributes in place; a missing one
    # makes Tracer.install raise KeyError. The module is compiled from its
    # source, so no bytecode is written next to it, and it is given the
    # modules by name, as the benchmark harness's import_fresh gives them.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    ft = types.SimpleNamespace(**{m: importlib.import_module(f"ftclique.{m}") for m in MODULES})
    for owner, attr, _, _ in tracer._instrumentation(ft):
        assert attr in vars(owner), (owner.__name__, attr)


@pytest.mark.parametrize("owner, name", [
    ("ftclique", "DEFAULT_SIZE_LIMIT"),
    ("ftclique", "SizeLimitError"),
    ("ftclique", "find_chordless_cycle"),
    ("ftclique", "GraphDocument"),
    ("ftclique", "MinimumCandidacy"),
    ("ftclique", "is_minimum_candidate"),
    ("ftclique", "matches_gluing_profile"),
    ("ftclique", "SeparatorStructure"),
    ("ftclique", "separator_structure"),
    ("ftclique.canon", "DEFAULT_SIZE_LIMIT"),
    ("ftclique.canon", "SizeLimitError"),
    ("ftclique.chordal", "find_chordless_cycle"),
    ("ftclique.chordal", "SeparatorStructure"),
    ("ftclique.chordal", "separator_structure"),
    ("ftclique.construct", "matches_gluing_profile"),
    ("ftclique.formats", "GraphDocument"),
    ("ftclique.search", "EXHAUSTIVE_ORDER_LIMIT"),
    ("ftclique.search", "check_completed_report"),
    ("ftclique.verify", "MinimumCandidacy"),
    ("ftclique.verify", "is_minimum_candidate"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(importlib.import_module(owner), name)


@pytest.mark.parametrize("method", [
    "closed_neighborhood", "neighborhood_of", "closed_neighborhood_of",
])
def test_removed_graph_methods_are_gone(method):
    assert not hasattr(ftclique.Graph, method)


@pytest.mark.parametrize("function, argument", [
    (ftclique.search_minimum, "allow_large"),
    (ftclique.probe_conjecture, "allow_large"),
    (ftclique.canonical_form, "limit"),
    (ftclique.canonical_labeling, "limit"),
    (ftclique.audit_basic, "samples_per_vertex"),
    (ftclique.audit_basic, "exhaustive_cutoff"),
    (ftclique.audit_basic, "seed"),
    (ftclique.TreeTemplate.path, "newest"),
    (ftclique.TreeTemplate.star, "slots"),
    (ftclique.parse_graph, "fmt"),
])
def test_removed_arguments_are_gone(function, argument):
    assert argument not in inspect.signature(function).parameters
