"""Public names: every exported name resolves, removed names stay gone."""

import importlib
import inspect
import pkgutil

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


@pytest.mark.parametrize("owner, name", [
    ("ftclique", "DEFAULT_SIZE_LIMIT"),
    ("ftclique", "SizeLimitError"),
    ("ftclique", "find_chordless_cycle"),
    ("ftclique", "GraphDocument"),
    ("ftclique", "MinimumCandidacy"),
    ("ftclique", "is_minimum_candidate"),
    ("ftclique", "matches_gluing_profile"),
    ("ftclique.canon", "DEFAULT_SIZE_LIMIT"),
    ("ftclique.canon", "SizeLimitError"),
    ("ftclique.chordal", "find_chordless_cycle"),
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
