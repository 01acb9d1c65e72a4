"""Constructions: hub stars, glued clique trees, contraction, c = 2 families."""

import hashlib
import tracemalloc
import warnings

import pytest

from ftclique import (
    FTParams,
    Graph,
    TreeTemplate,
    c2_even_k_construction,
    canonical_form,
    complete_graph,
    contract_neighborhood,
    cycle_graph,
    emit_edge_list,
    harary,
    hub_edge_bound,
    odd_cycle,
    star_construction,
    tree_of_cliques,
    verify_ft,
    vertex_connectivity,
)
from helpers import edge_connectivity_bruteforce, matches_gluing_profile


def test_star_edge_counts_match_the_formula():
    for k in range(4):
        for p in range(1, 6):
            for c in range(3, 6):
                g = star_construction(k, p, c)
                assert g.n == p * c + k
                assert g.edge_count == hub_edge_bound(k, p, c)


def test_star_trivial_case_is_a_single_clique():
    assert star_construction(0, 1, 3) == complete_graph(3)
    assert star_construction(2, 1, 3) == complete_graph(5)


def test_star_parameter_validation():
    with pytest.raises(ValueError):
        star_construction(-1, 1, 3)
    with pytest.raises(ValueError):
        star_construction(1, 0, 3)
    with pytest.raises(ValueError):
        star_construction(1, 1, 1)


def test_tree_template_validation():
    with pytest.raises(ValueError):
        TreeTemplate(3, ((0, 1, (0,)),)).validate(1, 3)  # missing edge
    with pytest.raises(ValueError):
        TreeTemplate(3, ((0, 1, (0,)), (0, 1, (0,)))).validate(1, 3)
    with pytest.raises(ValueError):
        TreeTemplate(2, ((0, 1, (9,)),)).validate(1, 3)  # slot range
    with pytest.raises(ValueError):
        TreeTemplate(2, ((0, 1, (0, 0)),)).validate(2, 3)  # repeats
    # fields that are not ints, bools included, are refused before sorting
    for gluing in ((0, 1, ("0",)), (0.0, 1, (0,)), (0, 1, 0), (False, True, (True,))):
        with pytest.raises(ValueError, match="is not of ints"):
            TreeTemplate(2, (gluing,)).validate(1, 3)
    with pytest.raises(ValueError):
        TreeTemplate.path(3, 4, 3)  # newest attachment needs k <= c
    TreeTemplate.path(3, 2, 3).validate(2, 3)
    TreeTemplate.star(4, 1).validate(1, 3)


def test_template_counts_its_gluings_before_p_sizes_a_list():
    # a one-line template file is the header alone; its p must not size a
    # list of parts before the missing gluing lines are noticed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exactly one gluing for each part 1..999999"):
            TreeTemplate(10 ** 6, ()).validate(1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_construction_labels_are_pinned():
    # benchmark inputs are byte-identical across commits only while every
    # construction keeps its labels, so the emitted edge lists are pinned
    digest, count = hashlib.sha256(), 0
    for k in range(4):
        for p in range(1, 6):
            for c in range(2, 6):
                digest.update(emit_edge_list(star_construction(k, p, c)).encode())
                count += 1
    for k in range(1, 4):
        for p in range(1, 6):
            for c in range(3, 6):
                newest = tuple((0, i, tuple(range(c, c + k))) for i in range(1, p))
                # the pinned sequence lists the star graph twice
                for t in (TreeTemplate.star(p, k),
                          TreeTemplate.star(p, k),
                          TreeTemplate(p, newest),
                          TreeTemplate.path(p, k, c)):
                    digest.update(emit_edge_list(tree_of_cliques(k, c, t)).encode())
                    count += 1
    assert count == 260
    assert digest.hexdigest() == \
        "78cf79286560211e247b7d22096ea843ec3836a07170ff98c8ab4fa029999a25"
    # paths and stars cannot tell the labeling order apart: parts take fresh
    # labels breadth first, siblings in ascending part number
    g = tree_of_cliques(1, 3, TreeTemplate(4, ((0, 1, (0,)), (0, 2, (3,)), (1, 3, (3,)))))
    assert g.is_clique((0, 4, 5, 6)) and g.is_clique((3, 7, 8, 9))
    assert g.is_clique((6, 10, 11, 12))


def test_tree_of_cliques_shapes():
    g = tree_of_cliques(1, 3, TreeTemplate.path(2, 1, 3))
    assert g.n == 7 and g.edge_count == 12
    assert matches_gluing_profile(g, 1, 3)

    g = tree_of_cliques(2, 3, TreeTemplate.path(5, 2, 3))
    assert g.n == 17 and g.edge_count == 46
    assert matches_gluing_profile(g, 2, 3)

    g = tree_of_cliques(2, 3, TreeTemplate.star(5, 2))
    assert g.n == 17 and g.edge_count == 46
    assert matches_gluing_profile(g, 2, 3)


def test_tree_and_star_templates_give_distinct_graphs():
    a = tree_of_cliques(2, 3, TreeTemplate.path(5, 2, 3))
    b = tree_of_cliques(2, 3, TreeTemplate.star(5, 2))
    assert canonical_form(a) != canonical_form(b)
    # hanging every part off the root's hub slots reproduces the star
    hub = star_construction(2, 5, 3)
    assert canonical_form(hub) == canonical_form(b)


def test_branched_template():
    template = TreeTemplate(4, ((0, 1, (0, 1)), (0, 2, (3, 4)), (1, 3, (2, 4))))
    g = tree_of_cliques(2, 3, template)
    assert g.n == 14 and g.edge_count == hub_edge_bound(2, 4, 3)
    assert matches_gluing_profile(g, 2, 3)
    assert verify_ft(g, FTParams(2, 4, 3)).holds


def test_constructed_families_verify():
    for k in range(3):
        for p in range(1, 6):
            for c in (3, 4):
                params = FTParams(k, p, c)
                assert verify_ft(star_construction(k, p, c), params).holds
                if k >= 1:
                    g = tree_of_cliques(k, c, TreeTemplate.path(p, k, c))
                    assert verify_ft(g, params).holds


def test_gluing_profile_rejections():
    assert not matches_gluing_profile(cycle_graph(7), 1, 3)
    assert not matches_gluing_profile(complete_graph(7), 1, 3)
    assert not matches_gluing_profile(complete_graph(6), 1, 3)  # wrong order


def test_contract_merges_one_clique_away():
    g = star_construction(1, 3, 3)
    h = contract_neighborhood(g, FTParams(1, 3, 3), 4)
    assert h.n == 7
    assert verify_ft(h, FTParams(1, 2, 3)).holds
    assert canonical_form(h) == canonical_form(star_construction(1, 2, 3))


def test_contract_validation():
    with pytest.raises(ValueError):
        # p = 1 leaves nothing to keep
        contract_neighborhood(complete_graph(4), FTParams(1, 1, 3), 0)
    with pytest.raises(ValueError):
        # order is not critical
        contract_neighborhood(complete_graph(8), FTParams(1, 2, 3), 0)
    g = star_construction(1, 2, 3)
    with pytest.raises(ValueError):
        # the hub has degree 6, not c + k - 1
        contract_neighborhood(g, FTParams(1, 2, 3), 0)
    # a K4 and a C4 sharing vertex 3, with chord (4, 6): vertex 6 has degree
    # c + k - 1 = 3, but 3 and 5 in N(6) are not adjacent
    h = Graph(7, complete_graph(4).edges() + [(3, 4), (4, 5), (5, 6), (6, 3), (4, 6)])
    with pytest.raises(ValueError, match="not a clique"):
        contract_neighborhood(h, FTParams(1, 2, 3), 6)


def test_contract_warns_outside_k_one():
    g = star_construction(2, 2, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = contract_neighborhood(g, FTParams(2, 2, 3), 2)
        assert any("re-verify" in str(w.message) for w in caught)
    assert h.n == 5
    # for this family the contraction still verifies
    assert verify_ft(h, FTParams(2, 1, 3)).holds


def test_odd_cycles():
    assert odd_cycle(1) == cycle_graph(3)
    assert odd_cycle(3) == cycle_graph(7)
    for p in range(1, 7):
        assert verify_ft(odd_cycle(p), FTParams(1, p, 2)).holds
    with pytest.raises(ValueError):
        odd_cycle(0)


def test_harary_graphs():
    assert harary(2, 5) == cycle_graph(5)
    g = harary(4, 7)
    assert g.edge_count == 14
    assert vertex_connectivity(g) == 4
    assert min(g.degrees()) == 4

    # odd connectivity targets, both parities of n
    for (m, n) in [(3, 6), (3, 7), (5, 8), (5, 9)]:
        h = harary(m, n)
        assert h.edge_count == (m * n + 1) // 2
        assert vertex_connectivity(h) == m
        if n <= 8:
            assert edge_connectivity_bruteforce(h) == m
    with pytest.raises(ValueError):
        harary(1, 5)
    with pytest.raises(ValueError):
        harary(5, 5)


def test_c2_even_construction():
    g = c2_even_k_construction(4, 1)
    assert g == complete_graph(6)
    assert g.edge_count == 15
    assert verify_ft(g, FTParams(4, 1, 2)).holds

    h = c2_even_k_construction(6, 2)  # 2p + k = 10 <= 2k - 2 = 10
    assert h.n == 10
    assert h.edge_count == (10 * 7 + 1) // 2
    assert verify_ft(h, FTParams(6, 2, 2)).holds
    assert h.edge_count < hub_edge_bound(6, 2, 2)


def test_c2_regime_guards():
    with pytest.raises(ValueError):
        c2_even_k_construction(3, 1)  # odd k
    with pytest.raises(ValueError):
        c2_even_k_construction(4, 2)  # 2p + k = 8 > 2k - 2 = 6
    with pytest.raises(ValueError):
        c2_even_k_construction(2, 1)  # 2p + k = 4 > 2k - 2 = 2
    with pytest.raises(ValueError, match="p must be >= 1"):
        c2_even_k_construction(2, 0)
