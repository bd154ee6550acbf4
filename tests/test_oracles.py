import random
from itertools import permutations

import pytest

from bruteforce import (
    INF,
    acyclic_by_leaf_pruning,
    bf_components,
    bf_degree,
    bf_distances,
    bf_has_cycle,
    bf_is_bipartite,
    bf_is_spanning_forest,
    bf_neighbors,
    bf_valid_topo_orders,
)
from conftest import make_graph
from graphbench import (
    Answer,
    AnswerKind,
    CycleDetectedError,
    GeneratorConfig,
    Graph,
    OracleError,
    SizeBucket,
    Task,
    UnknownNodeError,
    UnreachableError,
    connected_components,
    degree,
    derive_seed,
    gen_er,
    gen_er_dag,
    gold_answer,
    has_cycle,
    is_bipartite,
    neighbors,
    shortest_path_length,
    spanning_forest,
    topo_order,
    validate_spanning_tree,
    validate_topo_order,
)

TINY = SizeBucket("T", 2, 8)


def random_graphs(count, label, bucket=TINY, p_range=(0.0, 1.0)):
    cfg = GeneratorConfig(bucket=bucket, p_range=p_range)
    return [gen_er(cfg, derive_seed(17, label, i)) for i in range(count)]


# --- hand-checked cases -------------------------------------------------------------


def test_counts(triangle, two_components, no_edges):
    assert gold_answer(Task.NODE_COUNT, triangle) == Answer.integer(3)
    assert gold_answer(Task.EDGE_COUNT, triangle) == Answer.integer(3)
    assert gold_answer(Task.NODE_COUNT, no_edges) == Answer.integer(4)
    assert gold_answer(Task.EDGE_COUNT, no_edges) == Answer.integer(0)
    assert connected_components(two_components) == 2
    assert connected_components(no_edges) == 4


def test_degree_and_neighbors(path4, no_edges):
    assert degree(path4, 0) == 1
    assert degree(path4, 1) == 2
    assert neighbors(path4, 1) == frozenset({0, 2})
    assert neighbors(no_edges, 2) == frozenset()


def test_cycle_hand_cases(triangle, path4, two_components, k33):
    assert has_cycle(triangle)
    assert not has_cycle(path4)
    assert not has_cycle(two_components)
    assert has_cycle(k33)


def test_bipartite_hand_cases(triangle, path4, k33, no_edges):
    assert not is_bipartite(triangle)
    assert is_bipartite(path4)
    assert is_bipartite(k33)
    assert is_bipartite(no_edges)


def test_shortest_path_hand_cases(path4, triangle):
    assert shortest_path_length(path4, 0, 3) == 3
    assert shortest_path_length(path4, 1, 1) == 0
    assert shortest_path_length(triangle, 0, 2) == 1


def test_shortest_path_unreachable(two_components):
    with pytest.raises(UnreachableError):
        shortest_path_length(two_components, 0, 4)


def test_unknown_node_raises(triangle):
    with pytest.raises(UnknownNodeError):
        degree(triangle, 3)
    with pytest.raises(UnknownNodeError):
        neighbors(triangle, -1)
    with pytest.raises(UnknownNodeError):
        shortest_path_length(triangle, 0, 9)


def test_spanning_forest_hand_cases(triangle, two_components):
    forest = spanning_forest(triangle)
    assert len(forest) == 2
    assert validate_spanning_tree(triangle, forest)
    forest2 = spanning_forest(two_components)
    assert len(forest2) == 3  # n - c = 5 - 2
    assert validate_spanning_tree(two_components, forest2)


def test_validate_spanning_tree_rejections(triangle, two_components):
    # not a subset of the graph's edges
    assert not validate_spanning_tree(make_graph(3, [(0, 1), (1, 2)]), [(0, 2)])
    # contains a cycle
    assert not validate_spanning_tree(triangle, [(0, 1), (1, 2), (0, 2)])
    # too few edges (wrong partition)
    assert not validate_spanning_tree(triangle, [(0, 1)])
    # right count, wrong partition is impossible for forests, but a candidate
    # that merges fewer components than the graph must fail
    assert not validate_spanning_tree(two_components, [(0, 1), (1, 2)])


def test_topo_hand_cases(diamond_dag):
    assert topo_order(diamond_dag) == (0, 1, 2, 3)
    chain = make_graph(3, [(0, 1), (1, 2)], directed=True)
    assert topo_order(chain) == (0, 1, 2)
    assert validate_topo_order(diamond_dag, (0, 2, 1, 3))
    assert not validate_topo_order(diamond_dag, (1, 0, 2, 3))
    assert not validate_topo_order(diamond_dag, (0, 1, 2))  # not a permutation
    assert not validate_topo_order(diamond_dag, (0, 1, 1, 3))


def test_topo_requires_directed(triangle):
    with pytest.raises(OracleError):
        topo_order(triangle)


def test_topo_detects_cycle():
    loop = make_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(CycleDetectedError):
        topo_order(loop)


# --- brute-force twins ----------------------------------------------------------------


def test_components_match_closure():
    for g in random_graphs(300, "components"):
        assert connected_components(g) == bf_components(g)


def test_distances_match_floyd_warshall():
    for g in random_graphs(150, "distances"):
        dist = bf_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][v] is INF:
                    with pytest.raises(UnreachableError):
                        shortest_path_length(g, u, v)
                else:
                    assert shortest_path_length(g, u, v) == dist[u][v]


def test_has_cycle_matches_enumeration():
    for g in random_graphs(120, "cycles", bucket=SizeBucket("T", 2, 7)):
        assert has_cycle(g) == bf_has_cycle(g)


def test_bipartite_matches_odd_cycle_enumeration():
    for g in random_graphs(120, "bipartite", bucket=SizeBucket("T", 2, 7)):
        assert is_bipartite(g) == bf_is_bipartite(g)


def test_degree_neighbors_match_recounts():
    for g in random_graphs(100, "degrees"):
        for u in range(g.n):
            assert degree(g, u) == bf_degree(g, u)
            assert neighbors(g, u) == bf_neighbors(g, u)
            assert degree(g, u) == len(neighbors(g, u))


def test_spanning_forest_is_valid_everywhere():
    for g in random_graphs(300, "forest"):
        forest = spanning_forest(g)
        assert len(forest) == g.n - connected_components(g)
        assert validate_spanning_tree(g, forest)
        assert bf_is_spanning_forest(g, forest)


def test_validate_spanning_tree_exhaustive_small():
    # Every edge subset of sparse small graphs, cross-checked against the
    # leaf-pruning + closure-partition brute force.
    checked_graphs = 0
    for g in random_graphs(120, "forest-exhaustive",
                           bucket=SizeBucket("T", 2, 6), p_range=(0.0, 0.6)):
        if g.edge_count > 10:
            continue
        checked_graphs += 1
        edges = g.edges
        for mask in range(2 ** len(edges)):
            subset = [e for i, e in enumerate(edges) if mask >> i & 1]
            assert validate_spanning_tree(g, subset) == bf_is_spanning_forest(g, subset)
    assert checked_graphs >= 30


def test_leaf_pruning_agrees_with_has_cycle():
    for g in random_graphs(200, "pruning"):
        assert has_cycle(g) == (not acyclic_by_leaf_pruning(g.n, g.edges))


def test_topo_order_is_lexicographically_smallest():
    cfg = GeneratorConfig(bucket=SizeBucket("T", 2, 6))
    for i in range(100):
        g = gen_er_dag(cfg, derive_seed(17, "topo-lex", i))
        valid = bf_valid_topo_orders(g)
        assert topo_order(g) == min(valid)


def test_validate_topo_order_matches_permutation_scan():
    cfg = GeneratorConfig(bucket=SizeBucket("T", 2, 5))
    for i in range(60):
        g = gen_er_dag(cfg, derive_seed(17, "topo-perms", i))
        valid = set(bf_valid_topo_orders(g))
        for perm in permutations(range(g.n)):
            assert validate_topo_order(g, perm) == (perm in valid)


def test_relabeling_invariance():
    # Graph-level answers must not depend on node names; node-level answers
    # must map through the relabeling.
    rng = random.Random(23)
    for g in random_graphs(100, "relabel"):
        mapping = list(range(g.n))
        rng.shuffle(mapping)
        h = Graph.from_edges(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])
        assert connected_components(h) == connected_components(g)
        assert has_cycle(h) == has_cycle(g)
        assert is_bipartite(h) == is_bipartite(g)
        assert h.edge_count == g.edge_count
        for u in range(g.n):
            assert degree(h, mapping[u]) == degree(g, u)
            assert neighbors(h, mapping[u]) == frozenset(mapping[x] for x in neighbors(g, u))


def test_structural_laws_smoke():
    # Full 10,000-graph sweep lives in the acceptance suite.
    for g in random_graphs(500, "laws"):
        m, n, c = g.edge_count, g.n, connected_components(g)
        assert has_cycle(g) == (m > n - c)
        assert sum(degree(g, u) for u in range(n)) == 2 * m


def test_gold_answer_kinds():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert gold_answer(Task.CYCLE_CHECK, g).kind is AnswerKind.BOOL
    assert gold_answer(Task.MST, g).kind is AnswerKind.EDGE_SET
    assert gold_answer(Task.NEIGHBORS, g, (1,)).kind is AnswerKind.NODE_SET
    dag = make_graph(3, [(0, 2)], directed=True)
    assert gold_answer(Task.TOPOLOGICAL_SORT, dag).kind is AnswerKind.NODE_SEQ
