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
    bf_partition,
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
    SMALL,
    SizeBucket,
    TASK_SPECS,
    Task,
    UnknownNodeError,
    UnreachableError,
    build_instances,
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
from graphbench.oracles import _merge, adjacency

TINY = SizeBucket("T", 2, 8)


def random_graphs(count, label, bucket=TINY, p_range=(0.0, 1.0)):
    cfg = GeneratorConfig(bucket=bucket, p_range=p_range)
    return [gen_er(cfg, derive_seed(17, label, i)) for i in range(count)]


# --- hand-checked cases -------------------------------------------------------------


def test_counts(triangle, two_components, no_edges):
    assert gold_answer(Task.NODE_COUNT, triangle) == Answer.of(AnswerKind.INT, 3)
    assert gold_answer(Task.EDGE_COUNT, triangle) == Answer.of(AnswerKind.INT, 3)
    assert gold_answer(Task.NODE_COUNT, no_edges) == Answer.of(AnswerKind.INT, 4)
    assert gold_answer(Task.EDGE_COUNT, no_edges) == Answer.of(AnswerKind.INT, 0)
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
    # Every task's oracle gives its spec's kind, and a value that ``Answer.of``
    # leaves as it is.
    for task, spec in TASK_SPECS.items():
        inst = build_instances(task, SMALL, master_seed=0, graph_count=1)[0]
        gold = gold_answer(task, inst.graph, inst.query)
        assert gold.kind is spec.answer_kind
        normal = Answer.of(spec.answer_kind, gold.value)
        assert normal == gold and type(normal.value) is type(gold.value)


# --- the union-find kernel and the adjacency memo ------------------------------------


def _kernel_partition(n, edges):
    """The components that ``_merge`` leaves in its parent list, as node sets."""
    parent = list(range(n))
    _merge(parent, edges)
    members = {}
    for x in range(n):
        root = x
        while parent[root] != root:
            root = parent[root]
        members.setdefault(root, set()).add(x)
    return frozenset(frozenset(nodes) for nodes in members.values())


def _random_pairs(rng, n, p):
    """Ordered pairs of distinct nodes, each kept with probability p: both
    orientations occur, and some pairs in both."""
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def test_union_find_ignores_direction():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, _random_pairs(rng, n, rng.random() * 0.4), directed=True)
        assert connected_components(g) == bf_components(g)
        assert _kernel_partition(g.n, g.edges) == bf_partition(g.n, g.edges)
        forest = spanning_forest(g)
        assert len(forest) == g.n - bf_components(g)
        assert forest <= set(g.edges)
        assert has_cycle(g) == (len(g.edges) > len(forest))


def _random_tree(rng, n):
    """Each node after the first hangs from an earlier one, at random."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def test_union_find_on_forests():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 12)
        cut = set(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else set()
        g = make_graph(n, [e for e in _random_tree(rng, n) if e[1] not in cut])
        assert connected_components(g) == bf_components(g) == len(cut) + 1
        assert not has_cycle(g) and acyclic_by_leaf_pruning(g.n, g.edges)
        assert spanning_forest(g) == set(g.edges)
        assert validate_spanning_tree(g, g.edges)
        assert _kernel_partition(g.n, g.edges) == bf_partition(g.n, g.edges)


def test_union_find_stops_once_one_tree_remains():
    """A graph that is one tree before its last edges: the kernel joins n - 1
    edges and reads no edge after the one that made the tree."""
    rng = random.Random(33)
    for _ in range(100):
        n = rng.randint(2, 12)
        tree = _random_tree(rng, n)
        rng.shuffle(tree)
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in set(tree) and rng.random() < 0.5]
        edges = iter(tree + extra)
        joined = _merge(list(range(n)), edges)
        assert joined == tree
        assert list(edges) == extra
        g = make_graph(n, tree + extra)
        assert connected_components(g) == bf_components(g) == 1
        assert has_cycle(g) == (not acyclic_by_leaf_pruning(g.n, g.edges)) == bool(extra)
        assert len(spanning_forest(g)) == n - 1
        assert bf_is_spanning_forest(g, spanning_forest(g))


def test_validate_spanning_tree_rejects_bad_candidates_like_brute_force():
    """Candidates that hold a cycle, miss a component or use an edge outside
    the graph, each judged as the brute force judges it."""
    rng = random.Random(34)
    kinds = {"cycle": 0, "missing": 0, "outside": 0}
    for g in random_graphs(300, "bad-forests", p_range=(0.2, 0.8)):
        forest = sorted(spanning_forest(g))
        spare = sorted(set(g.edges) - set(forest))
        absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if (u, v) not in set(g.edges)]
        candidates = []
        if spare:  # a forest edge swapped for a spare one can close a cycle
            swapped = forest[:]
            swapped[rng.randrange(len(swapped))] = rng.choice(spare)
            candidates.append(("cycle", forest + [rng.choice(spare)]))
            candidates.append(("cycle", swapped))
        if forest:
            candidates.append(("missing", forest[1:]))
        if absent:
            candidates.append(("outside", forest + [rng.choice(absent)]))
            candidates.append(("outside", forest[1:] + [rng.choice(absent)]))
        for kind, candidate in candidates:
            kinds[kind] += 1
            assert validate_spanning_tree(g, candidate) == bf_is_spanning_forest(g, candidate)
            if kind != "cycle":
                assert not validate_spanning_tree(g, candidate)
    assert min(kinds.values()) > 100


def test_adjacency_memo_cannot_be_changed_by_a_caller(path4, triangle, monkeypatch):
    monkeypatch.setattr(adjacency, "last", (None, None))
    adj = adjacency(path4)
    assert adjacency.last[0] is path4 and adjacency.last[1] is adj
    assert adj == ((1,), (0, 2), (1, 3), (2,))
    with pytest.raises(TypeError):
        adj[0] = (3,)
    with pytest.raises(AttributeError):
        adj[1].append(3)
    assert adjacency(path4) is adj  # served from the memo, unchanged
    assert degree(path4, 1) == 2 and neighbors(path4, 1) == frozenset({0, 2})
    assert adjacency(triangle) == ((1, 2), (0, 2), (0, 1))
    assert adjacency(path4) == ((1,), (0, 2), (1, 3), (2,))


def test_adjacency_memo_serves_only_its_own_graph(monkeypatch):
    """Equal graphs, and graphs that alternate, each get their own answers."""
    monkeypatch.setattr(adjacency, "last", (None, None))
    graphs = random_graphs(40, "memo")
    for g, h in zip(graphs, graphs[1:]):
        for x in (g, h, g, Graph.from_edges(g.n, g.edges)):
            for u in range(x.n):
                assert degree(x, u) == bf_degree(x, u)
                assert neighbors(x, u) == bf_neighbors(x, u)


def test_directed_degree_and_neighbors_count_both_directions():
    rng = random.Random(35)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, _random_pairs(rng, n, rng.random() * 0.5), directed=True)
        for u in range(n):
            assert degree(g, u) == bf_degree(g, u)
            assert neighbors(g, u) == bf_neighbors(g, u)
            assert adjacency(g)[u] == tuple(v for a, v in g.edges if a == u)
