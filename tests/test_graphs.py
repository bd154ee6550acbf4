import random

import pytest

from graphbench import (
    ALL_BUCKETS,
    GeneratorConfig,
    Graph,
    MEDIUM,
    SMALL,
    SizeBucket,
    Task,
    derive_seed,
    gen_er,
    gen_er_dag,
    gen_random_bipartite,
    is_bipartite,
    topo_order,
)
from graphbench.graphs import LARGE, _shuffled, _uniform_int, derive_instance_seed, sample_distinct
from graphbench.tasks import ALL_TASKS
from reference_generators import reference_gen_er, reference_gen_random_bipartite

# 99.9th percentile of chi-squared with 6 degrees of freedom (7 size bins).
CHI2_CRIT_DF6 = 22.458


# --- value types ----------------------------------------------------------------


def test_bucket_bounds_pinned():
    assert (SMALL.name, SMALL.n_min, SMALL.n_max) == ("S", 5, 11)
    assert (MEDIUM.name, MEDIUM.n_min, MEDIUM.n_max) == ("M", 11, 21)
    assert (LARGE.name, LARGE.n_min, LARGE.n_max) == ("L", 21, 51)
    assert ALL_BUCKETS == (SMALL, MEDIUM, LARGE)


def test_bucket_validation():
    with pytest.raises(ValueError):
        SizeBucket("X", 3, 2)
    with pytest.raises(ValueError):
        SizeBucket("X", 0, 5)
    SizeBucket("X", 2, 2)  # tiny but legal


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))


def test_graph_rejects_non_canonical_undirected():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 0)}))


def test_graph_rejects_empty():
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_graph_rejects_repeated_pair():
    for directed in (False, True):
        with pytest.raises(ValueError, match="repeated"):
            Graph(3, [(0, 1), (1, 2), (0, 1)], directed=directed)


@pytest.mark.parametrize("edges", [[[0, 1], [1, 2]], [[0, 1], [0, 1]], [(0, 1), [1, 2]]])
def test_graph_rejects_a_pair_that_is_not_a_tuple(edges):
    # A list pair would make the graph unhashable, and a repeated list pair
    # never equals the tuple it is compared with.
    with pytest.raises(TypeError, match=r"edge \[.*\] is not a tuple"):
        Graph(3, edges)


def test_graph_sorts_any_edge_collection():
    pairs = [(1, 3), (0, 2), (0, 1)]
    for edges in (frozenset(pairs), pairs, tuple(pairs)):
        assert Graph(4, edges).edges == ((0, 1), (0, 2), (1, 3))


def test_from_edges_canonicalizes_and_dedups():
    g = Graph.from_edges(4, [(2, 0), (0, 2), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2


def test_from_edges_ignores_input_order():
    used = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
    assert used.edges == ((0, 1), (0, 2), (1, 3))
    fresh = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    assert used == fresh and fresh == used
    assert hash(used) == hash(fresh)
    assert len({used, fresh}) == 1


def test_directed_edges_kept_as_given():
    g = Graph.from_edges(3, [(2, 0)], directed=True)
    assert g.edges == ((2, 0),)


@pytest.mark.parametrize("edge", [(0.9, 2), (0, 2.0), (True, 2), (0, False), ("0", 2), (None, 1)])
def test_from_edges_rejects_endpoints_that_are_not_ints(edge):
    for directed in (False, True):
        with pytest.raises(TypeError, match="not an int"):
            Graph.from_edges(3, [(0, 1), edge], directed=directed)


@pytest.mark.parametrize("endpoint", [True, False, 1.0])
def test_graph_rejects_an_endpoint_that_is_not_an_int(endpoint):
    # True == 1 and hash(1.0) == hash(1): such a graph would pass for the int one.
    message = rf"^edge \(0, {endpoint}\) has an endpoint that is not an int$"
    for directed in (False, True):
        with pytest.raises(TypeError, match=message):
            Graph(3, ((0, endpoint),), directed)
        with pytest.raises(TypeError, match=message):
            Graph.from_edges(3, ((0, endpoint),), directed)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1), (2, 2)], r"self-loop \(2, 2\) not allowed"),
    (3, [(0, 1), (1, 3)], r"edge \(1, 3\) out of range for n=3"),
    (3, [(-1, 2), (0, 1)], r"edge \(-1, 2\) out of range for n=3"),
    (0, [], "node count must be positive, got 0"),
    (0, [(0, 1)], "node count must be positive, got 0"),
    (4, [(3, 3), (2, 9), (1, 1)], r"self-loop \(1, 1\) not allowed"),
])
def test_from_edges_rejects_what_the_constructor_rejects(n, edges, message):
    for directed in (False, True):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(n, edges, directed)
        flipped = [] if directed else [[(v, u) for u, v in edges]]
        for order in (edges, edges[::-1], *flipped):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Graph.from_edges(n, order, directed)


@pytest.mark.parametrize("n, directed, message", [
    (5.0, False, "node count 5.0 is not an int"),
    (True, False, "node count True is not an int"),
    ("5", False, "node count '5' is not an int"),
    (5, 0, "directed 0 is not a bool"),
    (5, "yes", "directed 'yes' is not a bool"),
])
def test_graph_rejects_a_node_count_or_direction_of_the_wrong_type(n, directed, message):
    for edges in ([], [(0, 1)]):
        with pytest.raises(TypeError, match=f"^{message}$"):
            Graph(n, edges, directed)
        with pytest.raises(TypeError, match=f"^{message}$"):
            Graph.from_edges(n, edges, directed)


def test_from_edges_gives_one_graph_for_any_order():
    ascending = [(0, 1), (0, 3), (1, 2), (2, 3)]
    g = Graph.from_edges(4, ascending)
    assert type(g.edges) is tuple and g.edges == tuple(ascending)
    rng = random.Random(3)
    for _ in range(5):
        pairs = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in ascending]
        rng.shuffle(pairs)
        h = Graph.from_edges(4, pairs + pairs[:1])
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
    d = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)], directed=True)
    assert d.edges == ((1, 0), (2, 0), (3, 2))
    assert Graph.from_edges(4, [(0, 1), (0, 1), (1, 2)]).edges == ((0, 1), (1, 2))


# --- seed splitting ---------------------------------------------------------------


def test_derive_seed_deterministic():
    assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)
    assert 0 <= derive_seed(7, "a", 1) < 2**64


def test_derive_seed_sensitive_to_every_part():
    base = derive_seed(7, "a", 1)
    assert derive_seed(8, "a", 1) != base
    assert derive_seed(7, "b", 1) != base
    assert derive_seed(7, "a", 2) != base


def test_derive_seed_accepts_enums():
    assert derive_seed(0, Task.MST) == derive_seed(0, "mst")


def test_instance_seeds_distinct_across_benchmark():
    seeds = {
        derive_instance_seed(0, task, bucket, index)
        for task in ALL_TASKS
        for bucket in ALL_BUCKETS
        for index in range(100)
    }
    assert len(seeds) == len(ALL_TASKS) * len(ALL_BUCKETS) * 100


def test_instance_seed_streams_disjoint():
    evals = {derive_instance_seed(0, Task.MST, SMALL, i) for i in range(100)}
    exemplars = {derive_instance_seed(0, Task.MST, SMALL, i, stream="exemplar") for i in range(100)}
    assert not evals & exemplars


def test_instance_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_instance_seed(0, Task.MST, SMALL, -1)


# --- primitive draws --------------------------------------------------------------


def test_uniform_int_stays_in_bounds_and_hits_endpoints():
    rng = random.Random(0)
    draws = [_uniform_int(rng, 3, 9) for _ in range(5000)]
    assert all(3 <= d <= 9 for d in draws)
    assert 3 in draws and 9 in draws


def test_shuffled_is_permutation():
    rng = random.Random(1)
    out = _shuffled(rng, range(20))
    assert sorted(out) == list(range(20))


def test_sample_distinct():
    rng = random.Random(2)
    picked = sample_distinct(rng, range(10), 4)
    assert len(set(picked)) == 4
    assert all(0 <= x < 10 for x in picked)
    with pytest.raises(ValueError):
        sample_distinct(rng, range(3), 4)


def test_sample_distinct_deterministic():
    a = sample_distinct(random.Random(3), range(50), 5)
    b = sample_distinct(random.Random(3), range(50), 5)
    assert a == b


# --- ER generator ------------------------------------------------------------------


def test_gen_er_deterministic():
    cfg = GeneratorConfig(bucket=SMALL)
    assert gen_er(cfg, 42) == gen_er(cfg, 42)
    assert gen_er(cfg, 42) != gen_er(cfg, 43)


def test_gen_er_node_counts_uniform_over_bucket():
    # 1,000 samples over S: all n inside [5, 11], distribution uniform by a
    # chi-squared test at the 0.1% level.
    cfg = GeneratorConfig(bucket=SMALL)
    counts = {n: 0 for n in range(5, 12)}
    for seed in range(1000):
        g = gen_er(cfg, derive_seed(99, "uniformity", seed))
        assert 5 <= g.n <= 11
        counts[g.n] += 1
    expected = 1000 / 7
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF6, f"chi2={chi2:.2f}, counts={counts}"


def test_gen_er_p_zero_and_one():
    empty = gen_er(GeneratorConfig(bucket=SMALL, p_range=(0.0, 0.0)), 5)
    assert empty.edge_count == 0
    full = gen_er(GeneratorConfig(bucket=SMALL, p_range=(1.0, 1.0)), 5)
    assert full.edge_count == full.n * (full.n - 1) // 2


def test_gen_er_edge_rate_tracks_p():
    # With p pinned at 0.3, the pooled edge rate over many graphs is binomial;
    # check it within 4 standard deviations.
    cfg = GeneratorConfig(bucket=MEDIUM, p_range=(0.3, 0.3))
    edges = candidates = 0
    for seed in range(200):
        g = gen_er(cfg, derive_seed(7, "edge-rate", seed))
        edges += g.edge_count
        candidates += g.n * (g.n - 1) // 2
    mean = 0.3 * candidates
    sigma = (candidates * 0.3 * 0.7) ** 0.5
    assert abs(edges - mean) < 4 * sigma


def test_gen_er_undirected_canonical():
    g = gen_er(GeneratorConfig(bucket=SMALL), 11)
    assert not g.directed
    assert all(u < v for u, v in g.edges)


# --- DAG generator -----------------------------------------------------------------


def test_gen_er_dag_acyclic_500():
    cfg = GeneratorConfig(bucket=SMALL)
    for seed in range(500):
        g = gen_er_dag(cfg, derive_seed(3, "dag", seed))
        assert g.directed
        assert all(u < v for u, v in g.edges), "edges must point low -> high"
        order = topo_order(g)  # raises CycleDetectedError on any cycle
        assert len(order) == g.n


def test_gen_er_dag_matches_er_skeleton():
    cfg = GeneratorConfig(bucket=SMALL)
    seed = derive_seed(4, "skeleton")
    assert gen_er_dag(cfg, seed).edges == gen_er(cfg, seed).edges


# --- canonical edge form ------------------------------------------------------------


def _generated_graphs(gen):
    for bucket in ALL_BUCKETS:
        cfg = GeneratorConfig(bucket=bucket)
        for seed in range(200):
            yield gen(cfg, derive_seed(5, "canonical", bucket.name, seed))


@pytest.mark.parametrize("gen", [gen_er, gen_er_dag, gen_random_bipartite])
def test_generated_edges_are_a_strictly_increasing_tuple(gen):
    """The generators skip the constructor's checks; this runs them on
    every graph they build here."""
    for g in _generated_graphs(gen):
        assert type(g.edges) is tuple
        assert all(a < b for a, b in zip(g.edges, g.edges[1:]))
        assert all(type(pair) is tuple and len(pair) == 2
                   and type(pair[0]) is int and type(pair[1]) is int for pair in g.edges)
        assert Graph(g.n, g.edges, g.directed) == g


@pytest.mark.parametrize("gen", [gen_er, gen_er_dag, gen_random_bipartite])
def test_from_edges_rebuilds_a_generated_graph_from_shuffled_flipped_pairs(gen):
    rng = random.Random(9)
    for g in _generated_graphs(gen):
        pairs = [(u, v) if g.directed else (v, u) for u, v in g.edges]
        rng.shuffle(pairs)
        h = Graph.from_edges(g.n, pairs, g.directed)
        assert h == g and hash(h) == hash(g)


# --- the generators against nested-loop copies --------------------------------------


@pytest.mark.parametrize("p_range", [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.3, 0.3)])
@pytest.mark.parametrize("bucket", [*ALL_BUCKETS, SizeBucket("T", 1, 3)], ids=str)
@pytest.mark.parametrize("gen, reference", [(gen_er, reference_gen_er),
                                            (gen_random_bipartite, reference_gen_random_bipartite)],
                         ids=["er", "bipartite"])
def test_generators_equal_their_nested_loop_copies(gen, reference, bucket, p_range):
    """Same draws in the same order, so the same pairs, for every seed."""
    if gen is gen_random_bipartite and bucket.n_min < 2:
        bucket = SizeBucket("T", 2, 3)
    cfg = GeneratorConfig(bucket=bucket, p_range=p_range)
    for i in range(60):
        seed = derive_seed(8, "reference", bucket.name, p_range, i)
        g = gen(cfg, seed)
        assert g == reference(cfg, seed)
        assert type(g.edges) is tuple and not g.directed


# --- bipartite generator -------------------------------------------------------------


def test_gen_random_bipartite_500():
    cfg = GeneratorConfig(bucket=SMALL)
    for seed in range(500):
        g = gen_random_bipartite(cfg, derive_seed(5, "bip", seed))
        assert SMALL.n_min <= g.n <= SMALL.n_max
        assert is_bipartite(g)


def test_gen_random_bipartite_complete_cross_edges():
    # At p = 1 every cross-pair edge exists: |E| = a * (n - a) for some split
    # with both parts nonempty.
    cfg = GeneratorConfig(bucket=SMALL, p_range=(1.0, 1.0))
    for seed in range(50):
        g = gen_random_bipartite(cfg, derive_seed(6, "bip-full", seed))
        sizes = [a * (g.n - a) for a in range(1, g.n)]
        assert g.edge_count in sizes
        assert g.edge_count >= g.n - 1


def test_gen_random_bipartite_needs_two_nodes():
    with pytest.raises(ValueError):
        gen_random_bipartite(GeneratorConfig(bucket=SizeBucket("T", 1, 1)), 0)


def test_generator_config_validates_p_range():
    with pytest.raises(ValueError):
        GeneratorConfig(bucket=SMALL, p_range=(0.9, 0.1))
    with pytest.raises(ValueError):
        GeneratorConfig(bucket=SMALL, p_range=(-0.1, 0.5))
