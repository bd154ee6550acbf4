"""Acceptance suite: one test per primary guarantee, each ending in a PASS line.

Run with -s to see the measured numbers; the pytest verdict per test is the
pass/fail line for the corresponding guarantee.
"""

import hashlib
import json
import time
from itertools import permutations

import pytest

from bruteforce import (
    INF,
    acyclic_by_leaf_pruning,
    bf_components,
    bf_degree,
    bf_distances,
    bf_is_bipartite,
    bf_has_cycle,
    bf_neighbors,
    bf_partition,
    bf_valid_topo_orders,
)
from conftest import FIXTURES, GOLDEN, pseudocode_assets
from graphbench import (
    ALL_BUCKETS,
    ExtractionFailed,
    GeneratorConfig,
    MEDIUM,
    PseudocodeStyle,
    SMALL,
    SizeBucket,
    Strategy,
    TASK_SPECS,
    Task,
    build_instances,
    connected_components,
    degree,
    derive_seed,
    gen_er,
    gen_er_dag,
    has_cycle,
    is_bipartite,
    load_dataset,
    neighbors,
    render_prompt,
    shortest_path_length,
    spanning_forest,
    topo_order,
    validate_spanning_tree,
    validate_topo_order,
)
from graphbench.cli import main as cli_main
from graphbench.evaluate import extract_answer, load_records
from graphbench.graphs import LARGE
from graphbench.oracles import UnreachableError
from graphbench.prompts import BAG_SENTENCE, ZERO_COT_SENTENCE
from graphbench.tasks import ALL_TASKS


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


# --- 1. dataset fidelity ---------------------------------------------------------------


def test_primary_1_dataset_fidelity(seed0_dataset, tmp_path):
    """Fixed seed yields exactly 6,600 instances, correctly partitioned and
    bounded; regeneration is byte-identical; generation takes < 1 minute."""
    again = tmp_path / "again.jsonl"
    start = time.monotonic()
    assert run_cli("generate", "--seed", 0, "--out", again) == 0
    elapsed = time.monotonic() - start
    assert again.read_bytes() == seed0_dataset.read_bytes(), "regeneration not byte-identical"
    assert elapsed < 60, f"generation took {elapsed:.1f}s"

    instances = load_dataset(seed0_dataset, verify=False)
    assert len(instances) == 6600

    graph_level = sum(1 for i in instances if TASK_SPECS[i.task].arity == 0)
    node_level = sum(1 for i in instances if TASK_SPECS[i.task].arity == 1)
    pair_level = sum(1 for i in instances if i.task is Task.SHORTEST_PATH)
    assert graph_level == 2100
    assert node_level == 3000
    assert pair_level == 1500

    bounds = {"S": (5, 11), "M": (11, 21), "L": (21, 51)}
    for inst in instances:
        lo, hi = bounds[inst.bucket.name]
        assert lo <= inst.graph.n <= hi, inst.id
    print(f"\nPASS: dataset fidelity: 6600 = 2100+3000+1500, bounds ok, "
          f"byte-identical, {elapsed:.1f}s < 60s")


# --- 2. oracle correctness --------------------------------------------------------------


def test_primary_2_oracle_correctness_1000_graphs():
    """All oracles agree with independent brute force on 1,000 graphs with
    n <= 8, in under 5 minutes."""
    start = time.monotonic()
    cfg = GeneratorConfig(bucket=SizeBucket("T", 2, 8))
    graphs = [gen_er(cfg, derive_seed(1301, "acceptance-oracles", i)) for i in range(1000)]

    exhaustive_graphs = 0
    subset_checks = 0
    for g in graphs:
        assert g.n == len(range(g.n))
        assert connected_components(g) == bf_components(g)
        assert has_cycle(g) == bf_has_cycle(g)
        assert is_bipartite(g) == bf_is_bipartite(g)

        for u in range(g.n):
            assert degree(g, u) == bf_degree(g, u)
            assert neighbors(g, u) == bf_neighbors(g, u)

        dist = bf_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][v] is INF:
                    with pytest.raises(UnreachableError):
                        shortest_path_length(g, u, v)
                else:
                    assert shortest_path_length(g, u, v) == dist[u][v]

        # Spanning forest: the oracle's forest must satisfy the independent
        # definition on every graph; the validator is additionally compared
        # against brute force over every edge subset on the sparse graphs.
        graph_partition = bf_partition(g.n, g.edges)
        forest = spanning_forest(g)
        assert forest <= set(g.edges)
        assert acyclic_by_leaf_pruning(g.n, forest)
        assert bf_partition(g.n, forest) == graph_partition
        if g.edge_count <= 10 and exhaustive_graphs < 60:
            exhaustive_graphs += 1
            edges = g.edges
            for mask in range(2 ** len(edges)):
                subset = [e for i, e in enumerate(edges) if mask >> i & 1]
                expected = (acyclic_by_leaf_pruning(g.n, subset)
                            and bf_partition(g.n, subset) == graph_partition)
                assert validate_spanning_tree(g, subset) == expected
                subset_checks += 1
    assert exhaustive_graphs >= 30

    # Topological sorting against full permutation scans at n <= 6.
    dag_cfg = GeneratorConfig(bucket=SizeBucket("T", 2, 6))
    for i in range(300):
        g = gen_er_dag(dag_cfg, derive_seed(1301, "acceptance-topo", i))
        valid = bf_valid_topo_orders(g)
        assert topo_order(g) == min(valid)
        valid_set = set(valid)
        for perm in permutations(range(g.n)):
            assert validate_topo_order(g, perm) == (perm in valid_set)

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"oracle cross-check took {elapsed:.0f}s"
    print(f"\nPASS: oracle correctness: 1000 graphs + 300 DAGs, "
          f"{subset_checks} exhaustive subset checks, 100% agreement, "
          f"{elapsed:.0f}s < 300s")


# --- 3. structural laws -----------------------------------------------------------------


def test_primary_3_structural_laws_10000_graphs():
    """has_cycle <=> m > n - c and sum(deg) = 2m over 10,000 random graphs."""
    plan = [(SMALL, 7000), (MEDIUM, 2500), (LARGE, 500)]
    checked = 0
    for bucket, count in plan:
        cfg = GeneratorConfig(bucket=bucket)
        for i in range(count):
            g = gen_er(cfg, derive_seed(1303, "laws", bucket.name, i))
            m, n = g.edge_count, g.n
            c = connected_components(g)
            assert has_cycle(g) == (m > n - c), f"forest law violated at {bucket.name}/{i}"
            assert sum(degree(g, u) for u in range(n)) == 2 * m, \
                f"handshake violated at {bucket.name}/{i}"
            checked += 1
    assert checked == 10000
    print("\nPASS: structural laws: 10000 graphs, 0 violations of "
          "has_cycle <=> m > n-c and sum(deg) = 2m")


# --- 4. prompt fidelity -----------------------------------------------------------------


def test_primary_4_prompt_fidelity():
    """Golden files pin rendered prompts, sentinel sentences appear verbatim,
    and all 30 pseudo-code assets hash-match their pinned digests."""
    token_map = {
        "0-shot": Strategy.zero_shot(),
        "1-shot": Strategy.k_shot(1),
        "bag": Strategy.bag(),
        "0-cot": Strategy.zero_cot(),
        "pseudo-plain": Strategy.pseudo(PseudocodeStyle.PLAIN),
        "pseudo-python": Strategy.pseudo(PseudocodeStyle.PYTHON),
        "pseudo-multi": Strategy.pseudo(PseudocodeStyle.MULTI),
        "pseudo+1-shot": Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 1),
    }
    golden_files = sorted((GOLDEN / "prompts").glob("*.txt"))
    assert len(golden_files) >= 16
    for path in golden_files:
        task_name, token = path.name[: -len(".txt")].split(".", 1)
        inst = build_instances(Task(task_name), SMALL, master_seed=0, graph_count=1)[0]
        rendered = render_prompt(inst, token_map[token]).text
        assert rendered == path.read_text(encoding="utf-8"), path.name

    for task in ALL_TASKS:
        inst = build_instances(task, SMALL, master_seed=0, graph_count=1)[0]
        assert BAG_SENTENCE == "Let's construct a graph with the nodes and edges first"
        assert ZERO_COT_SENTENCE == "Let's think step by step"
        assert BAG_SENTENCE in render_prompt(inst, Strategy.bag()).text
        assert ZERO_COT_SENTENCE in render_prompt(inst, Strategy.zero_cot()).text

    assets = pseudocode_assets()
    assert len(assets) == 30
    pinned = dict(
        reversed(line.split("  "))
        for line in (GOLDEN / "pseudocode.sha256").read_text(encoding="utf-8").splitlines()
    )
    for (task, style), code in assets.items():
        name = f"{task.value}.{style.value}.txt"
        assert hashlib.sha256(code.encode("utf-8")).hexdigest() == pinned[name], name
    print(f"\nPASS: prompt fidelity: {len(golden_files)} golden prompts, "
          "sentinels verbatim in all 10 tasks, 30/30 assets hash-match")


# --- 5. harness integrity ---------------------------------------------------------------


STRATEGY_FLAGS = [
    ("0-shot", []),
    ("k-shot", ["--shots", "1"]),
    ("bag", []),
    ("0-cot", []),
    ("pseudo", ["--style", "plain"]),
    ("pseudo+1-shot", ["--style", "plain"]),
]


def test_primary_5_harness_integrity(tmp_path):
    """MockOracle scores 100% and MockAdversary 0% in every (task, bucket,
    strategy) cell; two replay passes give byte-identical reports."""
    data = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", data, "--graphs-per-cell", 4) == 0

    def full_sweep(backend):
        all_records = []
        for i, (strategy, extra) in enumerate(STRATEGY_FLAGS):
            out = tmp_path / backend.replace(":", "_") / str(i)
            code = run_cli("run", "--dataset", data, "--backend", backend,
                           "--strategy", strategy, *extra, "--out", out)
            assert code == 0
            all_records.extend(load_records(out / "records.jsonl"))
        return all_records

    from graphbench import aggregate_report

    oracle_report = aggregate_report(full_sweep("mock:oracle"))
    cells = 0
    for task in ALL_TASKS:
        for bucket in ("S", "M", "L"):
            for strategy in ("0-shot", "1-shot", "BaG", "0-CoT", "Pseudo", "Pseudo+1-shot"):
                acc = oracle_report.accuracy(task, bucket, strategy)
                assert acc == 1.0, f"oracle not perfect in {task}/{bucket}/{strategy}: {acc}"
                cells += 1
    assert cells == 180

    adversary_report = aggregate_report(full_sweep("mock:adversary"))
    for task in ALL_TASKS:
        for bucket in ("S", "M", "L"):
            for strategy in ("0-shot", "1-shot", "BaG", "0-CoT", "Pseudo", "Pseudo+1-shot"):
                acc = adversary_report.accuracy(task, bucket, strategy)
                assert acc == 0.0, f"adversary scored in {task}/{bucket}/{strategy}: {acc}"

    # replay: record one strategy with a cache, then score it twice offline
    cache = tmp_path / "cache.jsonl"
    assert run_cli("run", "--dataset", data, "--backend", "mock:oracle",
                   "--cache", cache, "--out", tmp_path / "recorded") == 0
    reports = []
    for name in ("replay1", "replay2"):
        out = tmp_path / name
        assert run_cli("run", "--dataset", data, "--backend", "replay",
                       "--cache", cache, "--out", out) == 0
        report_path = tmp_path / f"{name}.md"
        assert run_cli("report", "--records", out / "records.jsonl",
                       "--out", report_path) == 0
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1], "replay reports differ"
    assert (tmp_path / "replay1" / "records.jsonl").read_bytes() == \
        (tmp_path / "replay2" / "records.jsonl").read_bytes()
    print("\nPASS: harness integrity: oracle 100% and adversary 0% in all 180 "
          "cells, replay reports byte-identical")


# --- 6. extraction ----------------------------------------------------------------------


def test_primary_6_extraction_corpus():
    """The hand-labeled corpus (written before the parser) parses with 100%
    agreement, and fuzz text never crashes the extractor."""
    rows = [json.loads(line) for line in
            (FIXTURES / "extraction_corpus.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()]
    assert len(rows) >= 50

    def expected_value(kind, value):
        if kind == "node_set":
            return frozenset(value)
        if kind == "node_seq":
            return tuple(value)
        if kind == "edge_set":
            return frozenset((u, v) for u, v in value)
        return value

    agree = 0
    for row in rows:
        task = Task(row["task"])
        if row["expect"] is None:
            with pytest.raises(ExtractionFailed):
                extract_answer(task, row["text"])
            agree += 1
        else:
            answer = extract_answer(task, row["text"])
            assert answer.kind.value == row["expect"]["kind"]
            assert answer.value == expected_value(row["expect"]["kind"], row["expect"]["value"])
            agree += 1
    assert agree == len(rows)

    import random as _random

    fuzz_rng = _random.Random(99)
    alphabet = "ab:()[]{}0123456789,.-> \nAnswerYesNo"
    for i in range(500):
        noise = "".join(fuzz_rng.choice(alphabet) for _ in range(fuzz_rng.randrange(0, 200)))
        for task in ALL_TASKS:
            try:
                extract_answer(task, noise)
            except ExtractionFailed:
                pass  # the only allowed failure mode
    print(f"\nPASS: extraction: {agree}/{len(rows)} corpus rows agree, "
          "500 fuzz strings x 10 tasks without a crash")


# --- 7. ablation plumbing ---------------------------------------------------------------


def test_primary_7_ablation_plumbing(tmp_path):
    """--shots 1..5 and --style over all three styles are runnable end to end
    under mock backends and yield per-configuration accuracy rows."""
    data = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", data,
                   "--tasks", "edge_count", "cycle_check", "topological_sort",
                   "--buckets", "S", "M", "--graphs-per-cell", 2) == 0

    # shots sweep: one run per k, merged into a single table
    record_files = []
    for k in range(1, 6):
        out = tmp_path / f"shots-{k}"
        assert run_cli("run", "--dataset", data, "--strategy", "k-shot",
                       "--shots", k, "--backend", "mock:oracle", "--out", out) == 0
        prompts = tmp_path / f"prompts-{k}.jsonl"
        assert run_cli("render", "--dataset", data, "--strategy", "k-shot",
                       "--shots", k, "--out", prompts) == 0
        texts = [json.loads(l)["text"] for l in prompts.read_text().splitlines()]
        assert all(t.count("Example:") == k for t in texts)
        record_files.append(out / "records.jsonl")
    shots_report = tmp_path / "shots.md"
    assert run_cli("report", "--records", *record_files, "--out", shots_report) == 0
    table = shots_report.read_text(encoding="utf-8")
    for k in range(1, 6):
        assert f"| {k}-shot |" in table, f"missing row for k={k}"

    # style sweep: Pseudo and Pseudo+1-shot under each bundled style
    for style in ("python", "plain", "multi"):
        for strategy in ("pseudo", "pseudo+1-shot"):
            out = tmp_path / f"style-{style}-{strategy}"
            assert run_cli("run", "--dataset", data, "--strategy", strategy,
                           "--style", style, "--backend", "mock:oracle",
                           "--out", out) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["accuracy"] == 1.0
    print("\nPASS: ablation plumbing: shots 1..5 rows present, "
          "3 styles x 2 pseudo strategies runnable at accuracy 1.0")
