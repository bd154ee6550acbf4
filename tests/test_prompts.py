import hashlib
from dataclasses import replace

import pytest

from conftest import GOLDEN, pseudocode_assets
from graphbench import (
    ALL_BUCKETS,
    AnswerKind,
    Graph,
    PseudocodeStyle,
    SMALL,
    Strategy,
    Task,
    build_instances,
    pseudocode_for,
    render_prompt,
    standard_strategies,
)
from graphbench import prompts
from graphbench.oracles import Answer
from graphbench.prompts import (
    BAG_SENTENCE,
    DEFAULT_EXEMPLAR_SEED,
    StrategyKind,
    ZERO_COT_SENTENCE,
    build_exemplars,
    encode_edge_list,
    format_answer,
    parse_strategy,
)
from graphbench.tasks import ALL_TASKS, TASK_SPECS


def first_instance(task, seed=0):
    return build_instances(task, SMALL, master_seed=seed, graph_count=1)[0]


GOLDEN_CASES = [(task, "0-shot", Strategy.zero_shot()) for task in ALL_TASKS] + [
    (Task.CYCLE_CHECK, "1-shot", Strategy.k_shot(1)),
    (Task.CYCLE_CHECK, "bag", Strategy.bag()),
    (Task.CYCLE_CHECK, "0-cot", Strategy.zero_cot()),
    (Task.CYCLE_CHECK, "pseudo-plain", Strategy.pseudo(PseudocodeStyle.PLAIN)),
    (Task.CYCLE_CHECK, "pseudo-python", Strategy.pseudo(PseudocodeStyle.PYTHON)),
    (Task.CYCLE_CHECK, "pseudo-multi", Strategy.pseudo(PseudocodeStyle.MULTI)),
    (Task.CYCLE_CHECK, "pseudo+1-shot", Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 1)),
]


@pytest.mark.parametrize(
    "task,token,strategy",
    GOLDEN_CASES,
    ids=[f"{t.value}-{tok}" for t, tok, _ in GOLDEN_CASES],
)
def test_rendered_prompts_match_golden_files(task, token, strategy):
    expected = (GOLDEN / "prompts" / f"{task.value}.{token}.txt").read_text(encoding="utf-8")
    assert render_prompt(first_instance(task), strategy).text == expected


def test_rendering_is_deterministic():
    inst = first_instance(Task.MST)
    for strategy in standard_strategies():
        assert render_prompt(inst, strategy).text == render_prompt(inst, strategy).text


# --- sentinel sentences -----------------------------------------------------------


def test_bag_sentence_exact_in_every_task():
    for task in ALL_TASKS:
        text = render_prompt(first_instance(task), Strategy.bag()).text
        assert "Let's construct a graph with the nodes and edges first" in text


def test_zero_cot_sentence_exact_in_every_task():
    for task in ALL_TASKS:
        text = render_prompt(first_instance(task), Strategy.zero_cot()).text
        assert "Let's think step by step" in text


def test_sentinels_absent_elsewhere():
    for strategy in (Strategy.zero_shot(), Strategy.k_shot(1),
                     Strategy.pseudo(PseudocodeStyle.PLAIN)):
        text = render_prompt(first_instance(Task.NODE_COUNT), strategy).text
        assert BAG_SENTENCE not in text
        assert ZERO_COT_SENTENCE not in text


# --- pseudo-code assets -----------------------------------------------------------


def test_thirty_assets_exist_and_hash_match():
    assets = pseudocode_assets()
    assert len(assets) == 30
    pinned = {}
    for line in (GOLDEN / "pseudocode.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ")
        pinned[name] = digest
    assert len(pinned) == 30
    for (task, style), code in assets.items():
        assert code.strip(), f"{task}.{style} is empty"
        name = f"{task.value}.{style.value}.txt"
        assert hashlib.sha256(code.encode("utf-8")).hexdigest() == pinned[name], name


def test_assets_are_recursion_free():
    for (task, style), code in pseudocode_assets().items():
        lowered = code.lower()
        assert "recurs" not in lowered, f"{task}.{style} mentions recursion"


def test_python_style_is_a_function():
    for task in ALL_TASKS:
        assert pseudocode_for(task, PseudocodeStyle.PYTHON).startswith("def ")


def test_multi_style_has_multiple_routines():
    for task in ALL_TASKS:
        code = pseudocode_for(task, PseudocodeStyle.MULTI)
        assert code.count("Function ") >= 2, task


def test_missing_asset_raises():
    with pytest.raises((FileNotFoundError, KeyError, ValueError)):
        pseudocode_for("not-a-task", PseudocodeStyle.PLAIN)


def test_pseudo_block_included_verbatim():
    for style in PseudocodeStyle:
        text = render_prompt(first_instance(Task.MST), Strategy.pseudo(style)).text
        assert "You can follow this pseudo-code to solve the problem:" in text
        assert pseudocode_for(Task.MST, style).rstrip("\n") in text


# --- exemplars --------------------------------------------------------------------


def test_k_shot_has_k_examples():
    inst = first_instance(Task.CYCLE_CHECK)
    for k in range(1, 6):
        text = render_prompt(inst, Strategy.k_shot(k)).text
        assert text.count("Example:") == k
        answer_lines = [ln for ln in text.splitlines() if ln.startswith("Answer: ")]
        assert len(answer_lines) == k  # one per exemplar, none in the question block


def test_exemplars_have_correct_answers():
    from graphbench import gold_answer
    from graphbench.evaluate import extract_answer

    for task in (Task.EDGE_COUNT, Task.CYCLE_CHECK, Task.NEIGHBORS):
        for question, answer in build_exemplars(task, SMALL, 3):
            parsed = extract_answer(task, f"Answer: {answer}")
            # Rebuild the exemplar graph from its encoded question text is
            # overkill; instead check the answer parses as the right kind and
            # is self-consistent for count tasks.
            assert parsed.kind is gold_answer(task, first_instance(task).graph,
                                              first_instance(task).query).kind


def test_exemplar_graphs_disjoint_from_eval_graph():
    inst = first_instance(Task.EDGE_COUNT)
    text = render_prompt(inst, Strategy.k_shot(3)).text
    encoding = encode_edge_list(inst.graph, 0)
    assert text.count(encoding) == 1  # the graph under test appears exactly once


def test_pseudo_k_shot_differs_from_pseudo_only_by_examples():
    inst = first_instance(Task.EDGE_COUNT)
    pseudo = render_prompt(inst, Strategy.pseudo(PseudocodeStyle.PLAIN)).text
    pseudo_k = render_prompt(inst, Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 1)).text
    without_examples = "\n\n".join(
        block for block in pseudo_k.split("\n\n") if not block.startswith("Example:")
    )
    assert without_examples == pseudo


def test_exemplar_seed_changes_examples_only():
    inst = first_instance(Task.EDGE_COUNT)
    a = render_prompt(inst, Strategy.k_shot(1), exemplar_seed=1).text
    b = render_prompt(inst, Strategy.k_shot(1), exemplar_seed=2).text
    assert a != b
    assert a.split("Example:")[0] == b.split("Example:")[0]
    assert a.split("\n\n")[-1] == b.split("\n\n")[-1]


def test_build_exemplars_rejects_bad_k():
    with pytest.raises(ValueError):
        build_exemplars(Task.EDGE_COUNT, SMALL, 0)


# --- per-cell memoization of exemplar and pseudo-code sections ---------------------


def reference_prompt(inst, strategy, exemplar_seed, label_base):
    """render_prompt rebuilt from direct build_exemplars / pseudocode_for calls."""
    base = TASK_SPECS[inst.task].label_base if label_base is None else label_base
    sections = [TASK_SPECS[inst.task].description]
    if strategy.uses_pseudocode:
        code = pseudocode_for(inst.task, strategy.style).rstrip("\n")
        sections.append(f"You can follow this pseudo-code to solve the problem:\n{code}")
    if strategy.uses_exemplars:
        for question, answer in build_exemplars(inst.task, inst.bucket, strategy.k, exemplar_seed, base):
            sections.append(f"Example:\n{question}\nAnswer: {answer}")
    sections.append(
        f"{encode_edge_list(inst.graph, base)}\n"
        f"{prompts.question_for(inst.task, inst.query, base)}\n"
        f"{prompts.answer_format_line(inst.task)}"
    )
    return "\n\n".join(sections)


def test_render_prompt_matches_unmemoized_reference():
    # Interleaving every key field in one process makes a memo key that drops
    # or conflates a field serve a stale section to a later prompt.
    strategies = [Strategy.k_shot(1), Strategy.k_shot(3)] + [
        strategy
        for style in (PseudocodeStyle.PLAIN, PseudocodeStyle.PYTHON)
        for strategy in (Strategy.pseudo(style), Strategy.pseudo_k_shot(style, 1),
                         Strategy.pseudo_k_shot(style, 3))
    ]
    for task in (Task.EDGE_COUNT, Task.NEIGHBORS, Task.TOPOLOGICAL_SORT):
        for bucket in ALL_BUCKETS:
            inst = build_instances(task, bucket, master_seed=0, graph_count=1)[0]
            for strategy in strategies:
                for exemplar_seed in (1, 2):
                    for label_base in (None, 0, 1):
                        got = render_prompt(inst, strategy, exemplar_seed, label_base)
                        want = reference_prompt(inst, strategy, exemplar_seed, label_base)
                        assert got.text == want, (task, bucket, strategy, exemplar_seed, label_base)


def test_mutating_build_exemplars_result_leaves_prompts_unchanged():
    inst = first_instance(Task.EDGE_COUNT)
    strategy = Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 2)
    before = render_prompt(inst, strategy).text
    args = (Task.EDGE_COUNT, SMALL, 2, DEFAULT_EXEMPLAR_SEED, 0)
    exemplars = build_exemplars(*args)
    pristine = list(exemplars)
    exemplars[0] = ("tampered question", "tampered answer")
    exemplars.append(("extra question", "extra answer"))
    assert build_exemplars(*args) == pristine
    assert build_exemplars(*args) is not build_exemplars(*args)
    assert render_prompt(inst, strategy).text == before


def test_cell_sections_are_built_once_per_process(monkeypatch):
    calls = {"build_exemplars": 0, "pseudocode_for": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Patching the module globals is what a tracer does; the memo must still
    # route each miss through them.
    for name in calls:
        monkeypatch.setattr(prompts, name, counting(name, getattr(prompts, name)))
    prompts._head.cache_clear()
    prompts._pseudocode_section.cache_clear()
    cell = build_instances(Task.NEIGHBORS, SMALL, master_seed=3, graph_count=4)
    strategy = Strategy.pseudo_k_shot(PseudocodeStyle.MULTI, 2)
    texts = [render_prompt(inst, strategy).text for inst in cell]
    assert len(cell) == 20 and len(set(texts)) > 1
    assert calls == {"build_exemplars": 1, "pseudocode_for": 1}


def test_edge_list_memo_matches_encode_edge_list():
    # One memo per label base, each keyed by identity: equal graphs held as
    # distinct objects, a directed and an undirected graph over one edge set,
    # and one graph in two label bases must each get their own text.
    edges = [(0, 1), (1, 2), (0, 2)]
    graphs = [Graph.from_edges(3, edges), Graph.from_edges(4, edges, directed=True),
              Graph.from_edges(3, edges), Graph.from_edges(3, edges, directed=True)]
    assert graphs[0] == graphs[2] and graphs[0] is not graphs[2]
    inst = first_instance(Task.EDGE_COUNT)
    for memo in prompts._EDGE_LISTS:
        memo.last = (None, None)
    for _ in range(2):
        for label_base in (0, 1, 0):
            for g in graphs:
                want = encode_edge_list(g, label_base)
                assert prompts._EDGE_LISTS[label_base](g) == want
                text = render_prompt(replace(inst, graph=g), Strategy.zero_shot(), label_base=label_base).text
                assert f"\n\n{want}\n" in text, (g, label_base)
    # One entry per base: only the last graph is held.
    assert [memo.last for memo in prompts._EDGE_LISTS] == [
        (graphs[-1], encode_edge_list(graphs[-1], base)) for base in (0, 1)]
    assert all(memo.last[0] is graphs[-1] for memo in prompts._EDGE_LISTS)


@pytest.mark.parametrize("label_base", [2, -1, True, 1.0])
def test_render_prompt_rejects_bad_label_base_when_called(label_base):
    # The tail is built only when read, so the check must not wait for it. A
    # bool is rejected too, or True would render "numbered True..".
    inst = first_instance(Task.NODE_DEGREE)
    for strategy in (Strategy.zero_shot(), Strategy.k_shot(2)):
        with pytest.raises(ValueError, match="label_base must be 0 or 1"):
            render_prompt(inst, strategy, label_base=label_base)
    with pytest.raises(ValueError, match="label_base must be 0 or 1"):
        encode_edge_list(inst.graph, label_base)


# --- encoding and label bases ------------------------------------------------------


def test_encode_edge_list_zero_based(triangle):
    assert encode_edge_list(triangle, 0) == (
        "The graph has 3 nodes, numbered 0..2. Edges: (0, 1), (0, 2), (1, 2)"
    )


def test_encode_edge_list_one_based(triangle):
    assert encode_edge_list(triangle, 1) == (
        "The graph has 3 nodes, numbered 1..3. Edges: (1, 2), (1, 3), (2, 3)"
    )


def test_encode_edge_list_empty(no_edges):
    assert encode_edge_list(no_edges, 0).endswith("Edges: (none)")


def test_encode_edge_list_directed(diamond_dag):
    text = encode_edge_list(diamond_dag, 0)
    assert "Directed edges (from, to):" in text


def test_encode_rejects_other_bases(triangle):
    with pytest.raises(ValueError):
        encode_edge_list(triangle, 2)


def test_encode_edge_list_pair_table_matches_formatting_each_pair():
    # The shared pair table must give the bytes that formatting each pair
    # gave, at both bases and in both directions, and hold each pair once.
    graphs = {inst.graph for bucket in ALL_BUCKETS
              for task in (Task.CYCLE_CHECK, Task.TOPOLOGICAL_SORT)
              for inst in build_instances(task, bucket, master_seed=5, graph_count=3)}
    for g in graphs:
        for base in (0, 1):
            pairs = ", ".join(f"({u + base}, {v + base})" for u, v in g.edges)
            assert encode_edge_list(g, base).endswith(": " + (pairs or "(none)"))
    n_max = max(bucket.n_max for bucket in ALL_BUCKETS)
    for base, table in enumerate(prompts._PAIR_TEXT):
        assert table.base == base and 0 < len(table) <= n_max * n_max
        assert all(text == f"({u + base}, {v + base})" for (u, v), text in table.items())


def test_topological_prompts_are_one_based():
    inst = first_instance(Task.TOPOLOGICAL_SORT)
    bundle = render_prompt(inst, Strategy.zero_shot())
    assert bundle.label_base == 1
    assert f"numbered 1..{inst.graph.n}" in bundle.text
    assert "(0," not in bundle.text and ", 0)" not in bundle.text


def test_other_tasks_are_zero_based():
    bundle = render_prompt(first_instance(Task.NODE_COUNT), Strategy.zero_shot())
    assert bundle.label_base == 0
    assert "numbered 0.." in bundle.text


def test_label_base_override():
    inst = first_instance(Task.NODE_DEGREE)
    bundle = render_prompt(inst, Strategy.zero_shot(), label_base=1)
    assert bundle.label_base == 1
    assert f"numbered 1..{inst.graph.n}" in bundle.text


# Every task's question at both label bases, one fixed query per arity. The
# golden files and the pinned digests render each task at its default base
# only, so this is the one pin on a question shifted to the other base.
QUESTION_TEXT = [
    (Task.NODE_COUNT, (), 0, "Question: How many nodes are in the graph?"),
    (Task.NODE_COUNT, (), 1, "Question: How many nodes are in the graph?"),
    (Task.EDGE_COUNT, (), 0, "Question: How many edges are in the graph?"),
    (Task.EDGE_COUNT, (), 1, "Question: How many edges are in the graph?"),
    (Task.NODE_DEGREE, (3,), 0, "Question: What is the degree of node 3?"),
    (Task.NODE_DEGREE, (3,), 1, "Question: What is the degree of node 4?"),
    (Task.NEIGHBORS, (3,), 0, "Question: Which nodes are adjacent to node 3?"),
    (Task.NEIGHBORS, (3,), 1, "Question: Which nodes are adjacent to node 4?"),
    (Task.CONNECTED_COMPONENTS, (), 0, "Question: How many connected components are in the graph?"),
    (Task.CONNECTED_COMPONENTS, (), 1, "Question: How many connected components are in the graph?"),
    (Task.CYCLE_CHECK, (), 0, "Question: Does the graph contain a cycle?"),
    (Task.CYCLE_CHECK, (), 1, "Question: Does the graph contain a cycle?"),
    (Task.MST, (), 0, "Question: Which edges form a minimum spanning tree of the graph?"),
    (Task.MST, (), 1, "Question: Which edges form a minimum spanning tree of the graph?"),
    (Task.SHORTEST_PATH, (2, 5), 0,
     "Question: What is the length of the shortest path from node 2 to node 5?"),
    (Task.SHORTEST_PATH, (2, 5), 1,
     "Question: What is the length of the shortest path from node 3 to node 6?"),
    (Task.BIPARTITE_CHECK, (), 0, "Question: Is the graph bipartite?"),
    (Task.BIPARTITE_CHECK, (), 1, "Question: Is the graph bipartite?"),
    (Task.TOPOLOGICAL_SORT, (), 0, "Question: What is a valid topological ordering of the nodes?"),
    (Task.TOPOLOGICAL_SORT, (), 1, "Question: What is a valid topological ordering of the nodes?"),
]


@pytest.mark.parametrize(
    "task,query,base,expected",
    QUESTION_TEXT,
    ids=[f"{task.value}-base{base}" for task, _, base, _ in QUESTION_TEXT],
)
def test_question_text_at_both_label_bases(task, query, base, expected):
    assert prompts.question_for(task, query, base) == expected


def test_format_answer_shifts_labels():
    assert format_answer(Answer.of(AnswerKind.NODE_SEQ, [0, 2, 1]), 1) == "[1, 3, 2]"
    assert format_answer(Answer.of(AnswerKind.NODE_SET, [2, 0]), 0) == "[0, 2]"
    assert format_answer(Answer.of(AnswerKind.EDGE_SET, [(0, 1)]), 1) == "[(1, 2)]"
    assert format_answer(Answer.of(AnswerKind.INT, 7), 1) == "7"  # counts never shift
    assert format_answer(Answer.of(AnswerKind.BOOL, True), 0) == "Yes"


def test_prompt_ends_with_format_line():
    for task in ALL_TASKS:
        text = render_prompt(first_instance(task), Strategy.zero_shot()).text
        assert text.splitlines()[-1].startswith("When you are done")
        assert '"Answer:' in text.splitlines()[-1]


# --- strategy parsing ----------------------------------------------------------------


def test_parse_strategy_aliases():
    assert parse_strategy("0-shot").kind is StrategyKind.ZERO_SHOT
    assert parse_strategy("zero_shot").kind is StrategyKind.ZERO_SHOT
    assert parse_strategy("3-shot").k == 3
    assert parse_strategy("k-shot", shots=4).k == 4
    assert parse_strategy("BaG").kind is StrategyKind.BAG
    assert parse_strategy("0-CoT").kind is StrategyKind.ZERO_COT
    assert parse_strategy("pseudo", style=PseudocodeStyle.MULTI).style is PseudocodeStyle.MULTI
    parsed = parse_strategy("pseudo+2-shot")
    assert parsed.kind is StrategyKind.PSEUDO_K_SHOT and parsed.k == 2


def test_parse_strategy_rejects_unknown():
    with pytest.raises(ValueError):
        parse_strategy("few")


_K, _PY = StrategyKind, PseudocodeStyle.PYTHON


@pytest.mark.parametrize("token, expected", [
    ("", "unknown strategy ''"),
    ("  ", "unknown strategy '  '"),
    ("0-shot", (_K.ZERO_SHOT, 0, None)),
    ("zero_shot", (_K.ZERO_SHOT, 0, None)),
    ("zero-shot", (_K.ZERO_SHOT, 0, None)),
    (" 0-Shot ", (_K.ZERO_SHOT, 0, None)),
    ("K-SHOT", (_K.K_SHOT, 3, None)),
    ("k-shot", (_K.K_SHOT, 3, None)),
    ("k_shot", (_K.K_SHOT, 3, None)),
    ("few-shot", (_K.K_SHOT, 3, None)),
    ("1-shot", (_K.K_SHOT, 1, None)),
    ("5-shot", (_K.K_SHOT, 5, None)),
    ("00-shot", "k_shot needs k >= 1"),
    ("²-shot", "unknown strategy '²-shot'"),
    ("-shot", "unknown strategy '-shot'"),
    ("{k}-shot", "unknown strategy '{k}-shot'"),
    ("pseudo+{k}-shot", "unknown strategy 'pseudo+{k}-shot'"),
    ("pseudo5", "unknown strategy 'pseudo5'"),
    ("bag-shot", "unknown strategy 'bag-shot'"),
    ("bag", (_K.BAG, 0, None)),
    ("BaG", (_K.BAG, 0, None)),
    ("cot", (_K.ZERO_COT, 0, None)),
    ("0-CoT", (_K.ZERO_COT, 0, None)),
    ("zero_cot", (_K.ZERO_COT, 0, None)),
    ("pseudo", (_K.PSEUDO, 0, _PY)),
    ("Pseudo", (_K.PSEUDO, 0, _PY)),
    ("pseudo+k-shot", (_K.PSEUDO_K_SHOT, 3, _PY)),
    ("pseudo_k_shot", (_K.PSEUDO_K_SHOT, 3, _PY)),
    ("pseudo-shot", (_K.PSEUDO_K_SHOT, 3, _PY)),
    ("pseudo+2-shot", (_K.PSEUDO_K_SHOT, 2, _PY)),
    ("Pseudo+1-shot", (_K.PSEUDO_K_SHOT, 1, _PY)),
    ("pseudo+05-shot", (_K.PSEUDO_K_SHOT, 5, _PY)),
    ("pseudo+0-shot", "pseudo_k_shot needs k >= 1"),
    ("pseudo+foo-shot", "unknown strategy 'pseudo+foo-shot'"),
    ("pseudo+²-shot", "unknown strategy 'pseudo+²-shot'"),
    ("pseudo+", "unknown strategy 'pseudo+'"),
    ("few", "unknown strategy 'few'"),
])
def test_parse_strategy_token_table(token, expected):
    """Every token `--strategy` may be given, at shots=3 and a non-default
    style: the (kind, k, style) it parses to, or its exact error."""
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            parse_strategy(token, shots=3, style=_PY)
        assert str(info.value) == expected
    else:
        s = parse_strategy(token, shots=3, style=_PY)
        assert (s.kind, s.k, s.style) == expected


def test_strategy_display_names():
    names = [s.display_name for s in standard_strategies()]
    assert names == ["0-shot", "1-shot", "BaG", "0-CoT", "Pseudo", "Pseudo+1-shot"]


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(StrategyKind.K_SHOT, k=0)
    with pytest.raises(ValueError):
        Strategy(StrategyKind.PSEUDO)
    # A k or a style that a kind would ignore is refused, so that no two equal
    # prompts come from unequal strategies (and are cached twice).
    multi = PseudocodeStyle.MULTI
    for kind in (StrategyKind.ZERO_SHOT, StrategyKind.BAG, StrategyKind.ZERO_COT):
        with pytest.raises(ValueError, match=f"^{kind.value} takes no k$"):
            Strategy(kind, k=3)
        with pytest.raises(ValueError, match=f"^{kind.value} takes no pseudo-code style$"):
            Strategy(kind, style=multi)
    with pytest.raises(ValueError, match="^bag takes no k$"):
        Strategy(StrategyKind.BAG, k=3, style=multi)
    with pytest.raises(ValueError, match="^pseudo takes no k$"):
        Strategy(StrategyKind.PSEUDO, k=-1, style=multi)
    with pytest.raises(ValueError, match="^k_shot takes no pseudo-code style$"):
        Strategy(StrategyKind.K_SHOT, k=2, style=multi)


def test_display_name_round_trips_through_parse():
    for s in standard_strategies():
        assert parse_strategy(s.display_name).display_name == s.display_name
