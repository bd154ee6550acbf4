import json
from pathlib import Path

import pytest

import graphbench.dataset as ds
from graphbench import MEDIUM, SMALL, Answer, Graph, Task, load_records
from graphbench.cli import main
from graphbench.oracles import spanning_forest

from conftest import FIXTURES


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    code = run_cli(
        "generate", "--seed", 0, "--out", path,
        "--tasks", "edge_count", "cycle_check", "topological_sort",
        "--buckets", "S", "--graphs-per-cell", 4,
    )
    assert code == 0
    return path


# --- generate ---------------------------------------------------------------------


def test_generate_prints_counts_and_total(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert run_cli("generate", "--seed", 1, "--out", out,
                   "--tasks", "node_degree", "--buckets", "S", "M",
                   "--graphs-per-cell", 2) == 0
    printed = capsys.readouterr().out
    assert "node_degree S: 10" in printed
    assert "node_degree M: 10" in printed
    assert "total: 20" in printed
    assert "content digest: " in printed
    assert out.exists()
    assert out.with_suffix(".manifest.json").exists()


def test_generate_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        run_cli("generate", "--seed", 5, "--out", out,
                "--tasks", "mst", "--buckets", "S", "--graphs-per-cell", 3)
    assert a.read_bytes() == b.read_bytes()


def test_generate_different_seeds_differ(tmp_path, capsys):
    digests = []
    for seed in (1, 2):
        run_cli("generate", "--seed", seed, "--out", tmp_path / f"{seed}.jsonl",
                "--tasks", "mst", "--buckets", "S", "--graphs-per-cell", 3)
        printed = capsys.readouterr().out
        digests.append(next(l for l in printed.splitlines() if l.startswith("content digest")))
    assert digests[0] != digests[1]


@pytest.mark.parametrize("tasks, buckets, once", [
    (["mst", "mst"], ["S", "s"], ["mst"]),
    (["cycle-check,cycle_check", "mst", "cycle_check"], ["S,S"], ["cycle_check", "mst"]),
])
def test_generate_repeated_selection_names_count_once(tmp_path, capsys, tasks, buckets, once):
    out = tmp_path / "d.jsonl"
    results = []
    for t, b in ((tasks, buckets), (once, ["S"])):
        assert run_cli("generate", "--tasks", *t, "--buckets", *b,
                       "--graphs-per-cell", 2, "--out", out) == 0
        results.append((capsys.readouterr().out, out.read_bytes()))
    assert results[0] == results[1]
    assert f"total: {2 * len(once)}" in results[0][0]


def test_generate_writes_what_assemble_and_save_write(tmp_path, capsys):
    """``generate`` writes the bytes of ``assemble_dataset`` + ``save_dataset`` +
    ``save_manifest`` over the same selection."""
    out = tmp_path / "cli" / "d.jsonl"
    assert run_cli("generate", "--seed", 7, "--out", out, "--tasks", "neighbors", "mst",
                   "--buckets", "M", "S", "--graphs-per-cell", 2) == 0
    manifest, instances = ds.assemble_dataset(7, tasks=[Task.NEIGHBORS, Task.MST],
                                              buckets=[MEDIUM, SMALL], graphs_per_cell=2)
    ref = tmp_path / "ref" / "d.jsonl"
    ds.save_dataset(instances, ref)
    ds.save_manifest(manifest, ref.with_suffix(".manifest.json"))
    assert out.read_bytes() == ref.read_bytes()
    assert (out.with_suffix(".manifest.json").read_bytes()
            == ref.with_suffix(".manifest.json").read_bytes())
    assert f"content digest: {manifest.content_digest}" in capsys.readouterr().out


def test_generate_serializes_each_instance_once(tmp_path, monkeypatch, capsys):
    serialized = []
    line = ds._instance_line
    monkeypatch.setattr(ds, "_instance_line", lambda inst: serialized.append(inst.id) or line(inst))
    assert run_cli("generate", "--seed", 0, "--out", tmp_path / "d.jsonl",
                   "--tasks", "shortest_path", "cycle_check", "--buckets", "S",
                   "--graphs-per-cell", 2) == 0
    assert "total: 12" in capsys.readouterr().out
    assert len(serialized) == len(set(serialized)) == 12


def test_generate_rejects_unknown_task(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("generate", "--out", tmp_path / "x.jsonl", "--tasks", "sorting-hat")


# --- render ----------------------------------------------------------------------


def test_render_writes_prompts(dataset, tmp_path, capsys):
    out = tmp_path / "prompts.jsonl"
    assert run_cli("render", "--dataset", dataset, "--strategy", "bag",
                   "--tasks", "cycle_check", "--out", out) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert "Let's construct a graph with the nodes and edges first" in row["text"]
        assert row["strategy"] == "BaG"


def test_render_limit_caps_per_cell(dataset, tmp_path):
    out = tmp_path / "prompts.jsonl"
    run_cli("render", "--dataset", dataset, "--limit", 2, "--out", out)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 6  # 3 tasks x 2 instances


def test_render_shots_flag(dataset, tmp_path):
    out = tmp_path / "prompts.jsonl"
    run_cli("render", "--dataset", dataset, "--strategy", "k-shot", "--shots", 3,
            "--tasks", "edge_count", "--out", out)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(row["text"].count("Example:") == 3 for row in rows)
    assert all(row["strategy"] == "3-shot" for row in rows)


# --- run -------------------------------------------------------------------------


def test_run_mock_oracle_all_correct(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
                   "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total"] == 12
    assert summary["correct"] == 12
    assert summary["accuracy"] == 1.0
    records = load_records(out / "records.jsonl")
    assert all(r.correct for r in records)
    transcripts = (out / "transcripts.jsonl").read_text().splitlines()
    assert len(transcripts) == 12


def test_run_mock_adversary_all_wrong(dataset, tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:adversary", "--out", out)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["correct"] == 0
    assert summary["failures"]["wrong_answer"] == summary["total"]
    assert summary["failures"]["extraction_failed"] == 0


def test_run_resume_via_cache(dataset, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--cache", cache, "--out", tmp_path / "r1")
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--cache", cache, "--out", tmp_path / "r2")
    s1 = json.loads((tmp_path / "r1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "r2" / "summary.json").read_text())
    assert s1["cache_hits"] == 0
    assert s2["cache_hits"] == s2["total"]
    assert (tmp_path / "r1" / "records.jsonl").read_bytes() == \
        (tmp_path / "r2" / "records.jsonl").read_bytes()


@pytest.mark.parametrize("fail", [False, True])
def test_run_closes_the_cache(dataset, tmp_path, monkeypatch, fail):
    import graphbench.cli as cli

    caches = []

    class TrackedCache(cli.ResponseCache):
        def __init__(self, path):
            super().__init__(path)
            self.closed = False
            caches.append(self)

        def close(self):
            super().close()
            self.closed = True

    def failing_run_prompts(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli, "ResponseCache", TrackedCache)
    if fail:
        monkeypatch.setattr(cli, "run_prompts", failing_run_prompts)
        with pytest.raises(RuntimeError):
            run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
                    "--cache", tmp_path / "cache.jsonl", "--out", tmp_path / "r")
    else:
        assert run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
                       "--cache", tmp_path / "cache.jsonl", "--out", tmp_path / "r") == 0
    assert len(caches) == 1 and caches[0].closed


def test_run_replay_reproduces_records(dataset, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--cache", cache, "--out", tmp_path / "orig")
    for name in ("rp1", "rp2"):
        assert run_cli("run", "--dataset", dataset, "--backend", "replay",
                       "--cache", cache, "--out", tmp_path / name) == 0
    orig = (tmp_path / "orig" / "records.jsonl").read_bytes()
    assert (tmp_path / "rp1" / "records.jsonl").read_bytes() == orig
    assert (tmp_path / "rp2" / "records.jsonl").read_bytes() == orig


@pytest.mark.parametrize("tail", ["whole", "torn", "unterminated"])
def test_run_replay_leaves_the_cache_bytes_unchanged(dataset, tmp_path, tail):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--cache", cache, "--out", tmp_path / "orig")
    recorded = {"whole": cache.read_bytes(),
                "torn": cache.read_bytes() + b'{"key": "k", "te',
                "unterminated": cache.read_bytes()[:-1]}[tail]
    cache.write_bytes(recorded)
    assert run_cli("run", "--dataset", dataset, "--backend", "replay",
                   "--cache", cache, "--out", tmp_path / "r") == 0
    assert cache.read_bytes() == recorded
    assert (tmp_path / "r" / "records.jsonl").read_bytes() == \
        (tmp_path / "orig" / "records.jsonl").read_bytes()


@pytest.mark.parametrize("backend", ["mock:oracle", "replay"])
def test_run_names_the_corrupt_cache_line(dataset, tmp_path, capsys, backend):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--cache", cache, "--out", tmp_path / "orig")
    lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = "{not json\n"
    cache.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("run", "--dataset", dataset, "--backend", backend,
                   "--cache", cache, "--out", tmp_path / "r") == 1
    assert capsys.readouterr().err == f"error: {cache}:4: not a response cache record\n"


def test_run_replay_missing_cache_fails(dataset, tmp_path, capsys):
    code = run_cli("run", "--dataset", dataset, "--backend", "replay",
                   "--cache", tmp_path / "nope.jsonl", "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_replay_partial_cache_reports_backend_errors(dataset, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--tasks", "edge_count",
            "--backend", "mock:oracle", "--cache", cache, "--out", tmp_path / "orig")
    code = run_cli("run", "--dataset", dataset, "--backend", "replay",
                   "--cache", cache, "--out", tmp_path / "r")
    assert code == 2  # cycle_check and topological_sort responses missing
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["failures"]["backend_error"] == 8
    assert summary["correct"] == 4


def test_run_parallel_same_results(dataset, tmp_path):
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--out", tmp_path / "seq")
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle",
            "--parallel", 4, "--out", tmp_path / "par")
    assert (tmp_path / "seq" / "records.jsonl").read_bytes() == \
        (tmp_path / "par" / "records.jsonl").read_bytes()


def test_run_label_base_override(dataset, tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", dataset, "--tasks", "edge_count",
                   "--backend", "mock:oracle", "--label-base", 1, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accuracy"] == 1.0


def test_run_rejects_repeated_instances(dataset, tmp_path, capsys):
    doubled = tmp_path / "doubled.jsonl"
    header, *lines = dataset.read_text().splitlines(keepends=True)
    doubled.write_text(header + "".join(lines * 2))
    assert run_cli("run", "--dataset", doubled, "--out", tmp_path / "r") == 1
    assert "duplicate record" in capsys.readouterr().err


# --- score -----------------------------------------------------------------------


def test_score_matches_run_records(dataset, tmp_path):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    rescored = tmp_path / "rescored.jsonl"
    assert run_cli("score", "--dataset", dataset,
                   "--transcripts", run_dir / "transcripts.jsonl",
                   "--out", rescored) == 0
    assert load_records(rescored) == load_records(run_dir / "records.jsonl")


@pytest.fixture
def labelled_dataset(tmp_path):
    """Tasks that answer with node labels, so the label base decides the score."""
    path = tmp_path / "labelled.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", path,
                   "--tasks", "neighbors", "topological_sort",
                   "--buckets", "S", "--graphs-per-cell", 2) == 0
    return path


def rescore(dataset, run_dir, out):
    """``score`` the run's transcripts into ``out``; return the bytes of both record files."""
    assert run_cli("score", "--dataset", dataset,
                   "--transcripts", run_dir / "transcripts.jsonl", "--out", out) == 0
    return out.read_bytes(), (run_dir / "records.jsonl").read_bytes()


@pytest.mark.parametrize("run_args", [
    ["--backend", "mock:oracle"],
    ["--backend", "mock:adversary"],
    ["--strategy", "pseudo+k-shot", "--shots", 2],
    ["--label-base", 1],
])
def test_score_reproduces_run_records(labelled_dataset, tmp_path, run_args):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", labelled_dataset, *run_args, "--out", run_dir)
    rescored, recorded = rescore(labelled_dataset, run_dir, tmp_path / "rescored.jsonl")
    assert rescored == recorded


def test_score_reproduces_backend_errors(dataset, tmp_path):
    cache = tmp_path / "cache.jsonl"
    run_cli("run", "--dataset", dataset, "--tasks", "edge_count",
            "--backend", "mock:oracle", "--cache", cache, "--out", tmp_path / "orig")
    run_dir = tmp_path / "replay"
    assert run_cli("run", "--dataset", dataset, "--backend", "replay",
                   "--cache", cache, "--out", run_dir) == 2
    rows = [json.loads(l) for l in (run_dir / "transcripts.jsonl").read_text().splitlines()]
    common = {"instance_id", "strategy", "label_base", "model", "backend"}
    assert [set(row) for row in rows] == [common | {"prompt_hash", "text"}] * 4 + \
        [common | {"error"}] * 8
    rescored, recorded = rescore(dataset, run_dir, tmp_path / "rescored.jsonl")
    assert rescored == recorded


def test_score_rejects_repeated_rows(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text((run_dir / "transcripts.jsonl").read_text() * 2)
    assert run_cli("score", "--dataset", dataset, "--transcripts", doubled,
                   "--out", tmp_path / "r.jsonl") == 1
    assert "duplicate record" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    {"instance_id": "edge_count-S-000-0", "strategy": "0-shot"},
    {"instance_id": "edge_count-S-000-0", "strategy": "0-shot", "text": "1", "label_base": 2},
    {"key": "0" * 64, "text": "Answer: 1"},
    {"instance_id": "edge_count-S-000-0", "strategy": 0, "text": "Answer: 1"},
    {"instance_id": ["edge_count-S-000-0"], "strategy": "0-shot", "error": "timeout"},
    ["edge_count-S-000-0", "0-shot", "Answer: 1"],
])
def test_score_rejects_malformed_rows(dataset, tmp_path, capsys, row):
    bad = tmp_path / "transcripts.jsonl"
    bad.write_text("\n" + json.dumps(row) + "\n")
    assert run_cli("score", "--dataset", dataset, "--transcripts", bad,
                   "--out", tmp_path / "r.jsonl") == 1
    assert f"error: {bad}:2: not a transcripts row" in capsys.readouterr().err


def test_score_names_the_line_that_is_not_json(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    lines = (run_dir / "transcripts.jsonl").read_text().splitlines(keepends=True)
    bad = tmp_path / "transcripts.jsonl"
    bad.write_text("".join(lines[:5]) + '{"instance_id": "x",\n' + "".join(lines[5:]))
    assert run_cli("score", "--dataset", dataset, "--transcripts", bad,
                   "--out", tmp_path / "r.jsonl") == 1
    assert capsys.readouterr().err == f"error: {bad}:6: not a transcripts row\n"


def test_score_has_no_label_base_flag(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("score", "--dataset", dataset, "--transcripts", tmp_path / "t.jsonl",
                "--out", tmp_path / "r.jsonl", "--label-base", 1)
    assert exc.value.code == 2  # argparse: unrecognized arguments


def test_score_reads_transcripts_without_label_base(labelled_dataset, tmp_path):
    """Rows with no ``label_base`` key score under each task's default base.

    The fixture holds an oracle 0-shot run at ``--label-base 1`` and an
    adversary BaG run, written before rows carried ``label_base``; its
    records file is what ``score`` wrote for it then.
    """
    out = tmp_path / "rescored.jsonl"
    assert run_cli("score", "--dataset", labelled_dataset,
                   "--transcripts", FIXTURES / "legacy_transcripts.jsonl",
                   "--out", out) == 0
    assert out.read_bytes() == (FIXTURES / "legacy_transcripts.records.jsonl").read_bytes()


def test_score_unknown_instance_fails(dataset, tmp_path):
    bad = tmp_path / "transcripts.jsonl"
    bad.write_text(json.dumps({"instance_id": "ghost-1", "strategy": "0-shot",
                               "text": "Answer: 1"}) + "\n")
    with pytest.raises(SystemExit):
        run_cli("score", "--dataset", dataset, "--transcripts", bad,
                "--out", tmp_path / "r.jsonl")


# --- report ----------------------------------------------------------------------


def test_report_markdown_and_csv(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    capsys.readouterr()
    assert run_cli("report", "--records", run_dir / "records.jsonl") == 0
    table = capsys.readouterr().out
    assert table.startswith("| strategy | bucket |")
    assert "**100**" in table

    out = tmp_path / "report.csv"
    assert run_cli("report", "--records", run_dir / "records.jsonl",
                   "--format", "csv", "--out", out) == 0
    assert out.read_text().startswith("strategy,bucket,task,")


def test_report_merges_multiple_record_files(dataset, tmp_path, capsys):
    for strategy, name in (("0-shot", "a"), ("bag", "b")):
        run_cli("run", "--dataset", dataset, "--strategy", strategy,
                "--backend", "mock:oracle", "--out", tmp_path / name)
    capsys.readouterr()
    assert run_cli("report", "--records", tmp_path / "a" / "records.jsonl",
                   tmp_path / "b" / "records.jsonl") == 0
    table = capsys.readouterr().out
    assert "| 0-shot | S |" in table
    assert "| BaG | S |" in table


def test_report_duplicate_records_fail(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    code = run_cli("report", "--records", run_dir / "records.jsonl",
                   run_dir / "records.jsonl")
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("line", ['{"a": 1}', '{"instance_id": "edge_count-S-000-0",', "[1]"])
def test_report_names_the_line_that_is_not_a_record(dataset, tmp_path, capsys, line):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    capsys.readouterr()
    first = (run_dir / "records.jsonl").read_text().splitlines()[0]
    bad = tmp_path / "records.jsonl"
    bad.write_text(f"{first}\n\n{line}\n")
    assert run_cli("report", "--records", bad) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:3: not a records row\n"


# --- config files ------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "# generation settings\n"
        "seed = 9\n"
        "tasks = mst cycle_check\n"
        "buckets = S\n"
        "graphs-per-cell = 2\n"
    )
    out = tmp_path / "d.jsonl"
    assert run_cli("generate", "--config", config, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "mst S: 2" in printed
    assert "cycle_check S: 2" in printed
    assert "total: 4" in printed


def test_config_flags_win_over_config(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text("graphs-per-cell = 2\ntasks = mst\nbuckets = S\n")
    assert run_cli("generate", "--config", config, "--out", tmp_path / "d.jsonl",
                   "--graphs-per-cell", 5) == 0
    assert "total: 5" in capsys.readouterr().out


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text("graphs_per_hour = 2\n")
    with pytest.raises(SystemExit):
        run_cli("generate", "--config", config, "--out", tmp_path / "d.jsonl")


def test_config_malformed_line_rejected(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text("just some words\n")
    with pytest.raises(SystemExit):
        run_cli("generate", "--config", config, "--out", tmp_path / "d.jsonl")


@pytest.mark.parametrize("option", ["--config={}", "--conf={}"])
def test_config_option_spellings_are_applied(tmp_path, capsys, option):
    config = tmp_path / "bench.cfg"
    config.write_text("graphs-per-cell = 1\ntasks = mst\nbuckets = S\n")
    assert run_cli("generate", option.format(config), "--out", tmp_path / "d.jsonl") == 0
    assert "total: 1" in capsys.readouterr().out


@pytest.mark.parametrize("lines, flags", [
    ("no-verify = yes\nlimit = 1\nlabel-base = 1\nstrategy = pseudo+k-shot\n",
     ["--no-verify", "--limit", 1, "--label-base", 1, "--strategy", "pseudo+k-shot"]),
    ("no_verify = false\nlimit = 2\n", ["--limit", 2]),
])
def test_config_run_matches_flags(dataset, tmp_path, capsys, monkeypatch, lines, flags):
    import graphbench.cli as cli

    verify_args = []
    load_dataset = cli.ds.load_dataset

    def tracked_load(path, verify=True):
        verify_args.append(verify)
        return load_dataset(path, verify=verify)

    monkeypatch.setattr(cli.ds, "load_dataset", tracked_load)
    config = tmp_path / "run.cfg"
    config.write_text(lines)
    out = tmp_path / "run"
    results = []
    for extra in (["--config", config], flags):
        assert run_cli("run", "--dataset", dataset, *extra, "--out", out) == 0
        results.append((capsys.readouterr().out, (out / "records.jsonl").read_bytes(),
                        (out / "transcripts.jsonl").read_bytes()))
    assert results[0] == results[1]
    assert verify_args[0] == verify_args[1] == ("--no-verify" not in flags)


@pytest.mark.parametrize("lines, flags", [
    ("no-flag-best = true\n", ["--no-flag-best"]),
    ("format = csv\n", ["--format", "csv"]),
    ("no-flag-best = true\nformat = csv\n", ["--no-flag-best", "--format", "csv"]),
])
def test_config_report_matches_flags(dataset, tmp_path, capsys, lines, flags):
    records = tmp_path / "run" / "records.jsonl"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", records.parent)
    config = tmp_path / "report.cfg"
    config.write_text(lines)
    tables = []
    for extra in (["--config", config], flags, []):
        capsys.readouterr()
        assert run_cli("report", "--records", records, *extra) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] != tables[2]


def test_config_empty_list_means_all(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("tasks =\nbuckets = S\ngraphs-per-cell = 1\n")
    out = tmp_path / "d.jsonl"
    results = []
    for extra in (["--config", config],
                  ["--tasks", "all", "--buckets", "S", "--graphs-per-cell", 1]):
        assert run_cli("generate", *extra, "--out", out) == 0
        results.append((capsys.readouterr().out, out.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0].count(" S: ") == 10


# --- error handling -----------------------------------------------------------------


def test_unknown_strategy_is_reported(dataset, tmp_path, capsys):
    code = run_cli("run", "--dataset", dataset, "--strategy", "best-effort",
                   "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_transcripts_as_cache_is_reported(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    transcripts = run_dir / "transcripts.jsonl"
    capsys.readouterr()
    for backend in ("mock:oracle", "replay"):
        assert run_cli("run", "--dataset", dataset, "--backend", backend,
                       "--cache", transcripts, "--out", tmp_path / "r") == 1
        assert capsys.readouterr().err == \
            f"error: {transcripts}:1: not a response cache record\n"


def test_missing_config_is_reported(tmp_path, capsys):
    code = run_cli("generate", "--config", tmp_path / "missing.cfg", "--out", tmp_path / "d.jsonl")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.cfg" in err
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--graphs-per-cell", -2, "--out", "{tmp}/d.jsonl"],
    ["render", "--dataset", "{dataset}", "--limit", -1, "--out", "{tmp}/p.jsonl"],
    ["run", "--dataset", "{dataset}", "--limit", "-1", "--out", "{tmp}/r"],
])
def test_negative_counts_are_rejected(dataset, tmp_path, capsys, argv):
    argv = [str(a).format(tmp=tmp_path, dataset=dataset) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a count of 0 or more" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.manifest.json"]


def test_negative_count_in_config_is_rejected(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text("graphs-per-cell = -2\n")
    with pytest.raises(SystemExit):
        run_cli("generate", "--config", config, "--out", tmp_path / "d.jsonl")
    assert "expected a count of 0 or more" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


def test_missing_dataset_is_reported(tmp_path, capsys):
    code = run_cli("run", "--dataset", tmp_path / "missing.jsonl", "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_rejects_a_gold_of_the_wrong_kind(tmp_path, capsys):
    # A node-count gold stored as a node sequence and a cycle-check gold
    # stored as a spanning forest: neither may load and then score 0/2.
    path = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", path, "--tasks", "node_count",
                   "cycle_check", "--buckets", "S", "--graphs-per-cell", 1) == 0
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["gold"] = {"kind": "node_seq", "value": list(range(rows[0]["graph"]["n"]))}
    forest = spanning_forest(Graph.from_edges(rows[1]["graph"]["n"], rows[1]["graph"]["edges"]))
    rows[1]["gold"] = ds.answer_to_json(Answer.edge_set(forest))
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rows]))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: instance {rows[0]['id']}: stored gold fails verification"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("no_verify", [[], ["--no-verify"]])
def test_run_rejects_a_query_of_the_wrong_arity(tmp_path, capsys, no_verify):
    path = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", path, "--tasks", "node_degree",
                   "--buckets", "S", "--graphs-per-cell", 1) == 0
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["query"] = []
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rows]))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out,
                   *no_verify) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 2: corrupt instance: node_degree query [] has arity 0, expected 1"]
    assert not (out / "summary.json").exists()


def test_run_rejects_a_header_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    path.write_text("[1, 2]\n")
    assert run_cli("run", "--dataset", path, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 1: ")


def test_unknown_backend_is_reported(dataset, tmp_path, capsys):
    code = run_cli("run", "--dataset", dataset, "--backend", "oracle",
                   "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err
