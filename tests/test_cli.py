import json
from pathlib import Path

import pytest

from graphbench import load_records
from graphbench.cli import main


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


def test_missing_dataset_is_reported(tmp_path, capsys):
    code = run_cli("run", "--dataset", tmp_path / "missing.jsonl", "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_backend_is_reported(dataset, tmp_path, capsys):
    code = run_cli("run", "--dataset", dataset, "--backend", "oracle",
                   "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err
