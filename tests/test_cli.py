import copy
import hashlib
import json
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from array import array
from pathlib import Path

import pytest

import graphbench.cli
import graphbench.dataset as ds
import graphbench.evaluate
from graphbench import (MEDIUM, SMALL, Answer, AnswerKind, Graph, ModelConfig, PromptBundle,
                        Strategy, Task, assemble_dataset, evaluate_response, make_backend,
                        render_prompt, run_prompts)
from graphbench.cli import main
from graphbench.client import MockOracleBackend, cache_key
from graphbench.evaluate import load_records
from graphbench.oracles import spanning_forest

from conftest import FIXTURES, instance_line, subprocess_env


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


def test_generate_writes_the_manifest_only_beside_the_dataset(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    with pytest.raises(SystemExit):  # argparse: unrecognized arguments
        run_cli("generate", "--out", out, "--manifest", tmp_path / "m.json")
    assert "unrecognized arguments: --manifest" in capsys.readouterr().err
    config = tmp_path / "bench.cfg"
    config.write_text(f"manifest = {tmp_path / 'm.json'}\n")
    with pytest.raises(SystemExit, match="^error: unknown config keys: manifest$"):
        run_cli("generate", "--config", config, "--out", out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.cfg"]


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



@pytest.mark.parametrize("at", ["before the write", "during the write"])
def test_interrupted_generate_leaves_no_manifest_of_another_dataset(tmp_path, monkeypatch, at):
    """A seed-0 ``generate`` over a seed-1 one, interrupted after its dataset
    is in place, leaves no manifest, or one naming the new dataset's digest,
    and no temporary file."""
    out = tmp_path / "d.jsonl"
    manifest_path = out.with_suffix(".manifest.json")
    argv = ["generate", "--out", out, "--tasks", "mst", "--buckets", "S", "--graphs-per-cell", 2]
    assert run_cli(*argv, "--seed", 1) == 0
    older = json.loads(manifest_path.read_text())["content_digest"]
    save_manifest = ds.save_manifest

    def interrupted(manifest, path):
        if at == "before the write":
            raise KeyboardInterrupt

        def replace(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(ds.os, "replace", replace)
        save_manifest(manifest, path)

    monkeypatch.setattr(ds, "save_manifest", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv, "--seed", 0)
    monkeypatch.undo()
    lines = out.read_bytes().splitlines(keepends=True)
    digest = hashlib.sha256(b"".join(lines[1:])).hexdigest()
    assert digest != older
    if manifest_path.exists():
        assert json.loads(manifest_path.read_text())["content_digest"] == digest
    assert sorted(p.name for p in tmp_path.iterdir()) in (
        ["d.jsonl"], ["d.jsonl", "d.manifest.json"])


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


class WatchingBackend(MockOracleBackend):
    """The oracle, noting at each call how many rows ``transcripts`` holds and
    whether ``out`` holds a records file or a summary; the call after ``answers``
    raises KeyboardInterrupt, as Ctrl-C in the middle of a request would."""

    def __init__(self, out, answers=None):
        self.out, self.answers, self.seen = out, answers, []

    def complete_text(self, bundle, cfg):
        rows = self.out / "transcripts.jsonl"
        self.seen.append((bundle.instance_id, len(rows.read_bytes().splitlines()),
                          (self.out / "records.jsonl").exists()
                          or (self.out / "summary.json").exists()))
        if self.answers is not None and len(self.seen) > self.answers:
            raise KeyboardInterrupt
        return super().complete_text(bundle, cfg)


def _run_with(monkeypatch, backend, *argv):
    monkeypatch.setattr("graphbench.cli.make_backend", lambda *a, **k: backend)
    return run_cli("run", *argv)


def test_each_row_is_on_disk_before_the_next_prompt_goes_out(dataset, tmp_path, monkeypatch):
    out = tmp_path / "r"
    backend = WatchingBackend(out)
    assert _run_with(monkeypatch, backend, "--dataset", dataset, "--out", out) == 0
    assert [rows for _, rows, _ in backend.seen] == list(range(12))


@pytest.mark.parametrize("k", [0, 5])
def test_an_interrupted_run_leaves_its_first_rows_and_no_older_records(dataset, tmp_path,
                                                                       monkeypatch, k):
    """An interrupt after ``k`` answers leaves exactly those ``k`` rows, in
    dataset order, and ``score`` accepts them. The records and summary of an
    earlier run into the same ``--out`` are gone before the first row."""
    whole, out = tmp_path / "whole", tmp_path / "r"
    assert run_cli("run", "--dataset", dataset, "--out", whole) == 0
    assert run_cli("run", "--dataset", dataset, "--out", out) == 0
    backend = WatchingBackend(out, answers=k)
    with pytest.raises(KeyboardInterrupt):
        _run_with(monkeypatch, backend, "--dataset", dataset, "--out", out)
    assert [older for _, _, older in backend.seen] == [False] * (k + 1)
    assert sorted(p.name for p in out.iterdir()) == ["transcripts.jsonl"]
    rows = (whole / "transcripts.jsonl").read_text().splitlines(keepends=True)
    assert (out / "transcripts.jsonl").read_text() == "".join(rows[:k])
    assert run_cli("score", "--dataset", dataset, "--transcripts", out / "transcripts.jsonl",
                   "--out", out / "records.jsonl") == 0
    records = (whole / "records.jsonl").read_text().splitlines(keepends=True)
    assert (out / "records.jsonl").read_text() == "".join(records[:k])


def test_a_rerun_over_the_cache_resumes_where_an_interrupt_stopped(dataset, tmp_path,
                                                                  monkeypatch):
    cache, out = tmp_path / "cache.jsonl", tmp_path / "r"
    assert run_cli("run", "--dataset", dataset, "--out", tmp_path / "whole") == 0
    with pytest.raises(KeyboardInterrupt):
        _run_with(monkeypatch, WatchingBackend(out, answers=5), "--dataset", dataset,
                  "--cache", cache, "--out", out)
    rerun = WatchingBackend(out)
    assert _run_with(monkeypatch, rerun, "--dataset", dataset, "--cache", cache,
                     "--out", out) == 0
    # The 12 prompts are distinct, so exactly the 5 answered ones are cache hits.
    ids = [inst.id for inst in ds.load_dataset(dataset)]
    assert [instance_id for instance_id, _, _ in rerun.seen] == ids[5:]
    assert json.loads((out / "summary.json").read_text())["cache_hits"] == 5
    for name in ("transcripts.jsonl", "records.jsonl"):
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


class JitteredBackend(MockOracleBackend):
    """The oracle, after a random pause of up to 2 ms, so parallel answers
    finish out of order."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def complete_text(self, bundle, cfg):
        with self.lock:
            pause = self.rng.random() * 0.002
        time.sleep(pause)
        return super().complete_text(bundle, cfg)


class InterruptingBackend(JitteredBackend):
    """The jittered oracle; the request for the instance at position ``k``
    waits until ``k`` rows are on disk, then raises SIGINT in its own worker
    thread, as Ctrl-C during a request would, and outlasts the calling
    thread's wake period."""

    def __init__(self, out, instance_id, k):
        super().__init__(seed=k)
        self.rows, self.instance_id, self.k = out / "transcripts.jsonl", instance_id, k

    def complete_text(self, bundle, cfg):
        if bundle.instance_id == self.instance_id:
            deadline = time.monotonic() + 10
            while len(self.rows.read_bytes().splitlines()) < self.k:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            signal.raise_signal(signal.SIGINT)
            time.sleep(0.25)
        return super().complete_text(bundle, cfg)


@pytest.mark.parametrize("k", [0, 5])
def test_an_interrupted_parallel_run_leaves_its_first_rows(dataset, tmp_path, monkeypatch, k):
    """Ctrl-C in a ``--parallel 4`` run leaves the rows handed out so far, in
    dataset order, every one written by the calling thread, and ``score``
    accepts them."""
    whole, out = tmp_path / "whole", tmp_path / "r"
    assert run_cli("run", "--dataset", dataset, "--out", whole) == 0
    ids = [inst.id for inst in ds.load_dataset(dataset)]
    writers = []

    def row_line(row):
        writers.append(threading.get_ident())
        return graphbench.evaluate.row_line(row)

    monkeypatch.setattr("graphbench.cli.row_line", row_line)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            _run_with(monkeypatch, InterruptingBackend(out, ids[k], k), "--dataset", dataset,
                      "--parallel", 4, "--out", out)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert writers == [threading.get_ident()] * k
    rows = (whole / "transcripts.jsonl").read_text().splitlines(keepends=True)
    assert (out / "transcripts.jsonl").read_text() == "".join(rows[:k])
    assert run_cli("score", "--dataset", dataset, "--transcripts", out / "transcripts.jsonl",
                   "--out", out / "records.jsonl") == 0
    records = (whole / "records.jsonl").read_text().splitlines(keepends=True)
    assert (out / "records.jsonl").read_text() == "".join(records[:k])


def test_run_parallel_same_results(dataset, tmp_path, monkeypatch):
    for parallel in (1, 4):
        assert _run_with(monkeypatch, JitteredBackend(parallel), "--dataset", dataset,
                         "--parallel", parallel, "--out", tmp_path / str(parallel)) == 0
    for name in ("transcripts.jsonl", "records.jsonl"):
        assert (tmp_path / "4" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


@pytest.mark.parametrize("parallel, pooled", [(1, 10), (16, 16)])
def test_run_pools_a_connection_per_worker_for_the_http_backend(dataset, tmp_path, monkeypatch,
                                                               parallel, pooled):
    """The default session keeps a connection per worker, and never fewer than
    ``requests``' default 10, so no worker opens one that is then discarded."""
    pytest.importorskip("requests")
    made = []
    build = graphbench.cli.make_backend
    monkeypatch.setattr("graphbench.cli.make_backend",
                        lambda *a, **k: made.append(build(*a, **k)) or made[-1])
    # With no endpoint, run stops once the backend is built, before any request.
    assert run_cli("run", "--dataset", dataset, "--backend", "http", "--parallel", parallel,
                   "--out", tmp_path / "r") == 1
    for url in ("http://localhost:8000/v1/chat/completions", "https://example.invalid/v1"):
        adapter = made[0].session.get_adapter(url)
        assert adapter.poolmanager.connection_pool_kw["maxsize"] == pooled


def test_run_label_base_override(dataset, tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", dataset, "--tasks", "edge_count",
                   "--backend", "mock:oracle", "--label-base", 1, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accuracy"] == 1.0


def _doubled(dataset, tmp_path):
    """The dataset with its instance lines written twice: 12, then the same 12."""
    doubled = tmp_path / "doubled.jsonl"
    header, *lines = dataset.read_text().splitlines(keepends=True)
    assert len(lines) == 12
    doubled.write_text(header + "".join(lines * 2))
    return doubled


def test_run_rejects_repeated_instances(dataset, tmp_path, capsys):
    doubled = _doubled(dataset, tmp_path)
    assert run_cli("run", "--dataset", doubled, "--out", tmp_path / "r") == 1
    assert capsys.readouterr().err == \
        f"error: {doubled}: line 14: instance id 'edge_count-S-000-0' repeats line 2\n"
    assert not (tmp_path / "r").exists()


def test_run_sends_no_request_for_a_file_with_repeated_instances(dataset, tmp_path,
                                                                 monkeypatch):
    calls = []

    class CountingBackend(MockOracleBackend):
        def complete_text(self, bundle, cfg):
            calls.append(bundle.instance_id)
            return super().complete_text(bundle, cfg)

    monkeypatch.setattr("graphbench.cli.make_backend", lambda *a, **k: CountingBackend())
    assert run_cli("run", "--dataset", dataset, "--out", tmp_path / "once") == 0
    assert len(calls) == 12
    calls.clear()
    assert run_cli("run", "--dataset", _doubled(dataset, tmp_path), "--out", tmp_path / "r") == 1
    assert calls == []


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


def test_score_rejects_a_row_repeated_under_another_name_of_its_strategy(dataset, tmp_path,
                                                                          capsys):
    # "zero-shot" and "0-shot" name one strategy, so both rows would make one record.
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    first = json.loads((run_dir / "transcripts.jsonl").read_text().splitlines()[0])
    assert first["strategy"] == "0-shot"
    transcripts = tmp_path / "t.jsonl"
    transcripts.write_text("".join(json.dumps({**first, "strategy": name}) + "\n"
                                   for name in ("0-shot", "zero-shot")))
    out = tmp_path / "r.jsonl"
    assert run_cli("score", "--dataset", dataset, "--transcripts", transcripts,
                   "--out", out) == 1
    assert f"duplicate record for {(first['instance_id'], '0-shot')}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["strategy", "repeat"])
def test_score_names_the_file_and_line_of_a_row_it_refuses(dataset, tmp_path, capsys, fault):
    # Both messages once named neither, although an unknown instance did.
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--tasks", "edge_count", "--limit", 2, "--out", run_dir)
    rows = (run_dir / "transcripts.jsonl").read_text().splitlines()
    first = json.loads(rows[0])
    bad, message = {
        "strategy": ({**first, "strategy": "no such"}, "unknown strategy 'no such'"),
        "repeat": (first, f"duplicate record for {(first['instance_id'], '0-shot')}"),
    }[fault]
    transcripts, out = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    transcripts.write_text("".join(line + "\n" for line in [*rows, json.dumps(bad)]))
    capsys.readouterr()
    assert run_cli("score", "--dataset", dataset, "--transcripts", transcripts,
                   "--out", out) == 1
    assert capsys.readouterr().err == f"error: {transcripts}:3: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "report"])
def test_a_row_that_is_not_utf8_names_its_file_and_line(dataset, tmp_path, capsys, command):
    # Read as text, a 0xff byte once stopped both with only the codec's message.
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--tasks", "edge_count", "--limit", 2, "--out", run_dir)
    name = {"score": "transcripts", "report": "records"}[command]
    path = tmp_path / f"{name}.jsonl"
    first, second = (run_dir / f"{name}.jsonl").read_bytes().splitlines(keepends=True)
    path.write_bytes(first + second.replace(b'"0-shot"', b'"0-shot\xff"'))
    args = {"score": ["--dataset", dataset, "--transcripts", path, "--out", tmp_path / "r.jsonl"],
            "report": ["--records", path]}[command]
    capsys.readouterr()
    assert run_cli(command, *args) == 1
    assert capsys.readouterr().err == f"error: {path}:2: not a {name} row\n"


def test_a_dataset_line_that_is_not_utf8_is_named(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--tasks", "edge_count", "--limit", 2, "--out", run_dir)
    lines = dataset.read_bytes().splitlines(keepends=True)
    lines[7] = lines[7].replace(b'"id"', b'"\xffid"')
    dataset.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run_cli("score", "--dataset", dataset, "--transcripts", run_dir / "transcripts.jsonl",
                   "--out", tmp_path / "r.jsonl") == 1
    assert capsys.readouterr().err == f"error: {dataset}: line 8: not UTF-8: invalid start byte\n"


@pytest.mark.parametrize("token, run_k, score_k", [
    ("pseudo+k-shot", 3, 1), ("pseudo+2-shot", 2, 2), ("pseudo+05-shot", 5, 5),
    ("pseudo+foo-shot", None, None), ("pseudo+-shot", None, None), ("pseudo+ 3-shot", None, None),
    ("\u00b2-shot", None, None), ("pseudo+\u00b2-shot", None, None),
    ("\u0663-shot", None, None), ("pseudo+\u0663-shot", None, None),
])
def test_pseudo_k_shot_takes_only_digits_or_k_between_plus_and_shot(dataset, tmp_path, capsys,
                                                                     token, run_k, score_k):
    # Any other middle once read as Pseudo+{--shots}-shot: run ran it, and
    # score rewrote a row's strategy to it. Score parses with one shot.
    # Digits are ASCII only, for k-shot too: '²' once failed in int(), and
    # Arabic-Indic '٣' ran as 3.
    run_dir = tmp_path / "run"
    code = run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--tasks",
                   "edge_count", "--limit", 1, "--strategy", token, "--shots", 3, "--out", run_dir)
    if run_k is None:
        assert code == 1 and not run_dir.exists()
        assert capsys.readouterr().err == f"error: unknown strategy {token!r}\n"
    else:
        assert code == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["strategy"] == f"Pseudo+{run_k}-shot"
    base = tmp_path / "base"
    assert run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--tasks",
                   "edge_count", "--limit", 1, "--out", base) == 0
    row = json.loads((base / "transcripts.jsonl").read_text())
    transcripts, out = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    transcripts.write_text(json.dumps({**row, "strategy": token}) + "\n")
    capsys.readouterr()
    code = run_cli("score", "--dataset", dataset, "--transcripts", transcripts, "--out", out)
    if score_k is None:
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: {transcripts}:1: unknown strategy {token!r}\n"
    else:
        assert code == 0
        assert json.loads(out.read_text())["strategy"] == f"Pseudo+{score_k}-shot"


@pytest.mark.parametrize("fault", ["duplicate", "unknown"])
def test_score_that_fails_late_leaves_the_records_file_as_it_was(dataset, tmp_path, fault):
    # Records are written as they are scored, so the failure comes after the
    # file has taken every row before it.
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    rows = (run_dir / "transcripts.jsonl").read_text().splitlines(keepends=True)
    last = rows[0] if fault == "duplicate" else json.dumps(
        {"instance_id": "ghost-1", "strategy": "0-shot", "text": "Answer: 1"}) + "\n"
    transcripts = tmp_path / "transcripts.jsonl"
    transcripts.write_text("".join(rows) + last)
    out = tmp_path / "records" / "r.jsonl"
    out.parent.mkdir()
    out.write_text("keep\n")
    argv = ["score", "--dataset", dataset, "--transcripts", transcripts, "--out", out]
    if fault == "duplicate":
        assert run_cli(*argv) == 1
    else:
        with pytest.raises(SystemExit, match="unknown instance 'ghost-1'"):
            run_cli(*argv)
    assert out.read_bytes() == b"keep\n"
    assert [p.name for p in out.parent.iterdir()] == ["r.jsonl"]


@pytest.mark.parametrize("row", [
    {"instance_id": "edge_count-S-000-0", "strategy": "0-shot"},
    {"instance_id": "edge_count-S-000-0", "strategy": "0-shot", "text": None, "error": "e"},
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


@pytest.mark.parametrize("label_base", [True, False, 1.0, 0.0])
def test_score_rejects_a_bool_label_base(dataset, tmp_path, capsys, label_base):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    rows = [json.loads(line) for line in (run_dir / "transcripts.jsonl").read_text().splitlines()]
    bad = tmp_path / "transcripts.jsonl"
    for base, code in ((int(label_base), 0), (label_base, 1)):
        rows[2]["label_base"] = base
        bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run_cli("score", "--dataset", dataset, "--transcripts", bad,
                       "--out", tmp_path / "r.jsonl") == code
    assert capsys.readouterr().err == f"error: {bad}:3: not a transcripts row\n"


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


def test_cache_keys_match_keys_recorded_before_split_hashing(labelled_dataset):
    """The fixture's ``prompt_hash`` values were recorded when the key hashed
    one JSON dump of the whole prompt; hashing head and tail apart must
    reproduce every one. Its 0-shot rows ran at ``--label-base 1``, its BaG
    rows at each task's default."""
    by_id = {inst.id: inst for inst in ds.load_dataset(labelled_dataset)}
    strategies = {"0-shot": (Strategy.zero_shot(), 1), "BaG": (Strategy.bag(), None)}
    rows = [json.loads(line) for line in
            (FIXTURES / "legacy_transcripts.jsonl").read_text().splitlines()]
    assert len(rows) == 24
    for row in rows:
        strategy, label_base = strategies[row["strategy"]]
        bundle = render_prompt(by_id[row["instance_id"]], strategy, label_base=label_base)
        assert cache_key(bundle, ModelConfig(model=row["model"])) == row["prompt_hash"], row


def test_mock_and_replay_runs_never_build_prompt_text(labelled_dataset, tmp_path, monkeypatch):
    def run(backend, out, cache):
        assert run_cli("run", "--dataset", labelled_dataset, "--strategy", "pseudo+k-shot",
                       "--shots", 2, "--backend", backend, "--cache", tmp_path / cache,
                       "--out", tmp_path / out) == 0
        return [(tmp_path / out / name).read_bytes()
                for name in ("transcripts.jsonl", "records.jsonl")]

    plain = run("mock:oracle", "plain", "plain.jsonl")

    def built(bundle):
        raise AssertionError(f"prompt text of {bundle.instance_id} was built")

    monkeypatch.setattr(PromptBundle, "text", property(built))
    assert run("mock:oracle", "oracle", "oracle.jsonl") == plain
    assert (tmp_path / "oracle.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
    replayed = run("replay", "replay", "oracle.jsonl")
    assert replayed[1] == plain[1]
    # render writes each text, so it fails while the patch is in place.
    with pytest.raises(AssertionError, match="prompt text of .* was built"):
        run_cli("render", "--dataset", labelled_dataset, "--out", tmp_path / "p.jsonl")
    monkeypatch.undo()
    assert run_cli("render", "--dataset", labelled_dataset, "--out", tmp_path / "p.jsonl") == 0


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


def test_report_refuses_empty_input(tmp_path, capsys):
    empty, blank = tmp_path / "empty.jsonl", tmp_path / "blank.jsonl"
    empty.write_text("")
    blank.write_text("\n")
    out = tmp_path / "report.md"
    assert run_cli("report", "--records", empty, blank, "--out", out) == 1
    assert capsys.readouterr() == ("", f"error: no records in {empty} {blank}\n")
    assert not out.exists()


def test_report_duplicate_records_fail(dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", run_dir)
    code = run_cli("report", "--records", run_dir / "records.jsonl",
                   run_dir / "records.jsonl")
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


_RECORD = ('{"correct": true, "detail": "", "extracted": "1", "failure": "none", '
           '"instance_id": "edge_count-S-000-0", "task": "edge_count", ')


@pytest.mark.parametrize("line", ['{"a": 1}', '{"instance_id": "edge_count-S-000-0",', "[1]",
                                  _RECORD + '"bucket": ["S"], "strategy": "0-shot"}',
                                  _RECORD + '"bucket": "S", "strategy": 5}',
                                  _RECORD + '"bucket": "S", "strategy": "no such strategy"}'])
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


@pytest.mark.parametrize("bucket, error", [("5|6", ""), ("L\nX", "holds a control character")])
def test_report_keeps_the_table_shape_for_any_bucket_name(tmp_path, capsys, bucket, error):
    # "5|6" once gave its row one cell too many, and "L\nX" split its row over two lines.
    records = tmp_path / "records.jsonl"
    records.write_text(_RECORD + f'"bucket": {json.dumps(bucket)}, "strategy": "0-shot"}}\n')
    code = run_cli("report", "--records", records)
    captured = capsys.readouterr()
    if error:
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: name {bucket!r} {error}\n"
    else:
        assert code == 0
        assert captured.out.splitlines()[2] == "| 0-shot | 5\\|6 | **100** |"


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


@pytest.mark.parametrize("parallel", [0, -1])
def test_run_parallel_below_one_fails_before_the_dataset_loads(dataset, tmp_path, capsys,
                                                               monkeypatch, parallel):
    loads = []
    monkeypatch.setattr(ds, "load_dataset", lambda *args, **kwargs: loads.append(args))
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--dataset", dataset, "--parallel", parallel, "--out", tmp_path / "r")
    assert exc.value.code == 2
    assert (f"argument --parallel: expected a count of 1 or more, got '{parallel}'"
            in capsys.readouterr().err)
    assert loads == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag, value, fault", [
    ("--temperature", "nan", "expected a finite number, got 'nan'"),
    ("--temperature", "inf", "expected a finite number, got 'inf'"),
    ("--max-tokens", "-5", "expected a count of 1 or more, got '-5'"),
    ("--max-tokens", "0", "expected a count of 1 or more, got '0'"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_rejects_a_value_no_request_can_carry(dataset, tmp_path, capsys, monkeypatch,
                                                  flag, value, fault, source):
    # Such a value would reach every request's body: nan and inf are not
    # JSON, and no endpoint answers in fewer than one token.
    loads = []
    monkeypatch.setattr(ds, "load_dataset", lambda *args, **kwargs: loads.append(args))
    given = [flag, value]
    if source == "config":
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag[2:]} = {value}\n")
        given = ["--config", config]
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--dataset", dataset, *given, "--out", tmp_path / "r")
    assert exc.value.code == 2
    assert f"argument {flag}: {fault}" in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv, error", [
    (["run", "--strategy", "nope"], "error: unknown strategy 'nope'"),
    (["run", "--strategy", "k-shot", "--shots", "-2"], "error: k_shot needs k >= 1"),
    (["run", "--backend", "bogus"], "error: unknown backend 'bogus'"),
    (["run", "--backend", "replay", "--cache", "{tmp}/missing.jsonl"],
     "error: replay cache not found: {tmp}/missing.jsonl"),
    (["render", "--strategy", "nope"], "error: unknown strategy 'nope'"),
    (["render", "--strategy", "pseudo+k-shot", "--shots", "0"],
     "error: pseudo_k_shot needs k >= 1"),
], ids=["run-strategy", "run-shots", "run-backend", "run-replay-cache", "render-strategy",
        "render-shots"])
def test_a_strategy_or_backend_typo_fails_before_the_dataset_loads(dataset, tmp_path, capsys,
                                                                   monkeypatch, argv, error):
    def load(*args, **kwargs):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(ds, "load_dataset", load)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--dataset", dataset, "--out", tmp_path / "r") == 1
    assert capsys.readouterr().err == error.format(tmp=tmp_path) + "\n"
    assert not (tmp_path / "r").exists()


def test_http_run_without_an_endpoint_fails_before_the_dataset_loads(dataset, tmp_path, capsys,
                                                                     monkeypatch):
    # It once sent every prompt anyway, wrote one error row per instance over
    # the older run and exited 2.
    out = tmp_path / "r"
    assert run_cli("run", "--dataset", dataset, "--backend", "mock:oracle", "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    def load(*args, **kwargs):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(ds, "load_dataset", load)
    assert run_cli("run", "--dataset", dataset, "--backend", "http", "--out", out) == 1
    assert capsys.readouterr().err == "error: http backend requires an endpoint URL\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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
    rows[1]["gold"] = ds.answer_to_json(Answer.of(AnswerKind.EDGE_SET, forest))
    path.write_text(json.dumps(header) + "\n" + "".join(instance_line(row) + "\n" for row in rows))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: instance {rows[0]['id']}: stored gold fails verification"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("no_verify", [[], ["--no-verify"]])
def test_run_rejects_a_query_of_the_wrong_arity(tmp_path, capsys, no_verify):
    path = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", path, "--tasks", "node_degree",
                   "--buckets", "S", "--graphs-per-cell", 1) == 0
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["query"] = []
    path.write_text(json.dumps(header) + "\n" + "".join(instance_line(row) + "\n" for row in rows))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out,
                   *no_verify) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: line 2: corrupt instance: "
                   "node_degree query [] has arity 0, expected 1"]
    assert not (out / "summary.json").exists()


def _node_count_file(tmp_path, bucket):
    """A two-graph node_count dataset whose line 2 stores ``bucket``."""
    path = tmp_path / "data.jsonl"
    assert run_cli("generate", "--seed", 0, "--out", path, "--tasks", "node_count",
                   "--buckets", "S", "--graphs-per-cell", 2) == 0
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["bucket"] = bucket
    path.write_text(json.dumps(header) + "\n" + "".join(instance_line(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("bucket, fault", [
    ({"name": "S", "n_min": 5, "n_max": 12}, r"bucket S has bounds \[5, 12\], not its standard \[5, 11\]"),
    ({"name": 7, "n_min": 5.5, "n_max": 11}, "bucket .* is not a str name and two int bounds"),
], ids=["standard-name-other-bounds", "wrong-types"])
def test_run_rejects_a_bad_bucket_naming_the_line(tmp_path, capsys, bucket, fault):
    """Both loaded before: the first ran as "1/1 correct", line 2 dropped
    unseen, and the second gave a bucket whose ``str()`` raised."""
    path = _node_count_file(tmp_path, bucket)
    capsys.readouterr()
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(f"error: {re.escape(str(path))}: line 2: corrupt instance: {fault}",
                        err[0])
    assert not (out / "summary.json").exists()


def test_run_and_render_keep_a_bucket_only_the_file_names(tmp_path, capsys):
    path = _node_count_file(tmp_path, {"name": "XS", "n_min": 5, "n_max": 12})
    out = tmp_path / "run"
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out) == 0
    assert "2/2 correct" in capsys.readouterr().out
    assert [r.bucket for r in load_records(out / "records.jsonl")] == ["XS", "S"]
    assert run_cli("run", "--dataset", path, "--backend", "mock:oracle", "--out", out,
                   "--buckets", "S") == 0
    assert "1/1 correct" in capsys.readouterr().out
    prompts = tmp_path / "prompts.jsonl"
    assert run_cli("render", "--dataset", path, "--out", prompts) == 0
    assert "rendered 2 prompts" in capsys.readouterr().out


def test_run_rejects_a_header_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    path.write_text("[1, 2]\n")
    assert run_cli("run", "--dataset", path, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: line 1: ")


def test_unknown_backend_is_reported(dataset, tmp_path, capsys):
    code = run_cli("run", "--dataset", dataset, "--backend", "oracle",
                   "--out", tmp_path / "r")
    assert code == 1
    assert "error:" in capsys.readouterr().err


# --- without requests ----------------------------------------------------------------


@pytest.fixture
def no_requests_env(tmp_path):
    """Environment whose interpreters find a ``requests`` that fails to import."""
    shim = tmp_path / "shim"
    shim.mkdir()
    (shim / "requests.py").write_text('raise ImportError("No module named \'requests\'")\n')
    return subprocess_env(shim)


def run_without_requests(env, cwd, *argv):
    return subprocess.run([sys.executable, "-m", "graphbench.cli", *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_every_command_but_http_runs_without_requests(no_requests_env, tmp_path, monkeypatch,
                                                      capsys):
    commands = [
        ["generate", "--seed", 0, "--graphs-per-cell", 2, "--out", "data/dataset.jsonl"],
        ["run", "--dataset", "data/dataset.jsonl", "--backend", "mock:oracle",
         "--cache", "data/cache.jsonl", "--out", "run"],
        ["run", "--dataset", "data/dataset.jsonl", "--backend", "replay",
         "--cache", "data/cache.jsonl", "--out", "replay"],
        ["report", "--records", "run/records.jsonl"],
        ["score", "--dataset", "data/dataset.jsonl", "--transcripts", "run/transcripts.jsonl",
         "--out", "scored.jsonl"],
        ["score", "--dataset", "data/dataset.jsonl", "--transcripts", "replay/transcripts.jsonl",
         "--out", "replay-scored.jsonl"],
        ["render", "--dataset", "data/dataset.jsonl", "--strategy", "pseudo+2-shot",
         "--out", "prompts.jsonl"],
    ]
    shimmed, plain = tmp_path / "shimmed", tmp_path / "plain"
    shimmed.mkdir()
    plain.mkdir()
    monkeypatch.chdir(plain)
    for argv in commands:
        proc = run_without_requests(no_requests_env, shimmed, *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert run_cli(*argv) == 0
        assert proc.stdout == capsys.readouterr().out, argv

    files = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(shimmed) for p in shimmed.rglob("*") if p.is_file())
    assert len(files) == 12
    for name in files:
        got, want = (shimmed / name).read_bytes(), (plain / name).read_bytes()
        if name.name == "summary.json":  # stamped with the time of the run
            got, want = ({k: v for k, v in json.loads(b).items() if k != "generated_at"}
                         for b in (got, want))
        assert got == want, name
    records = (shimmed / "run/records.jsonl").read_bytes()
    assert (shimmed / "replay/records.jsonl").read_bytes() == records
    assert (shimmed / "scored.jsonl").read_bytes() == records
    assert (shimmed / "replay-scored.jsonl").read_bytes() == records


def test_http_backend_without_requests_is_one_error_line(dataset, no_requests_env, tmp_path):
    proc = run_without_requests(no_requests_env, tmp_path, "run", "--dataset", dataset,
                                "--backend", "http", "--endpoint", "http://localhost:9/v1",
                                "--out", tmp_path / "r")
    assert proc.returncode == 1
    assert proc.stderr == ("error: the http backend needs the requests package: "
                           "No module named 'requests'\n")
    assert not (tmp_path / "r").exists()


# --- string-hash seed ----------------------------------------------------------------

#: Run in one fresh interpreter per hash seed, in this order, from its own directory.
HASHSEED_COMMANDS = [
    ["generate", "--seed", "1", "--graphs-per-cell", "5", "--out", "dataset.jsonl"],
    ["render", "--dataset", "dataset.jsonl", "--strategy", "pseudo+2-shot",
     "--out", "prompts.jsonl"],
    ["run", "--dataset", "dataset.jsonl", "--backend", "mock:adversary",
     "--strategy", "pseudo+2-shot", "--out", "run"],
    ["report", "--records", "run/records.jsonl", "--out", "report.md"],
    ["score", "--dataset", "dataset.jsonl", "--transcripts", "run/transcripts.jsonl",
     "--out", "rescored.jsonl"],
]
HASHSEED_OUTPUTS = ["dataset.jsonl", "dataset.manifest.json", "prompts.jsonl",
                    "run/transcripts.jsonl", "run/records.jsonl", "rescored.jsonl", "report.md"]
_RUN_COMMANDS = """
import json, sys
import graphbench.cli
from graphbench.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    """Set or string-hash order must not reach an output: every file the
    commands write is byte-identical under PYTHONHASHSEED 1 and 2."""
    outputs = []
    for hashseed in (1, 2):
        cwd = tmp_path / f"hashseed-{hashseed}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS, json.dumps(HASHSEED_COMMANDS)], cwd=cwd,
            env={**subprocess_env(), "PYTHONHASHSEED": str(hashseed)},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (cwd / "rescored.jsonl").read_bytes() == (cwd / "run/records.jsonl").read_bytes()
        outputs.append({name: (cwd / name).read_bytes() for name in HASHSEED_OUTPUTS})
    for name in HASHSEED_OUTPUTS:
        assert outputs[0][name] == outputs[1][name], name


# --- memory ------------------------------------------------------------------------

#: Bytes a loaded, rendered, answered and scored instance may hold, as
#: ``tracemalloc`` counts them: its instance, gold, share of a graph, prompt,
#: transcript and record. Slotted value types hold about 2,090-2,140 on
#: Python 3.10-3.12; with a ``__dict__`` each, they held 2,260-2,620.
RETAINED_PER_INSTANCE = 2200


def test_a_scored_instance_holds_few_bytes(tmp_path):
    path = tmp_path / "data.jsonl"
    ds.write_dataset(path, 0, graphs_per_cell=10)
    strategy = Strategy.zero_shot()
    backend = make_backend("mock:oracle")

    def run():
        instances = ds.load_dataset(path)
        bundles = [render_prompt(inst, strategy) for inst in instances]
        transcripts = [t for t, _ in run_prompts(bundles, backend)]
        records = [evaluate_response(inst, strategy, t.text, label_base=t.label_base)
                   for inst, t in zip(instances, transcripts)]
        assert all(r.correct for r in records)
        return instances, bundles, transcripts, records

    run()  # fills the process's memos, so only what a run holds is counted
    tracemalloc.start()
    try:
        held = run()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(held[0]) < RETAINED_PER_INSTANCE, retained / len(held[0])


#: Bytes ``run`` may hold at its peak per instance, as ``tracemalloc`` counts
#: them, on a warm process. Writing each row as it arrives and scoring the
#: rows once the cache is closed, it peaks at 1,850-1,875 on Python 3.10-3.12,
#: and this bound is 4 % over that. Holding every response until the last
#: arrived, it peaked at 2,005-2,050; holding every transcript and record
#: while it scored too, at 2,290-2,460.
RUN_PEAK_PER_INSTANCE = 1950


@pytest.mark.parametrize("strategy", ["0-shot", "pseudo+5-shot"])
def test_run_peaks_at_few_bytes_per_instance(tmp_path, capsys, strategy):
    path = tmp_path / "data.jsonl"
    ds.write_dataset(path, 0, graphs_per_cell=10)
    count = len(ds.load_dataset(path))

    def run(name):
        assert main(["run", "--dataset", str(path), "--strategy", strategy,
                     "--backend", "mock:oracle", "--cache", str(tmp_path / f"{name}.jsonl"),
                     "--out", str(tmp_path / name)]) == 0

    run("warm-up")  # fills the process's memos, so only what a run holds is counted
    tracemalloc.start()
    try:
        run("measured")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count < RUN_PEAK_PER_INSTANCE, peak / count


def test_run_holds_nothing_per_response(tmp_path, monkeypatch):
    """Traced bytes do not grow per response from the first prompt sent to
    the last, nor from the first record scored to the last, in ``run`` or in
    a ``score`` of its transcripts: each row is written and dropped as it
    arrives, and each record once it is written. With no cache, on Python
    3.10-3.12, they grew by about 40 B per instance in dispatch (prompt text
    built on first use) and 40-65 B in scoring. Holding each response until
    the last arrived, dispatch grew by about 430 B per instance; keeping a
    set of scored ids for the repeat check, scoring grew by 90-160 B."""
    path = tmp_path / "data.jsonl"
    ds.write_dataset(path, 0, graphs_per_cell=10)
    count = len(ds.load_dataset(path))
    # Preallocated, so that taking a mark holds no new object.
    sent, scored = array("q", bytes(8 * count)), array("q", bytes(8 * count))
    calls = [0, 0]
    score = graphbench.cli.evaluate_response

    class MarkingBackend(MockOracleBackend):
        def complete_text(self, bundle, cfg):
            sent[calls[0]] = tracemalloc.get_traced_memory()[0]
            calls[0] += 1
            return super().complete_text(bundle, cfg)

    def evaluate_response(*args, **kwargs):
        scored[calls[1]] = tracemalloc.get_traced_memory()[0]
        calls[1] += 1
        return score(*args, **kwargs)

    monkeypatch.setattr(graphbench.cli, "make_backend", lambda *a, **k: MarkingBackend())
    monkeypatch.setattr(graphbench.cli, "evaluate_response", evaluate_response)

    def growth_per_scored_row(*argv) -> float:
        calls[:] = [0, 0]
        tracemalloc.start()
        try:
            assert main([str(a) for a in argv]) == 0
        finally:
            tracemalloc.stop()
        assert calls[1] == count
        return (scored[-1] - scored[0]) / count

    for name in ("warm-up", "measured"):
        per_row = growth_per_scored_row("run", "--dataset", path, "--strategy", "pseudo+5-shot",
                                        "--out", tmp_path / name)
    assert calls == [count, count]
    assert (sent[-1] - sent[0]) / count < 80, (sent[-1] - sent[0]) / count
    assert per_row < 80, per_row
    per_row = growth_per_scored_row("score", "--dataset", path, "--transcripts",
                                    tmp_path / "measured" / "transcripts.jsonl",
                                    "--out", tmp_path / "rescored.jsonl")
    assert per_row < 80, per_row


def test_every_transcript_of_a_run_shares_one_strategy_name():
    _, instances = assemble_dataset(0, tasks=[Task.EDGE_COUNT], buckets=[SMALL],
                                    graphs_per_cell=3)
    strategy = Strategy.pseudo_k_shot(k=5)
    bundles = [render_prompt(inst, strategy) for inst in instances]
    transcripts = [t for t, _ in run_prompts(bundles, make_backend("mock:oracle"))]
    records = [evaluate_response(inst, strategy, t.text) for inst, t in zip(instances, transcripts)]
    names = {id(x.strategy) for x in [*transcripts, *records]}
    assert len(names) == 1 and transcripts[0].strategy == "Pseudo+5-shot"


#: Bytes ``report`` may hold at its peak per record, as ``tracemalloc`` counts
#: them, on a warm process. Streaming the records into ``aggregate_report``,
#: it peaks at 205-240 on Python 3.10-3.12 over 660 records, mostly the
#: repeat check's instance ids; collecting them into one list first, with
#: one (instance_id, strategy) tuple each for that check, it peaked at 370-410.
REPORT_PEAK_PER_RECORD = 280


def test_report_streams_its_records(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    ds.write_dataset(path, 0, graphs_per_cell=10)
    assert main(["run", "--dataset", str(path), "--out", str(tmp_path / "run")]) == 0
    records = tmp_path / "run" / "records.jsonl"
    count = len(records.read_text().splitlines())
    main(["report", "--records", str(records)])  # fills the process's memos
    tracemalloc.start()
    try:
        assert main(["report", "--records", str(records)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count < REPORT_PEAK_PER_RECORD, peak / count


def test_the_records_of_a_load_share_one_string_per_strategy(dataset, tmp_path):
    paths = []
    for strategy in ("0-shot", "pseudo+5-shot"):
        out = tmp_path / strategy
        assert run_cli("run", "--dataset", dataset, "--strategy", strategy, "--out", out) == 0
        paths.append(out / "records.jsonl")
    records = [rec for path in paths for rec in load_records(path)]
    names = {}
    for rec in records:
        names.setdefault(rec.strategy, set()).add(id(rec.strategy))
    assert {name: len(ids) for name, ids in names.items()} == {"0-shot": 1, "Pseudo+5-shot": 1}


def test_value_types_are_slotted(tmp_path):
    """The types a run makes one of per instance, prompt, response and
    record have no ``__dict__``; each still copies and pickles, and an
    instance can be weakly referenced."""
    _, instances = assemble_dataset(0, tasks=[Task.NEIGHBORS], buckets=[SMALL], graphs_per_cell=1)
    inst = instances[0]
    bundle = render_prompt(inst, Strategy.zero_shot())
    transcript = run_prompts([bundle], make_backend("mock:oracle"))[0][0]
    record = evaluate_response(inst, Strategy.zero_shot(), transcript.text)
    for value in (inst, inst.graph, inst.gold, bundle, transcript, record):
        assert not hasattr(value, "__dict__"), type(value)
        with pytest.raises((AttributeError, TypeError)):
            value.note = "x"
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    assert weakref.ref(inst)() is inst


# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child of
# the test process would report the test process's own peak.
_GENERATE_PEAK = """
import sys
import graphbench.cli
from graphbench.cli import main
assert main(["generate", "--seed", "0", "--out", sys.argv[1]]) == 0
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_full_size_generate_peaks_under_40_mb(tmp_path):
    """Generating holds one cell's instances at a time, so the full seed-0
    dataset is written in a fresh interpreter whose peak RSS stays under 40 MB."""
    proc = subprocess.run([sys.executable, "-c", _GENERATE_PEAK, str(tmp_path / "d.jsonl")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout.split()[-1])
    assert peak_mb < 40, f"generate peak RSS {peak_mb:.1f} MB"
