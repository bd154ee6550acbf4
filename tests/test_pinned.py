"""Pinned bytes: the full seed-0 benchmark must not change unnoticed.

Same-process regeneration tests cannot catch a change to the generators, the
JSON layout or the prompt surface text, because both sides of the comparison
move together. These tests compare with digests measured once, and each
digest is written in one place:

- ``perfbench/pinned.json``, under seed ``"0"``, holds what the benchmark
  checks too: the dataset's content digest and byte count, the 0-shot and
  Pseudo+5-shot prompt digests, and the report digests of the oracle runs at
  those two strategies. These tests read that file and never write it; a
  missing file or key fails them.
- This module holds the pins the benchmark does not check: the other
  strategies' and styles' prompt digests, two transcripts digests, and a
  second dataset's digest, at seed 13 and 10 graphs per cell.

A change that alters a pin must bump ``GENERATOR_VERSION`` /
``SCHEMA_VERSION`` and update the pin where it lives, in the same commit.
"""
import hashlib
import json
from pathlib import Path

import pytest

from graphbench import (
    PseudocodeStyle,
    Strategy,
    assemble_dataset,
    load_dataset,
    render_prompt,
    standard_strategies,
)
from graphbench.cli import main, run_prompts
from graphbench.dataset import load_manifest

PINNED_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"
#: ``run``'s strategy flags in the benchmark workloads that ``pinned.json``
#: pins prompt and report digests for (``RUN_ARGS`` in ``perfbench/workload.py``).
RUN_WORKLOADS = {
    "run-0shot": ["--strategy", "0-shot"],
    "run-pseudo5shot": ["--strategy", "pseudo+5-shot", "--style", "plain"],
}
#: Prompt digests of the standard strategies that no benchmark workload runs.
SEED0_PROMPTS_SHA256 = {
    "1-shot": "737b70e52ece7c5816a84ca378a3c01630323ed50511f9e80a31b33e25cf96bf",
    "BaG": "6aab88b771128457945d5a3fe151f172e0c6b6de8d6c7f42ceac4a22bfd00485",
    "0-CoT": "992a4c428a031e74e479c5f7ad79dca89c99ed3240dbb6f29869a3cd9aefa0d2",
    "Pseudo": "c0923497961b27a9137557e7aa26b8f7dc64230215ebe059b15d8b8c82a7f7bc",
    "Pseudo+1-shot": "5a4ceef9f991de51af2a4f18fecee1d2c4a3015836122efdaa38c67aceecfbae",
}
#: ``display_name`` drops the style, so the other styles' Pseudo digests are
#: keyed by style; the plain one is ``SEED0_PROMPTS_SHA256["Pseudo"]``.
SEED0_PSEUDO_STYLE_SHA256 = {
    "python": "4038abcf3c76c95f68a27ba2f1883c17152fb03afd4c8796ecbd0091208ad61f",
    "multi": "4780991dc2288b87c094c77ffee4bc8ca9e847e70d437dab55405e5a7ffbd5af",
}
#: sha256 of ``transcripts.jsonl`` from two runs over the seed-0,
#: ``--graphs-per-cell 2`` dataset (132 instances); see ``test_transcripts_sha256``.
TRANSCRIPTS_SHA256 = {
    "oracle": "e78c5106ba15a4a0e3a5a3d534232260301d6ee9510d72c0f8325968f923081c",
    "replay": "61f26cc281932eeb3795ebced135017bf8c9cd55b0e71244b778fc94e159a9f6",
}

#: ``generate --seed 13 --graphs-per-cell 10``: byte count of the file and
#: sha256 of its instance lines, a second seed for the generators and oracles.
SEED13_DATASET = {
    "bytes": 762324,
    "content_digest": "99789e9c55ef0636af140a3ac236deb2df41136abe7ac8c9cc1bb180bef62e1a",
}


@pytest.fixture(scope="module")
def pinned():
    """Seed 0's pins in ``perfbench/pinned.json``."""
    return json.loads(PINNED_JSON.read_text(encoding="utf-8"))["0"]


@pytest.fixture(scope="module")
def seed0(seed0_dataset):
    """The instances loaded from the seed-0 file."""
    return load_dataset(seed0_dataset, verify=False)


def test_seed0_file_loads_to_the_generated_instances(seed0):
    """Load reads every line the writer lays out, so a change to the
    serializer's layout cannot pass unnoticed, and it builds one graph per
    generated graph, since each one's lines are adjacent and identical."""
    assert seed0 == assemble_dataset(0)[1]
    assert len(seed0) == 6600
    assert len({id(inst.graph) for inst in seed0}) == 3000


def prompts_sha256(texts) -> str:
    """sha256 over prompt texts in order, each followed by one NUL byte."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_seed0_content_digest(seed0_dataset, pinned):
    """The file ``generate`` writes: its size, its instance lines' digest and
    its manifest's digest."""
    data = seed0_dataset.read_bytes()
    assert len(data) == pinned["dataset_bytes"]
    lines = data[data.index(b"\n") + 1 :]
    assert hashlib.sha256(lines).hexdigest() == pinned["content_digest"]
    manifest = load_manifest(seed0_dataset.with_suffix(".manifest.json"))
    assert manifest.content_digest == pinned["content_digest"]


def test_seed13_content_digest(tmp_path):
    path = tmp_path / "dataset.jsonl"
    assert main(["generate", "--seed", "13", "--graphs-per-cell", "10", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert len(data) == SEED13_DATASET["bytes"]
    lines = data[data.index(b"\n") + 1 :]
    assert hashlib.sha256(lines).hexdigest() == SEED13_DATASET["content_digest"]
    manifest = load_manifest(path.with_suffix(".manifest.json"))
    assert manifest.content_digest == SEED13_DATASET["content_digest"]


@pytest.mark.parametrize(
    "strategy",
    [s for s in standard_strategies(PseudocodeStyle.PLAIN)
     if s.display_name in SEED0_PROMPTS_SHA256],
    ids=lambda s: s.display_name,
)
def test_seed0_prompts_sha256(seed0, strategy):
    instances = seed0
    digest = prompts_sha256(render_prompt(inst, strategy).text for inst in instances)
    assert digest == SEED0_PROMPTS_SHA256[strategy.display_name]


@pytest.mark.parametrize("workload", sorted(RUN_WORKLOADS))
def test_seed0_oracle_run_prompts_and_report_sha256(seed0_dataset, pinned, tmp_path,
                                                   monkeypatch, workload):
    """``run`` under the oracle with a cache, then ``report``, in process, as
    the benchmark's run workloads call them: the prompts rendered from the
    loaded file and the report written are the pinned bytes."""
    sent = []

    def capture(bundles, *args, **kwargs):
        sent.extend(bundle.text for bundle in bundles)
        return run_prompts(bundles, *args, **kwargs)

    monkeypatch.setattr("graphbench.cli.run_prompts", capture)
    out, report = tmp_path / "out", tmp_path / "report.md"
    assert main(["run", "--dataset", str(seed0_dataset), "--backend", "mock:oracle",
                 "--cache", str(tmp_path / "cache.jsonl"), "--out", str(out),
                 *RUN_WORKLOADS[workload]]) == 0
    assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(report)]) == 0
    assert len(sent) == 6600
    assert prompts_sha256(sent) == pinned["prompts_sha256"][workload]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == pinned["report_sha256"][workload]


@pytest.mark.parametrize("style", sorted(SEED0_PSEUDO_STYLE_SHA256))
def test_seed0_pseudo_style_prompts_sha256(seed0, style):
    instances = seed0
    strategy = Strategy.pseudo(PseudocodeStyle(style))
    digest = prompts_sha256(render_prompt(inst, strategy).text for inst in instances)
    assert digest == SEED0_PSEUDO_STYLE_SHA256[style]


def test_transcripts_sha256(tmp_path):
    """The rows ``run`` writes, answered and failed: an oracle Pseudo+2-shot
    run, and a replay over the first 40 of a 0-shot run's 132 cache lines,
    which leaves 92 error rows."""
    dataset, cache = tmp_path / "dataset.jsonl", tmp_path / "cache.jsonl"

    def run(*argv):
        return main([*map(str, argv), "--dataset", str(dataset)])

    assert main(["generate", "--seed", "0", "--graphs-per-cell", "2", "--out", str(dataset)]) == 0
    assert run("run", "--backend", "mock:oracle", "--strategy", "pseudo+2-shot",
               "--out", tmp_path / "oracle") == 0
    assert run("run", "--backend", "mock:oracle", "--cache", cache, "--out", tmp_path / "full") == 0
    lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 132
    cache.write_text("".join(lines[:40]), encoding="utf-8")
    assert run("run", "--backend", "replay", "--cache", cache, "--out", tmp_path / "replay") == 2
    for name, digest in TRANSCRIPTS_SHA256.items():
        data = (tmp_path / name / "transcripts.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
