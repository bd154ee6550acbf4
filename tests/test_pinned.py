"""Pinned bytes: the full seed-0 benchmark must not change unnoticed.

Same-process regeneration tests cannot catch a change to the generators, the
JSON layout or the prompt surface text, because both sides of the comparison
move together. These digests were measured once and are hard-coded; a change
that alters them must bump ``GENERATOR_VERSION`` / ``SCHEMA_VERSION`` and
update the values here in the same commit.
"""
import hashlib

import pytest

from graphbench import (
    PseudocodeStyle,
    Strategy,
    assemble_dataset,
    load_dataset,
    render_prompt,
    save_dataset,
    standard_strategies,
)
from graphbench.cli import main
import graphbench.dataset as ds

SEED0_CONTENT_DIGEST = "db99ee3cea99b9d71dd5738de9ce23a0aa0cb94081f0f7157c16d1c5f926eb41"
SEED0_PROMPTS_SHA256 = {
    "0-shot": "1281fda9d2863a4aa5dec2e6fd3e9606bf6e5de5ced1d8afae39f6e326e79656",
    "1-shot": "737b70e52ece7c5816a84ca378a3c01630323ed50511f9e80a31b33e25cf96bf",
    "BaG": "6aab88b771128457945d5a3fe151f172e0c6b6de8d6c7f42ceac4a22bfd00485",
    "0-CoT": "992a4c428a031e74e479c5f7ad79dca89c99ed3240dbb6f29869a3cd9aefa0d2",
    "Pseudo": "c0923497961b27a9137557e7aa26b8f7dc64230215ebe059b15d8b8c82a7f7bc",
    "Pseudo+1-shot": "5a4ceef9f991de51af2a4f18fecee1d2c4a3015836122efdaa38c67aceecfbae",
    "Pseudo+5-shot": "2bdaa58239075ff3e162f03bf6e55a946865fc8f9cde369c65fd1cb021a4cf7f",
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
PSEUDO_5_SHOT = Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 5)


@pytest.fixture(scope="module")
def seed0():
    return assemble_dataset(0)


@pytest.fixture(scope="module")
def seed0_path(seed0, tmp_path_factory):
    """The seed-0 instances saved as JSONL."""
    _, instances = seed0
    path = tmp_path_factory.mktemp("pinned") / "dataset.jsonl"
    save_dataset(instances, path)
    return path


@pytest.fixture(scope="module")
def seed0_loaded(seed0_path):
    """The seed-0 instances after a save/load round trip through JSONL."""
    return load_dataset(seed0_path)


def test_seed0_file_loads_without_a_whole_line_parse(seed0_path, monkeypatch):
    """Every line the writer lays out is parsed around its graph, so a change
    to the serializer cannot turn that parse off unnoticed."""
    split_line, missed = ds._split_line, []

    def spy(line, last_text):
        split = split_line(line, last_text)
        if split is None:
            missed.append(line)
        return split

    monkeypatch.setattr(ds, "_split_line", spy)
    assert len(load_dataset(seed0_path, verify=False)) == 6600
    assert missed == []


def prompts_sha256(texts) -> str:
    """sha256 over prompt texts in order, each followed by one NUL byte."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_seed0_content_digest(seed0):
    manifest, instances = seed0
    assert len(instances) == 6600
    assert manifest.content_digest == SEED0_CONTENT_DIGEST


@pytest.mark.parametrize(
    "strategy",
    [*standard_strategies(PseudocodeStyle.PLAIN), PSEUDO_5_SHOT],
    ids=lambda s: s.display_name,
)
def test_seed0_prompts_sha256(seed0, strategy):
    _, instances = seed0
    digest = prompts_sha256(render_prompt(inst, strategy).text for inst in instances)
    assert digest == SEED0_PROMPTS_SHA256[strategy.display_name]


@pytest.mark.parametrize(
    "strategy", [Strategy.zero_shot(), PSEUDO_5_SHOT], ids=lambda s: s.display_name
)
def test_seed0_loaded_prompts_sha256(seed0_loaded, strategy):
    assert len(seed0_loaded) == 6600
    digest = prompts_sha256(render_prompt(inst, strategy).text for inst in seed0_loaded)
    assert digest == SEED0_PROMPTS_SHA256[strategy.display_name]


@pytest.mark.parametrize("style", sorted(SEED0_PSEUDO_STYLE_SHA256))
def test_seed0_pseudo_style_prompts_sha256(seed0, style):
    _, instances = seed0
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
