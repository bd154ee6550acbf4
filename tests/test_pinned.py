"""Pinned bytes: the full seed-0 benchmark must not change unnoticed.

Same-process regeneration tests cannot catch a change to the generators, the
JSON layout or the prompt surface text, because both sides of the comparison
move together. These digests were measured once and are hard-coded; a change
that alters them must bump ``GENERATOR_VERSION`` / ``SCHEMA_VERSION`` and
update the values here in the same commit.
"""
import hashlib

import pytest

from graphbench import PseudocodeStyle, Strategy, assemble_dataset, render_prompt

SEED0_CONTENT_DIGEST = "db99ee3cea99b9d71dd5738de9ce23a0aa0cb94081f0f7157c16d1c5f926eb41"
SEED0_PROMPTS_SHA256 = {
    "0-shot": "1281fda9d2863a4aa5dec2e6fd3e9606bf6e5de5ced1d8afae39f6e326e79656",
    "Pseudo+5-shot": "2bdaa58239075ff3e162f03bf6e55a946865fc8f9cde369c65fd1cb021a4cf7f",
}


@pytest.fixture(scope="module")
def seed0():
    return assemble_dataset(0)


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
    [Strategy.zero_shot(), Strategy.pseudo_k_shot(PseudocodeStyle.PLAIN, 5)],
    ids=lambda s: s.display_name,
)
def test_seed0_prompts_sha256(seed0, strategy):
    _, instances = seed0
    digest = prompts_sha256(render_prompt(inst, strategy).text for inst in instances)
    assert digest == SEED0_PROMPTS_SHA256[strategy.display_name]
