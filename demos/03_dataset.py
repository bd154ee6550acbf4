"""Dataset assembly: 6,600 instances from one integer seed.

Each (task, bucket) cell gets 100 graphs; node- and pair-level tasks ask five
queries per graph. Instances carry their gold answer, so a saved dataset is
self-contained: load it anywhere and start scoring.
"""

import tempfile
import time
from collections import Counter
from pathlib import Path

from graphbench import (
    TASK_SPECS,
    assemble_dataset,
    content_digest,
    load_dataset,
    save_dataset,
)


def main():
    start = time.monotonic()
    manifest, instances = assemble_dataset(master_seed=0)
    print(f"assembled {len(instances)} instances in {time.monotonic() - start:.1f}s")

    levels = ("graph-level", "node-level", "pair-level")  # by query arity
    by_level = Counter(levels[TASK_SPECS[i.task].arity] for i in instances)
    for level, count in sorted(by_level.items()):
        print(f"  {level:<12} {count}")

    print(f"\ncontent digest: {content_digest(instances)}")
    print("(the digest is over instance content only, so it is stable across",
          "machines and Python versions)")

    print("\nA few instances:")
    for inst in instances[:2] + instances[2100:2101]:
        print(f"  {inst.id}: n={inst.graph.n}, query={inst.query!r}, "
              f"gold={inst.gold.value!r}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.jsonl"
        save_dataset(instances, path)
        print(f"\nsaved to JSONL ({path.stat().st_size // 1024} KiB)")
        # Checks the schema version and, by default, recomputes every gold
        # answer through verify_gold_answers; the digest is not checked.
        reloaded = load_dataset(path)
        print("reload + full gold-answer verification: ok")
        print(f"round trip is lossless: {reloaded == instances}")


if __name__ == "__main__":
    main()
