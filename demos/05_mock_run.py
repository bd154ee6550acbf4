"""End-to-end evaluation, fully offline.

Two built-in mock backends bracket the harness: mock:oracle answers every
prompt correctly (the pipeline must score it at 100%), mock:adversary
answers with plausible near-misses (it must score 0%). Anything between
those rails in a real run is signal about the model, not about the harness.

Responses are cached to JSONL; a replay backend re-serves the cache so a
run can be re-scored forever without touching the network.
"""

import tempfile
from contextlib import closing
from pathlib import Path

from graphbench import (
    MEDIUM,
    SMALL,
    Strategy,
    Task,
    aggregate_report,
    build_instances,
    evaluate_response,
    make_backend,
    render_markdown,
    render_prompt,
    ResponseCache,
    run_prompts,
)


def evaluate(instances, strategy, backend, cache=None):
    bundles = [render_prompt(inst, strategy) for inst in instances]
    results = run_prompts(bundles, backend, cache=cache)
    records = []
    for inst, (transcript, error) in zip(instances, results):
        records.append(evaluate_response(
            inst, strategy,
            transcript.text if transcript else None,
            backend_error=str(error) if error else "",
        ))
    return records


def main():
    instances = []
    for task in (Task.CYCLE_CHECK, Task.NODE_DEGREE, Task.SHORTEST_PATH):
        for bucket in (SMALL, MEDIUM):
            instances.extend(build_instances(task, bucket, master_seed=0, graph_count=2))
    print(f"{len(instances)} instances, 2 strategies, 2 backends\n")

    expectations = {"mock:oracle": "100", "mock:adversary": "0"}
    for name, expected in expectations.items():
        records = []
        for strategy in (Strategy.zero_shot(), Strategy.k_shot(2)):
            backend = make_backend(name, instances)
            records.extend(evaluate(instances, strategy, backend))
        print(f"{name} — every cell must read {expected}:")
        print(render_markdown(aggregate_report(records), flag_best=False))

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "cache.jsonl"
        strategy = Strategy.zero_shot()
        with closing(ResponseCache(cache_path)) as cache:
            live = evaluate(instances, strategy, make_backend("mock:oracle", instances), cache)
        replayed = evaluate(instances, strategy,
                            make_backend("replay", cache_path=str(cache_path)))
        print("replayed records identical to the recorded run:",
              [r.to_json_obj() for r in live] == [r.to_json_obj() for r in replayed])


if __name__ == "__main__":
    main()
