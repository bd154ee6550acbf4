"""Pointing the harness at a real chat-completions endpoint.

The HTTP backend speaks the ubiquitous chat-completions JSON shape. The API
key is read from an environment variable (GRAPHBENCH_API_KEY by default) —
never from a file — and requests retry with exponential backoff on rate
limits and transient server errors.

Without the environment variable set, this demo prints the recipe and exits;
with it set, it evaluates a handful of small instances against your endpoint.

Equivalent CLI invocation:

    graphbench generate --seed 0 --out dataset.jsonl
    graphbench run --dataset dataset.jsonl --backend http \\
        --endpoint https://api.example.com/v1/chat/completions \\
        --model my-model --strategy k-shot --shots 2 \\
        --cache responses.jsonl --out results/
    graphbench report --records results/records.jsonl --format markdown
"""

import os
import sys

from graphbench import (
    HttpChatBackend,
    ModelConfig,
    SMALL,
    Strategy,
    Task,
    aggregate_report,
    build_instances,
    evaluate_response,
    render_markdown,
    render_prompt,
    run_prompts,
)

ENDPOINT = os.environ.get("GRAPHBENCH_ENDPOINT",
                          "https://api.example.com/v1/chat/completions")
MODEL = os.environ.get("GRAPHBENCH_MODEL", "my-model")


def main():
    if "GRAPHBENCH_API_KEY" not in os.environ:
        print("GRAPHBENCH_API_KEY is not set, so no request will be made.\n")
        print("To run against a live endpoint:")
        print("  export GRAPHBENCH_API_KEY=...   # the only way keys enter the harness")
        print("  export GRAPHBENCH_ENDPOINT=https://api.example.com/v1/chat/completions")
        print("  export GRAPHBENCH_MODEL=my-model")
        print(f"  python {sys.argv[0]}")
        return

    cfg = ModelConfig(model=MODEL, endpoint=ENDPOINT, temperature=0.0)
    backend = HttpChatBackend()
    strategy = Strategy.k_shot(2)

    instances = build_instances(Task.CYCLE_CHECK, SMALL, master_seed=0, graph_count=3)
    bundles = [render_prompt(inst, strategy) for inst in instances]
    print(f"sending {len(bundles)} prompts to {ENDPOINT} as {MODEL} ...")
    results = run_prompts(bundles, backend, cfg=cfg, parallel=2)

    records = []
    for inst, (transcript, _) in zip(instances, results):
        records.append(evaluate_response(
            inst, strategy, transcript.text, backend_error=transcript.error or "",
        ))
    print(render_markdown(aggregate_report(records)))


if __name__ == "__main__":
    main()
