"""Ablations: how many worked examples, and which pseudo-code style.

Two knobs the harness exposes for sweeps:

  * k-shot with k = 1..5 — more worked examples per prompt;
  * Pseudo under three styles — python-like, plain-language, or
    multi-function listings of the same algorithm.

This demo drives both sweeps with the mock oracle, so every accuracy is
100 by construction: the point is the plumbing — one run per configuration,
merged into a single table keyed by strategy name.
"""

from graphbench import (
    PseudocodeStyle,
    SMALL,
    Strategy,
    Task,
    aggregate_report,
    build_instances,
    evaluate_response,
    make_backend,
    render_csv,
    render_markdown,
    render_prompt,
    run_prompts,
)

TASKS = (Task.EDGE_COUNT, Task.CYCLE_CHECK, Task.TOPOLOGICAL_SORT)


def run_strategy(instances, strategy):
    backend = make_backend("mock:oracle")
    bundles = [render_prompt(inst, strategy) for inst in instances]
    return [
        evaluate_response(inst, strategy, transcript.text)
        for inst, (transcript, _) in zip(instances, run_prompts(bundles, backend))
    ]


def main():
    instances = []
    for task in TASKS:
        instances.extend(build_instances(task, SMALL, master_seed=0, graph_count=3))

    print("== shots sweep: one row per k ==")
    records = []
    for k in range(1, 6):
        records.extend(run_strategy(instances, Strategy.k_shot(k)))
    print(render_markdown(aggregate_report(records), flag_best=False))

    print("== style sweep: same Pseudo strategy, three listings ==")
    for style in PseudocodeStyle:
        records = run_strategy(instances, Strategy.pseudo(style))
        report = aggregate_report(records)
        row = render_csv(report).splitlines()[1:]
        print(f"  style={style.value}:")
        for line in row:
            print(f"    {line}")


if __name__ == "__main__":
    main()
