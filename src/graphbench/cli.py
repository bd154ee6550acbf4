"""Command-line interface: generate, render, run, score, report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import dataset as ds
from .client import (
    ClientError,
    ModelConfig,
    ResponseCache,
    make_backend,
    run_prompts,
)
from .evaluate import (
    EvalRecord,
    FailureKind,
    aggregate_report,
    emit_report,
    evaluate_response,
    load_records,
    save_records,
)
from .graphs import ALL_BUCKETS, SizeBucket
from .prompts import (
    DEFAULT_EXEMPLAR_SEED,
    PseudocodeStyle,
    parse_strategy,
    render_prompt,
)
from .tasks import ALL_TASKS, Task


def _parse_tasks(tokens: Sequence[str]) -> list[Task]:
    names: list[str] = []
    for token in tokens:
        names.extend(t for t in token.replace(",", " ").split() if t)
    if not names or "all" in names:
        return list(ALL_TASKS)
    out = []
    for name in names:
        try:
            out.append(Task(name.replace("-", "_")))
        except ValueError:
            raise SystemExit(f"error: unknown task {name!r}")
    return out


def _parse_buckets(tokens: Sequence[str]) -> list[SizeBucket]:
    names: list[str] = []
    for token in tokens:
        names.extend(t for t in token.replace(",", " ").split() if t)
    if not names or "all" in names:
        return list(ALL_BUCKETS)
    by_name = {b.name: b for b in ALL_BUCKETS}
    out = []
    for name in names:
        bucket = by_name.get(name.upper())
        if bucket is None:
            raise SystemExit(f"error: unknown bucket {name!r} (expected S, M, or L)")
        out.append(bucket)
    return out


def _filter_instances(
    instances: list[ds.TaskInstance],
    tasks: list[Task],
    buckets: list[SizeBucket],
    limit: Optional[int],
) -> list[ds.TaskInstance]:
    """Keep selected cells; limit caps instances per (task, bucket) cell."""
    task_set = {t.value for t in tasks}
    bucket_set = {b.name for b in buckets}
    kept = []
    per_cell: dict[tuple[str, str], int] = {}
    for inst in instances:
        if inst.task.value not in task_set or inst.bucket.name not in bucket_set:
            continue
        cell = (inst.task.value, inst.bucket.name)
        if limit is not None and per_cell.get(cell, 0) >= limit:
            continue
        per_cell[cell] = per_cell.get(cell, 0) + 1
        kept.append(inst)
    return kept


# --- config files ---------------------------------------------------------------


def _load_config(path: str) -> dict[str, str]:
    """key=value per line; blank lines and # comments ignored."""
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"error: {path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Use config values as defaults; command-line flags still win."""
    known = {}
    for action in parser._actions:
        if action.dest not in ("help", "config"):
            known[action.dest] = action
    unknown = set(config) - set(known)
    if unknown:
        raise SystemExit(f"error: unknown config keys: {', '.join(sorted(unknown))}")
    defaults = {}
    for dest, raw in config.items():
        action = known[dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = raw.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise SystemExit(f"error: config key {dest}: expected a boolean, got {raw!r}")
            defaults[dest] = lowered in ("true", "1", "yes")
        elif action.nargs in ("+", "*"):
            defaults[dest] = raw.split()
        elif action.type is not None:
            try:
                defaults[dest] = action.type(raw)
            except ValueError:
                raise SystemExit(f"error: config key {dest}: bad value {raw!r}")
        else:
            defaults[dest] = raw
    parser.set_defaults(**defaults)


# --- subcommands ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    tasks = _parse_tasks(args.tasks)
    buckets = _parse_buckets(args.buckets)
    manifest, instances = ds.assemble_dataset(
        args.seed, tasks=tasks, buckets=buckets, graphs_per_cell=args.graphs_per_cell
    )
    out = Path(args.out)
    ds.save_dataset(instances, out)
    manifest_path = Path(args.manifest) if args.manifest else out.with_suffix(".manifest.json")
    ds.save_manifest(manifest, manifest_path)
    for task in tasks:
        for bucket in buckets:
            print(f"{task.value} {bucket.name}: {manifest.counts[task.value][bucket.name]}")
    print(f"total: {manifest.total}")
    print(f"content digest: {manifest.content_digest}")
    print(f"dataset: {out}")
    print(f"manifest: {manifest_path}")
    return 0


def _load_for_eval(args: argparse.Namespace) -> list[ds.TaskInstance]:
    instances = ds.load_dataset(args.dataset, verify=not args.no_verify)
    return _filter_instances(
        instances, _parse_tasks(args.tasks), _parse_buckets(args.buckets), args.limit
    )


def cmd_render(args: argparse.Namespace) -> int:
    instances = _load_for_eval(args)
    strategy = parse_strategy(args.strategy, args.shots, PseudocodeStyle(args.style))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for inst in instances:
            bundle = render_prompt(inst, strategy, args.exemplar_seed, args.label_base)
            fh.write(json.dumps({
                "instance_id": bundle.instance_id,
                "strategy": strategy.display_name,
                "label_base": bundle.label_base,
                "text": bundle.text,
            }, sort_keys=True) + "\n")
    print(f"rendered {len(instances)} prompts to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    instances = _load_for_eval(args)
    if not instances:
        raise SystemExit("error: no instances selected")
    strategy = parse_strategy(args.strategy, args.shots, PseudocodeStyle(args.style))
    cfg = ModelConfig(
        model=args.model,
        endpoint=args.endpoint,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )
    backend = make_backend(args.backend, instances, cache_path=args.cache)
    cache = None
    if args.cache and args.backend != "replay":
        cache = ResponseCache(args.cache)

    bundles = [render_prompt(inst, strategy, args.exemplar_seed, args.label_base)
               for inst in instances]
    try:
        outcomes = run_prompts(bundles, backend, cfg, cache, parallel=args.parallel)
    finally:
        if cache is not None:
            cache.close()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    records: list[EvalRecord] = []
    cache_hits = 0
    with (outdir / "transcripts.jsonl").open("w", encoding="utf-8") as fh:
        for inst, bundle, (transcript, error) in zip(instances, bundles, outcomes):
            if transcript is not None:
                cache_hits += int(transcript.cached)
                fh.write(json.dumps({
                    "instance_id": inst.id,
                    "strategy": strategy.display_name,
                    "prompt_hash": transcript.prompt_hash,
                    "model": transcript.model,
                    "backend": transcript.backend,
                    "text": transcript.text,
                }, sort_keys=True) + "\n")
            records.append(evaluate_response(
                inst,
                strategy,
                transcript.text if transcript is not None else None,
                label_base=args.label_base,
                backend_error=str(error) if error is not None else "",
            ))
    save_records(records, outdir / "records.jsonl")

    correct = sum(r.correct for r in records)
    failures = {k.value: 0 for k in FailureKind}
    for rec in records:
        failures[rec.failure.value] += 1
    summary = {
        "dataset": str(args.dataset),
        "backend": args.backend,
        "model": args.model,
        "strategy": strategy.display_name,
        "total": len(records),
        "correct": correct,
        "accuracy": correct / len(records),
        "failures": failures,
        "cache_hits": cache_hits,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{correct}/{len(records)} correct "
          f"({failures['extraction_failed']} extraction failures, "
          f"{failures['backend_error']} backend errors)")
    print(f"results: {outdir}")
    return 2 if failures["backend_error"] else 0


def cmd_score(args: argparse.Namespace) -> int:
    instances = ds.load_dataset(args.dataset, verify=not args.no_verify)
    by_id = ds.instances_by_id(instances)
    records = []
    with Path(args.transcripts).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            inst = by_id.get(row["instance_id"])
            if inst is None:
                raise SystemExit(
                    f"error: {args.transcripts}:{lineno}: unknown instance "
                    f"{row['instance_id']!r}"
                )
            strategy = parse_strategy(row["strategy"])
            records.append(evaluate_response(inst, strategy, row["text"],
                                             label_base=args.label_base))
    save_records(records, args.out)
    correct = sum(r.correct for r in records)
    print(f"{correct}/{len(records)} correct, records: {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records: list[EvalRecord] = []
    for path in args.records:
        records.extend(load_records(path))
    report = aggregate_report(records, metadata={"sources": list(args.records)})
    text = emit_report(report, fmt=args.format, flag_best=not args.no_flag_best)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report: {args.out}")
    else:
        print(text, end="")
    return 0


# --- parser wiring ---------------------------------------------------------------


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tasks", nargs="+", default=["all"],
                   help="task names or 'all' (default: all)")
    p.add_argument("--buckets", nargs="+", default=["all"],
                   help="size buckets S M L or 'all' (default: all)")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="dataset JSONL path")
    _add_selection_flags(p)
    p.add_argument("--limit", type=int, default=None,
                   help="cap instances per (task, bucket) cell")
    p.add_argument("--strategy", default="0-shot",
                   help="0-shot, k-shot, bag, 0-cot, pseudo, pseudo+k-shot")
    p.add_argument("--shots", type=int, default=1, help="k for the k-shot strategies")
    p.add_argument("--style", default="plain",
                   choices=[s.value for s in PseudocodeStyle],
                   help="pseudo-code style for the pseudo strategies")
    p.add_argument("--exemplar-seed", type=int, default=DEFAULT_EXEMPLAR_SEED)
    p.add_argument("--label-base", type=int, default=None, choices=(0, 1),
                   help="node label base in prompts (default: per-task convention)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip gold-answer verification when loading the dataset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbench",
        description="Deterministic graph-reasoning benchmark generator and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a benchmark dataset")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed")
    p_gen.add_argument("--out", required=True, help="output dataset JSONL path")
    p_gen.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")
    p_gen.add_argument("--graphs-per-cell", type=int, default=ds.GRAPHS_PER_CELL)
    _add_selection_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_render = sub.add_parser("render", help="render prompts without calling a model")
    _add_eval_flags(p_render)
    p_render.add_argument("--out", required=True, help="output prompts JSONL path")
    p_render.set_defaults(func=cmd_render)

    p_run = sub.add_parser("run", help="render prompts, query a backend, score results")
    _add_eval_flags(p_run)
    p_run.add_argument("--backend", default="mock:oracle",
                       help="mock:oracle, mock:adversary, replay, or http")
    p_run.add_argument("--model", default="mock")
    p_run.add_argument("--endpoint", default="", help="chat-completions URL for http")
    p_run.add_argument("--temperature", type=float, default=0.0)
    p_run.add_argument("--max-tokens", type=int, default=4096)
    p_run.add_argument("--cache", default=None,
                       help="response cache JSONL (replay reads it; other backends append)")
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="re-score saved transcripts offline")
    p_score.add_argument("--dataset", required=True)
    p_score.add_argument("--transcripts", required=True)
    p_score.add_argument("--out", required=True, help="output records JSONL path")
    p_score.add_argument("--label-base", type=int, default=None, choices=(0, 1))
    p_score.add_argument("--no-verify", action="store_true")
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="aggregate records into an accuracy table")
    p_report.add_argument("--records", nargs="+", required=True,
                          help="one or more records JSONL files")
    p_report.add_argument("--format", default="markdown", choices=("markdown", "md", "csv"))
    p_report.add_argument("--out", default=None, help="write here instead of stdout")
    p_report.add_argument("--no-flag-best", action="store_true",
                          help="do not bold the best cell per task column")
    p_report.set_defaults(func=cmd_report)

    subcommands = {
        "generate": p_gen,
        "render": p_render,
        "run": p_run,
        "score": p_score,
        "report": p_report,
    }
    for p in subcommands.values():
        p.add_argument("--config", default=None,
                       help="key=value defaults file; explicit flags win")
    parser.subcommands = subcommands  # type: ignore[attr-defined]
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Pre-scan for --config so its values become parser defaults before the
    # real parse; anything given explicitly on the command line still wins.
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            parser.error("--config requires a path")
        config = _load_config(argv[idx + 1])
        command = next((a for a in argv if not a.startswith("-")), None)
        subparser = parser.subcommands.get(command)  # type: ignore[attr-defined]
        if subparser is not None:
            _apply_config(subparser, config)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClientError, ds.DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
