"""Command-line interface: generate, render, run, score, report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

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
    aggregate_report,
    emit_report,
    evaluate_response,
    load_records,
    save_records,
)
from .graphs import ALL_BUCKETS, BUCKETS, SizeBucket
from .prompts import (
    DEFAULT_EXEMPLAR_SEED,
    PseudocodeStyle,
    parse_strategy,
    render_prompt,
)
from .tasks import ALL_TASKS, Task

T = TypeVar("T")


def _parse_selection(tokens: Sequence[str], lookup: Callable[[str], T],
                     everything: Iterable[T]) -> list[T]:
    """Resolve space- or comma-separated names, each selection kept once.

    No names, or 'all' among them, selects everything.
    """
    names = [name for token in tokens for name in token.replace(",", " ").split()]
    if not names or "all" in names:
        return list(everything)
    return list(dict.fromkeys(map(lookup, names)))


def _task(name: str) -> Task:
    try:
        return Task(name.replace("-", "_"))
    except ValueError:
        raise SystemExit(f"error: unknown task {name!r}")


def _bucket(name: str) -> SizeBucket:
    bucket = BUCKETS.get(name.upper())
    if bucket is None:
        raise SystemExit(f"error: unknown bucket {name!r} (expected S, M, or L)")
    return bucket


def _load_for_eval(args: argparse.Namespace) -> list[ds.TaskInstance]:
    """Load the dataset's selected cells; --limit caps instances per (task, bucket) cell."""
    instances = ds.load_dataset(args.dataset, verify=not args.no_verify)
    tasks = set(_parse_selection(args.tasks, _task, ALL_TASKS))
    buckets = set(_parse_selection(args.buckets, _bucket, ALL_BUCKETS))
    kept = []
    per_cell: dict[tuple[Task, SizeBucket], int] = {}
    for inst in instances:
        if inst.task not in tasks or inst.bucket not in buckets:
            continue
        cell = (inst.task, inst.bucket)
        if args.limit is not None and per_cell.get(cell, 0) >= args.limit:
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


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_tokens(args: argparse.Namespace, config: dict[str, str]) -> list[str]:
    """Spell config values as command-line flags for argparse to type and check.

    ``args`` is the command line parsed without the config: its attributes
    name the keys the subcommand accepts, and a value's type tells a flag
    (bool) or a list apart from a single-valued option.
    """
    unknown = config.keys() - (vars(args).keys() - {"command", "func", "config"})
    if unknown:
        raise SystemExit(f"error: unknown config keys: {', '.join(sorted(unknown))}")
    tokens = []
    for key, raw in config.items():
        flag = "--" + key.replace("_", "-")
        current = getattr(args, key)
        if isinstance(current, bool):
            value = _BOOLEANS.get(raw.lower())
            if value is None:
                raise SystemExit(f"error: config key {key}: expected a boolean, got {raw!r}")
            if value:
                tokens.append(flag)
        elif isinstance(current, list):
            tokens += [flag, *raw.split()] if raw.split() else []
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


# --- commands -------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    tasks = _parse_selection(args.tasks, _task, ALL_TASKS)
    buckets = _parse_selection(args.buckets, _bucket, ALL_BUCKETS)
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
    failures = aggregate_report(records).failures
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
    report = aggregate_report(records)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="key=value defaults file; explicit flags win")
    add_parser = partial(sub.add_parser, parents=[common])

    p_gen = add_parser("generate", help="generate a benchmark dataset")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed")
    p_gen.add_argument("--out", required=True, help="output dataset JSONL path")
    p_gen.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")
    p_gen.add_argument("--graphs-per-cell", type=int, default=ds.GRAPHS_PER_CELL)
    _add_selection_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_render = add_parser("render", help="render prompts without calling a model")
    _add_eval_flags(p_render)
    p_render.add_argument("--out", required=True, help="output prompts JSONL path")
    p_render.set_defaults(func=cmd_render)

    p_run = add_parser("run", help="render prompts, query a backend, score results")
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

    p_score = add_parser("score", help="re-score saved transcripts offline")
    p_score.add_argument("--dataset", required=True)
    p_score.add_argument("--transcripts", required=True)
    p_score.add_argument("--out", required=True, help="output records JSONL path")
    p_score.add_argument("--label-base", type=int, default=None, choices=(0, 1))
    p_score.add_argument("--no-verify", action="store_true")
    p_score.set_defaults(func=cmd_score)

    p_report = add_parser("report", help="aggregate records into an accuracy table")
    p_report.add_argument("--records", nargs="+", required=True,
                          help="one or more records JSONL files")
    p_report.add_argument("--format", default="markdown", choices=("markdown", "md", "csv"))
    p_report.add_argument("--out", default=None, help="write here instead of stdout")
    p_report.add_argument("--no-flag-best", action="store_true",
                          help="do not bold the best cell per task column")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # Config flags go before the user's, so flags given explicitly win.
        tokens = _config_tokens(args, _load_config(args.config))
        rest = argv[argv.index(args.command) + 1:]
        args = parser.parse_args([args.command, *tokens, *rest])
    try:
        return args.func(args)
    except (ClientError, ds.DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
