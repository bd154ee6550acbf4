"""Command-line interface: generate, render, run, score, report."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import dataset as ds
from .client import (
    ClientError,
    ModelConfig,
    Outcome,
    ResponseCache,
    Transcript,
    make_backend,
    run_prompts,
)
from .evaluate import (
    EvalRecord,
    FailureKind,
    aggregate_report,
    emit_report,
    evaluate_response,
    iter_records,
    read_rows,
    row_line,
    save_records,
    write_rows,
)
from .graphs import ALL_BUCKETS, BUCKETS, SizeBucket
from .prompts import (
    DEFAULT_EXEMPLAR_SEED,
    STRATEGY_SPECS,
    PseudocodeStyle,
    parse_strategy,
    render_prompt,
    strategy_named,
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


def _count(text: str, least: int = 0) -> int:
    if not text.isdecimal() or int(text) < least:
        raise argparse.ArgumentTypeError(f"expected a count of {least} or more, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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


def _load_dataset(args: argparse.Namespace) -> list[ds.TaskInstance]:
    """``load_dataset``, naming the file before a fault's ``line N:`` or ``instance ID:``."""
    try:
        return ds.load_dataset(args.dataset, verify=not args.no_verify)
    except ds.DatasetFormatError as exc:
        raise ds.DatasetFormatError(f"{args.dataset}: {exc}") from exc


def _load_for_eval(args: argparse.Namespace) -> list[ds.TaskInstance]:
    """Load the dataset's selected cells; --limit caps instances per (task, bucket) cell.
    Selecting every standard bucket keeps the buckets that only the file names too."""
    instances = _load_dataset(args)
    tasks = set(_parse_selection(args.tasks, _task, ALL_TASKS))
    buckets = set(_parse_selection(args.buckets, _bucket, ALL_BUCKETS))
    every_bucket = buckets == set(ALL_BUCKETS)
    kept = []
    per_cell: dict[tuple[Task, SizeBucket], int] = {}
    for inst in instances:
        if inst.task not in tasks or not (every_bucket or inst.bucket in buckets):
            continue
        cell = (inst.task, inst.bucket)
        if args.limit is not None and per_cell.get(cell, 0) >= args.limit:
            continue
        per_cell[cell] = per_cell.get(cell, 0) + 1
        kept.append(inst)
    return kept


def _score(instances: Sequence[ds.TaskInstance], transcripts: str | Path,
           out: str | Path) -> dict[str, int]:
    """Score each transcripts row against the instance its id names, writing each
    record to ``out`` as it is made and keeping none; print and return the count per
    failure kind (``none`` counts the correct ones). A row naming an unknown instance
    or strategy, or repeating an (instance, strategy) pair, stops it with
    ``FILE:LINE`` and leaves ``out`` as it was. No label base means the task's default."""
    position = {inst.id: i for i, inst in enumerate(instances)}
    scored: dict[str, bytearray] = {}  # one flag per instance, per strategy name
    failures = {kind.value: 0 for kind in FailureKind}

    def records() -> Iterator[EvalRecord]:
        for lineno, t in read_rows(transcripts, Transcript.from_row, "transcripts row"):
            i = position.get(t.instance_id)
            if i is None:
                raise SystemExit(f"error: {transcripts}:{lineno}: "
                                 f"unknown instance {t.instance_id!r}")
            try:
                strategy = strategy_named(t.strategy)
            except ValueError as exc:
                raise ValueError(f"{transcripts}:{lineno}: {exc}") from None
            name = strategy.display_name
            flags = scored.get(name) or scored.setdefault(name, bytearray(len(instances)))
            if flags[i]:
                raise ValueError(f"{transcripts}:{lineno}: duplicate record for "
                                 f"{(t.instance_id, name)}")
            flags[i] = 1
            rec = evaluate_response(instances[i], strategy, t.text,
                                    label_base=t.label_base, backend_error=t.error or "")
            failures[rec.failure.value] += 1
            yield rec

    save_records(records(), out)
    print(f"{failures['none']}/{sum(failures.values())} correct "
          f"({failures['extraction_failed']} extraction failures, "
          f"{failures['backend_error']} backend errors)")
    return failures


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
    out = Path(args.out)
    manifest_path = out.with_suffix(".manifest.json")
    # An older manifest goes before the new dataset replaces the older one, so
    # an interrupt leaves either no manifest or one that names the dataset.
    manifest_path.unlink(missing_ok=True)
    manifest = ds.write_dataset(
        out, args.seed, tasks=tasks, buckets=buckets, graphs_per_cell=args.graphs_per_cell
    )
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
    strategy = parse_strategy(args.strategy, args.shots, PseudocodeStyle(args.style))
    instances = _load_for_eval(args)
    bundles = (render_prompt(inst, strategy, args.exemplar_seed, args.label_base)
               for inst in instances)
    write_rows(({"instance_id": b.instance_id, "strategy": strategy.display_name,
                 "label_base": b.label_base, "text": b.text} for b in bundles), args.out)
    print(f"rendered {len(instances)} prompts to {Path(args.out)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    strategy = parse_strategy(args.strategy, args.shots, PseudocodeStyle(args.style))
    backend = make_backend(args.backend, cache_path=args.cache, parallel=args.parallel)
    if args.backend == "http" and not args.endpoint:
        raise ClientError("http backend requires an endpoint URL")
    instances = _load_for_eval(args)
    if not instances:
        raise SystemExit("error: no instances selected")
    cfg = ModelConfig(model=args.model, endpoint=args.endpoint,
                      temperature=args.temperature, max_tokens=args.max_tokens)
    cache = None
    if args.cache and args.backend != "replay":
        cache = ResponseCache(args.cache)

    bundles = [render_prompt(inst, strategy, args.exemplar_seed, args.label_base)
               for inst in instances]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # An older run's records and summary go before the first row is written,
    # so an interrupt never leaves them beside this run's transcripts.
    for name in ("records.jsonl", "summary.json"):
        (outdir / name).unlink(missing_ok=True)
    transcripts, hits = outdir / "transcripts.jsonl", 0

    def write(outcome: Outcome) -> None:
        nonlocal hits
        hits += outcome[0].cached
        fh.write(row_line(outcome[0].to_row()))
        fh.flush()  # on disk before the next prompt goes out

    try:
        with transcripts.open("w", encoding="utf-8") as fh:
            run_prompts(bundles, backend, cfg, cache, parallel=args.parallel, sink=write)
    finally:
        if cache is not None:
            cache.close()
    del bundles, backend, cache  # a replay backend holds a whole cache

    # Scored from the rows on disk by ``score``'s code, once the cache is gone.
    failures = _score(instances, transcripts, outdir / "records.jsonl")

    total = sum(failures.values())
    summary = {
        "dataset": str(args.dataset),
        "backend": args.backend,
        "model": args.model,
        "strategy": strategy.display_name,
        "total": total,
        "correct": failures["none"],
        "accuracy": failures["none"] / total,
        "failures": failures,
        "cache_hits": hits,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"results: {outdir}")
    return 2 if failures["backend_error"] else 0


def cmd_score(args: argparse.Namespace) -> int:
    _score(_load_dataset(args), args.transcripts, args.out)
    print(f"records: {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = aggregate_report(rec for path in args.records for rec in iter_records(path))
    if not report.cells:
        raise ValueError(f"no records in {' '.join(args.records)}")
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
    p.add_argument("--limit", type=_count, default=None,
                   help="cap instances per (task, bucket) cell")
    p.add_argument("--strategy", default="0-shot", help=", ".join(
        s.display.lower().replace("{k}", "k") for s in STRATEGY_SPECS.values()))
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
    p_gen.add_argument("--graphs-per-cell", type=_count, default=ds.GRAPHS_PER_CELL)
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
    p_run.add_argument("--temperature", type=_finite, default=0.0)
    p_run.add_argument("--max-tokens", type=partial(_count, least=1), default=4096)
    p_run.add_argument("--cache", default=None,
                       help="response cache JSONL (replay reads it; other backends append)")
    p_run.add_argument("--parallel", type=partial(_count, least=1), default=1)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_score = add_parser("score", help="re-score saved transcripts offline")
    p_score.add_argument("--dataset", required=True)
    p_score.add_argument("--transcripts", required=True)
    p_score.add_argument("--out", required=True, help="output records JSONL path")
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
    try:
        if args.config is not None:
            # Config flags go before the user's, so flags given explicitly win.
            tokens = _config_tokens(args, _load_config(args.config))
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *tokens, *rest])
        return args.func(args)
    except (ClientError, ds.DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
