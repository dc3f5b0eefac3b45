"""Command line entry points.

Every subcommand operates on a run directory (``--run-dir``, default the
current directory) except ``synth``, which writes wherever it is told.
Global flags may be given before or after the subcommand. The stage
subcommands and ``pipeline`` dispatch through one ``_run_stage``, so
``pipeline`` prints the same line per stage. Exit codes: 0 success,
2 usage, input or stage errors and any OSError (a path that cannot be
read or written), 1 internal errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline as pl
from .errors import HashjackError, StageError
from .store import compact_text, load_json, write_text_atomic
from .synth import SynthConfig, generate, write_corpus

DEFAULT_SEED = 42


def _split_tags(text: str) -> list[str]:
    tags = [part.strip() for part in text.split(",") if part.strip()]
    if not tags:
        raise StageError("expected a comma-separated hashtag list")
    return tags


def _split_fractions(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise StageError(f"bad fraction list: {text!r}") from None


def _load_user_json(path: str):
    try:
        obj = load_json(path)
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise StageError(f"{path} holds a lone surrogate escape") from None
    except (ValueError, RecursionError) as exc:
        raise StageError(f"{path} is not valid JSON: {exc}") from None
    return obj


def _label_requests(path: str) -> list[dict]:
    obj = _load_user_json(path)
    requests = obj if isinstance(obj, list) else [obj]
    for entry in requests:
        if not isinstance(entry, dict):
            raise StageError(f"{path}: every labels entry must be a JSON object")
    return requests


def _common_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a flag given before the subcommand from being reset
    # to a default by the subparser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--run-dir", dest="run_dir", metavar="DIR", default=argparse.SUPPRESS,
        help="run directory (default: current directory)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="random seed for clustering and synthesis (default: 42)",
    )
    common.add_argument(
        "--strict", action="store_true", default=argparse.SUPPRESS,
        help="escalate ingest data-quality warnings to errors",
    )
    common.add_argument(
        "--format", choices=("jsonl", "csv"), default=argparse.SUPPRESS,
        help="corpus file format (default: jsonl)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    # stage options that `pipeline` takes too, each with its one default
    resolution, threshold, top_k = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    resolution.add_argument("--resolution", type=float, default=1.0, help="modularity resolution")
    threshold.add_argument("--threshold", type=float, default=0.05, help="stability threshold")
    top_k.add_argument("--top-k", dest="top_k", type=int, default=100,
                       help="accounts ranked per composition")
    parser = argparse.ArgumentParser(
        prog="hashjack",
        description="Polarisation and hashtag-hijacking analysis of retweet networks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser(
        "ingest", parents=[common],
        help="validate and normalize a corpus into the run directory",
    )
    p.add_argument("input", help="JSONL or CSV event file")
    p.add_argument(
        "--tracked", required=True, metavar="TAGS",
        help='comma-separated hashtags, e.g. "#afd,#fckafd"',
    )
    p.add_argument("--out", default="store", help="store subdirectory (default: store)")

    p = sub.add_parser("build", parents=[common], help="build per-hashtag retweet networks")
    p.add_argument("--out", default="networks", help="network subdirectory")

    p = sub.add_parser("communities", parents=[common, resolution], help="cluster networks")
    p.add_argument("--network", metavar="TAG", help="one network (default: all built)")
    p.add_argument("--out", default="partitions", help="partition subdirectory")

    label = sub.add_parser("label", parents=[common], help="pro/contra community labeling")
    label_sub = label.add_subparsers(dest="action", metavar="action", required=True)
    p = label_sub.add_parser(
        "report", parents=[common],
        help="print the most retweeted accounts per community",
    )
    p.add_argument("--network", required=True, metavar="TAG")
    p.add_argument("--top", type=int, default=50, help="accounts per community")
    p = label_sub.add_parser(
        "apply", parents=[common], help="apply seed lists and manual overrides",
    )
    p.add_argument(
        "--labels", required=True, metavar="FILE",
        help="labels.json: one object or an array of them",
    )
    p.add_argument("--out", default="labels", help="labeling subdirectory")

    p = sub.add_parser("polarisation", parents=[common, threshold],
                       help="pro/contra share profiles")
    p.add_argument("--compare", metavar="FILE", help="earlier polarisation.json to diff")
    p.add_argument("--out", default="polarisation.json")

    p = sub.add_parser("odds", parents=[common], help="hashtag-hijacking odds matrix")
    p.add_argument("--targets", required=True, metavar="TAGS", help="target hashtags")
    p.add_argument("--out", default="odds.json")

    p = sub.add_parser("activity", parents=[common], help="activity concentration curves")
    p.add_argument(
        "--targets", metavar="TAGS", help="target hashtags (default: the odds targets)",
    )
    p.add_argument("--fractions", metavar="LIST", help="comma-separated top fractions")
    p.add_argument("--out", default="activity.json")

    p = sub.add_parser("report", parents=[common, top_k], help="bundle results and figure CSVs")
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("export", parents=[common], help="write a GEXF file for Gephi")
    p.add_argument("--network", required=True, metavar="TAG")
    p.add_argument("--gexf", required=True, metavar="FILE")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--truth", metavar="FILE", help="write planted ground truth here")

    p = sub.add_parser("pipeline", parents=[common, resolution, threshold, top_k],
                       help="run several stages in order")
    p.add_argument("stages", nargs="+", metavar="stage",
                   help="stage names, e.g. ingest build communities")
    p.add_argument("--input", metavar="FILE")
    p.add_argument("--tracked", metavar="TAGS")
    p.add_argument("--labels", metavar="FILE")
    p.add_argument("--targets", metavar="TAGS")
    p.add_argument("--fractions", metavar="LIST")
    p.add_argument("--compare", metavar="FILE")
    return parser


def _run_synth(args, fmt: str, seed: int | None) -> int:
    config = SynthConfig.from_dict(_load_user_json(args.config))
    if seed is not None:
        config = replace(config, seed=seed)
    out = Path(args.out)
    # refuse what either write would fail on before the first replaces a file
    if args.truth and Path(args.truth).resolve() == out.resolve():
        raise StageError(f"--out and --truth both name {out}")
    for dest in filter(None, (args.out, args.truth)):
        if Path(dest).is_dir():
            raise StageError(f"{dest} is a directory")
        ancestor = next(a for a in Path(dest).parents if a.exists())
        if not ancestor.is_dir():
            raise StageError(f"{ancestor} is not a directory")
    corpus, truth = generate(config)
    # the corpus goes to the temporary file a chunk at a time
    write_text_atomic(out, lambda sink: write_corpus(corpus, sink, fmt))
    detail = f"synth: {truth.event_count} records -> {out}"
    if args.truth:
        try:
            write_text_atomic(args.truth, compact_text(truth.to_dict()))
        except OSError:
            # a failed synth leaves neither file, even where --out held an
            # older corpus that the write above replaced
            out.unlink()
            raise
        detail += f", truth -> {args.truth}"
    print(detail)
    return 0


def _pipeline_stages(names: list[str]) -> list[str]:
    known = pl.STAGE_ORDER + ("report",)
    for stage in names:
        if stage not in known:
            raise StageError(
                f"unknown pipeline stage {stage!r}; choose from: " + ", ".join(known)
            )
    return sorted(set(names), key=known.index)


def _need(args, flag: str, stage: str):
    """A flag that `pipeline` leaves optional but `stage` requires."""
    value = getattr(args, flag)
    if value is None:
        raise StageError(f"pipeline stage {stage} needs --{flag}")
    return value


def _run_stage(stage: str, run, args, seed: int, strict: bool, fmt: str) -> None:
    """Run one stage for its subcommand or for `pipeline` and print its line.

    A subcommand passes its --out; `pipeline` has none, so each stage
    writes to its default location.
    """
    out = {"out": args.out} if "out" in args else {}
    if stage == "report":
        print(f"report: -> {pl.write_report(run, top_k=args.top_k, **out)}")
        return
    count = None  # a stage writing a directory counts what it wrote there
    if stage == "ingest":
        ran, entry = pl.stage_ingest(
            run, _need(args, "input", stage), _split_tags(_need(args, "tracked", stage)),
            fmt=fmt, strict=strict, **out,
        )
        count = f"{len(entry['outputs'])} artifacts"
    elif stage == "build":
        ran, entry = pl.stage_build(run, **out)
        count = f"{len(entry['outputs']) - 1} networks"
    elif stage == "communities":
        network = getattr(args, "network", None)
        ran, entry = pl.stage_communities(
            run, [network] if network else None, resolution=args.resolution,
            seed=seed, **out,
        )
        count = f"{len(entry['params']['networks'])} partitions"
    elif stage == "label":
        ran, entry = pl.stage_label(
            run, _label_requests(_need(args, "labels", stage)), **out
        )
        count = f"{len(entry['outputs'])} labelings"
    elif stage == "polarisation":
        ran, entry = pl.stage_polarisation(
            run, threshold=args.threshold, compare=args.compare, **out
        )
    elif stage == "odds":
        ran, entry = pl.stage_odds(run, _split_tags(_need(args, "targets", stage)), **out)
    else:
        targets = _split_tags(args.targets) if args.targets else None
        fractions = (
            _split_fractions(args.fractions) if args.fractions else pl.DEFAULT_FRACTIONS
        )
        ran, entry = pl.stage_activity(run, targets, fractions, **out)
    dest = entry["params"]["out"]
    detail = f"{count} -> {dest}/" if count else f"-> {dest}"
    print(f"{stage}: {detail}" if ran else f"{stage}: up to date")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed_given = hasattr(args, "seed")
    seed = getattr(args, "seed", DEFAULT_SEED)
    strict = getattr(args, "strict", False)
    fmt = getattr(args, "format", "jsonl")
    run = pl.RunDir(getattr(args, "run_dir", "."))
    command = args.command

    if command == "synth":
        return _run_synth(args, fmt, seed if seed_given else None)
    if command == "export":
        print(f"export: -> {pl.write_gexf(run, args.network, args.gexf)}")
    elif command == "label" and args.action == "report":
        sys.stdout.write(pl.label_report(run, args.network, top=args.top))
    else:
        stages = _pipeline_stages(args.stages) if command == "pipeline" else [command]
        for stage in stages:
            _run_stage(stage, run, args, seed, strict, fmt)
    return 0


def entrypoint(argv=None) -> int:
    # A command frees no cycle it needs freed before it ends, so the cyclic
    # collector's passes over its many containers are pure cost: off for the
    # call, then back as the caller (a test, the bench shim) had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return main(argv)
    except (HashjackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()
