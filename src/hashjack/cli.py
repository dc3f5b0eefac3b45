"""Command line entry points.

Every subcommand operates on a run directory (``--run-dir``, default the
current directory) except ``synth``, which writes wherever it is told.
Global flags may be given before or after the subcommand. A stage is
added in one place, its record in the table ``pipeline.STAGES``: the stage
subcommands and ``pipeline`` take their stage flags from it and run each
stage through one loop over it (``_run_stages``), so ``pipeline`` prints
the same line per stage. A stage's own subcommand, where it has one, is a
``_stage_parser`` call, which adds its flags and an ``--out`` passed only
when given, so the stage function's default is the one that names each
output. Exit codes: 0 success, 2 usage, input or stage errors and any
OSError (a path that cannot be read or written), 1 internal errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline as pl
from .errors import HashjackError, StageError
from .store import compact_text, write_text_atomic

synth = pl.lazy_module("synth")
DEFAULT_SEED = 42


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


def _stage_parser(sub, common, stage: str, text: str, out_help=None, command=None):
    """The subcommand (`stage` unless `command` is given) that runs `stage`,
    with `text` as its help, the stage's flags and then `--out` (its help
    `out_help`), which is absent from the parsed arguments unless given."""
    p = sub.add_parser(command or stage, parents=[common], help=text)
    p.set_defaults(stages=[stage])
    for name, spec in pl.STAGES[stage].flags.items():
        if name == "--input":  # a subcommand takes its input file as a positional
            p.add_argument("input", help=spec["help"])
        else:
            p.add_argument(name, **spec)
    p.add_argument("--out", default=argparse.SUPPRESS, help=out_help)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="hashjack",
        description="Polarisation and hashtag-hijacking analysis of retweet networks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    _stage_parser(sub, common, "ingest", "validate and normalize a corpus into the run directory",
                  "store subdirectory")
    _stage_parser(sub, common, "build", "build per-hashtag retweet networks",
                  "network subdirectory")
    p = _stage_parser(sub, common, "communities", "cluster networks", "partition subdirectory")
    p.add_argument("--network", metavar="TAG", help="one network (default: all built)")

    label = sub.add_parser("label", parents=[common], help="pro/contra community labeling")
    label_sub = label.add_subparsers(dest="action", metavar="action", required=True)
    p = label_sub.add_parser(
        "report", parents=[common],
        help="print the most retweeted accounts per community",
    )
    p.add_argument("--network", required=True, metavar="TAG")
    p.add_argument("--top", type=int, default=50, help="accounts per community")
    _stage_parser(label_sub, common, "label", "apply seed lists and manual overrides",
                  "labeling subdirectory", command="apply")
    _stage_parser(sub, common, "polarisation", "pro/contra share profiles")
    _stage_parser(sub, common, "odds", "hashtag-hijacking odds matrix")
    _stage_parser(sub, common, "activity", "activity concentration curves")
    _stage_parser(sub, common, "report", "bundle results and figure CSVs")

    p = sub.add_parser("export", parents=[common], help="write a GEXF file for Gephi")
    p.add_argument("--network", required=True, metavar="TAG")
    p.add_argument("--gexf", required=True, metavar="FILE")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--truth", metavar="FILE", help="write planted ground truth here")

    p = sub.add_parser("pipeline", parents=[common], help="run several stages in order")
    p.add_argument("stages", nargs="+", metavar="stage",
                   help="stage names, e.g. ingest build communities")
    flags = {}  # each flag once, as the first stage that takes it gives it
    for stage in pl.STAGES.values():
        for name, spec in stage.flags.items():
            flags.setdefault(name, {**spec, "required": False})
    for name, spec in flags.items():
        p.add_argument(name, **spec)
    return parser


def _run_synth(args, fmt: str, seed: int | None) -> int:
    config = synth.SynthConfig.from_dict(pl.load_user_json(args.config))
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
    corpus, truth = synth.generate(config)
    # the corpus goes to the temporary file a chunk at a time
    write_text_atomic(out, lambda sink: synth.write_corpus(corpus, sink, fmt))
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


def _run_stages(run, args) -> None:
    """Run the stages `args.stages` names in table order, printing a line each.

    A subcommand passes --out only when given and `pipeline` has none, so
    by default each stage writes where its stage function's default says.
    `pipeline` leaves every stage flag optional, so a stage refuses to run
    without one it requires.
    """
    for name in args.stages:
        if name not in pl.STAGES:
            known = ", ".join(pl.STAGES)
            raise StageError(f"unknown pipeline stage {name!r}; choose from: {known}")
    defaults = {"seed": DEFAULT_SEED, "strict": False, "format": "jsonl"}
    given = argparse.Namespace(**{**defaults, **vars(args)})
    out = {"out": args.out} if "out" in args else {}
    for stage in [stage for stage in pl.STAGES.values() if stage.name in args.stages]:
        for name, spec in stage.flags.items():
            if spec.get("required") and getattr(given, name[2:].replace("-", "_")) is None:
                raise StageError(f"pipeline stage {stage.name} needs {name}")
        result = stage.call(run, given, **out)
        if stage.view:
            detail = f"-> {result}"
        elif not result[0]:
            detail = "up to date"
        else:
            dest = result[1]["params"]["out"]
            detail = f"{stage.count(result[1])} -> {dest}/" if stage.count else f"-> {dest}"
        print(f"{stage.name}: {detail}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = pl.RunDir(getattr(args, "run_dir", "."))
    if args.command == "synth":
        return _run_synth(args, getattr(args, "format", "jsonl"), getattr(args, "seed", None))
    if args.command == "export":
        print(f"export: -> {pl.write_gexf(run, args.network, args.gexf)}")
    elif "stages" in args:  # `pipeline` or a stage's subcommand
        _run_stages(run, args)
    else:  # label report
        sys.stdout.write(pl.label_report(run, args.network, top=args.top))
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
