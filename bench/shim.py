"""Run one hashjack CLI call in-process with timers around its layers.

Usage: python bench/shim.py TRACE_OUT.json <hashjack arguments...>

The shim imports hashjack.cli (timing the import), wraps the public
functions listed in SPANS, calls hashjack.cli.entrypoint with the remaining
arguments, writes the per-layer totals to TRACE_OUT.json and exits with the
CLI's exit code. A function is replaced in every hashjack module that holds
it, because callers look functions up where they imported them (pipeline
imports store and ingest functions by name). Times are inclusive: a span
includes the spans it calls.
"""

from __future__ import annotations

import json
import os
import sys
import time

MiB = 2**20


def _add(totals: dict, name: str, value: float) -> None:
    totals[name] = totals.get(name, 0.0) + value


def _stage(totals, args, result, elapsed):
    # Writer stages return (ran, entry); a stage that was up to date did
    # only its fingerprint and digest checks.
    if isinstance(result, tuple) and result[0] is False:
        _add(totals, "pipeline.skip_s", elapsed)
        _add(totals, "pipeline.stages_skipped", 1)
    else:
        _add(totals, "pipeline.stages_run", 1)


def _file_mb(name):
    return lambda totals, args, result, elapsed: _add(
        totals, name, os.path.getsize(args[0]) / MiB)


SPANS = [
    # (module, function, span name, extra counters or None)
    ("pipeline", "stage_ingest", "pipeline.ingest", _stage),
    ("pipeline", "stage_build", "pipeline.build", _stage),
    ("pipeline", "stage_communities", "pipeline.communities", _stage),
    ("pipeline", "stage_label", "pipeline.label", _stage),
    ("pipeline", "stage_polarisation", "pipeline.polarisation", _stage),
    ("pipeline", "stage_odds", "pipeline.odds", _stage),
    ("pipeline", "stage_activity", "pipeline.activity", _stage),
    ("pipeline", "write_report", "pipeline.report", _stage),
    ("pipeline", "write_gexf", "pipeline.export", _stage),
    ("pipeline", "label_report", "pipeline.label_report", _stage),
    ("ingest", "parse_records", "ingest.parse",
     lambda t, a, r, e: _add(t, "ingest.records_parsed", len(r[0]))),
    ("ingest", "split_streams", "ingest.split", None),
    ("ingest", "corpus_stats", "ingest.stats", None),
    ("ingest", "write_jsonl", "ingest.write", None),
    ("ingest", "write_rejects", "ingest.write", None),
    ("graph", "build_networks", "graph.build",
     lambda t, a, r, e: _add(t, "graph.edges", sum(len(n.edges) for n in r[0].values()))),
    ("graph", "undirected_projection", "graph.projection", None),
    ("community", "louvain", "community.louvain",
     lambda t, a, r, e: _add(t, "community.levels", r.levels)),
    ("community", "modularity", "community.modularity", None),
    ("labeling", "top_retweeted", "labeling.top_retweeted", None),
    ("labeling", "label_by_seeds", "labeling.label", None),
    ("labeling", "manual_labeling", "labeling.label", None),
    ("labeling", "apply_overrides", "labeling.label", None),
    ("labeling", "partisans", "labeling.partisans", None),
    ("metrics", "polarisation", "metrics.polarisation", None),
    ("metrics", "concentration", "metrics.concentration", None),
    ("metrics", "cluster_composition", "metrics.composition", None),
    ("odds", "hashjack_matrix", "odds.matrix", None),
    ("store", "dump_json", "store.dump",
     lambda t, a, r, e: _add(t, "store.written_mb", os.path.getsize(r) / MiB)),
    ("store", "load_json", "store.load", _file_mb("store.loaded_mb")),
    ("store", "registry_from_obj", "store.decode", None),
    ("store", "network_from_obj", "store.decode", None),
    ("store", "partition_from_obj", "store.decode", None),
    ("store", "labeling_from_obj", "store.decode", None),
    ("store", "file_digest", "store.digest", _file_mb("store.hashed_mb")),
    ("gexf", "gexf_document", "gexf.document",
     lambda t, a, r, e: _add(t, "gexf.out_mb", len(r.encode("utf-8")) / MiB)),
    ("synth", "generate", "synth.generate", None),
]


def _wrap(function, span: str, extra, totals: dict):
    def traced(*args, **kwargs):
        t0 = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        _add(totals, f"{span}_s", elapsed)
        _add(totals, f"{span}_calls", 1)
        if extra is not None:
            extra(totals, args, result, elapsed)
        return result

    return traced


def install(totals: dict) -> None:
    """Replace each SPANS function wherever a hashjack module holds it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "hashjack" or name.startswith("hashjack."))]
    for module, name, span, extra in SPANS:
        original = getattr(sys.modules[f"hashjack.{module}"], name)
        wrapper = _wrap(original, span, extra, totals)
        for holder in modules:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hashjack.cli

    totals = {"cli.import_s": time.perf_counter() - t0}
    install(totals)
    code = hashjack.cli.entrypoint(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
