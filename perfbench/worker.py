"""One fresh-interpreter measurement; run.py starts one process per job.

    worker.py pass  WORKLOAD --seed N --inputs FILE [--trace FILE | --count-calls]
    worker.py setup WORKLOAD
    worker.py build FIELD_TAG
    worker.py micro --seed N

Each prints one JSON object as its last line of standard output.  Only
``pass`` runs CLI commands: with ``--trace`` it records spans, writes
them to FILE and reports per-layer figures; with ``--count-calls`` it
counts field and plane calls instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import CONSTRUCT_TAGS, FIELDS, JOINS, SEARCH_TAGS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_localarc():
    """localarc from this checkout's src/, never from an installed copy."""
    if not (SRC / "localarc" / "__init__.py").is_file():
        raise SystemExit(f"no localarc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import localarc
    if Path(localarc.__file__).resolve().parent != SRC / "localarc":
        raise SystemExit(f"imported localarc from {localarc.__file__}, "
                         f"not from {SRC}")
    return localarc


def _set_up(workload, tracer: Tracer | None = None):
    """What every CLI run pays before its command: localarc and its CLI
    imported, then every field and plane the workload uses.  A tracer is
    installed before the fields are built, so it can count their calls.
    Returns localarc and the seconds taken."""
    start = time.perf_counter()
    localarc = import_localarc()
    import localarc.cli  # noqa: F401
    if tracer is not None:
        tracer.install(localarc)
    for p, m, tower, kind in workload.setup:
        localarc.make_plane(localarc.make_field(p, m, tower), kind)
    return localarc, time.perf_counter() - start


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def cmd_setup(args) -> None:
    _emit({"setup_s": _set_up(WORKLOADS[args.workload])[1]})


def cmd_build(args) -> None:
    localarc = import_localarc()
    start = time.perf_counter()
    localarc.make_field(*FIELDS[args.field])
    _emit({"build_s": time.perf_counter() - start})


def cmd_pass(args) -> None:
    from workloads import check, parse_output

    workload = WORKLOADS[args.workload]
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    traced = args.trace is not None
    tracer = Tracer(f"{workload.name}:{args.seed}:{os.getpid()}",
                    spans=traced, count_calls=args.count_calls)

    localarc, setup_s = _set_up(workload, tracer)
    run = localarc.cli.run
    if traced:
        run = tracer.wrap("cli.run", "cli", run)
    calls_before = dict(tracer.calls)
    commands = []
    wall = 0.0
    for cmd in workload.commands:
        argv = [a.format(seed=args.seed, **inputs) for a in cmd.argv]
        first_span, first_report = len(tracer.spans), len(tracer.reports)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = run(argv)
        except SystemExit as exc:  # argparse exits on arguments it rejects
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a stop
            rc = f"crash: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        wall += elapsed
        fields = parse_output(argv[0], out.getvalue())
        reports = tracer.reports[first_report:]
        counters = {key: fields[key] for key in ("sets", "samples", "nodes")
                    if key in fields}
        counters["pairs_checked"] = sum(
            r.get("pairs", 0) for r in reports
            if r["name"] == "arcs.verify_local_arc[cli]")
        commands.append({
            "tag": cmd.tag, "argv": argv, "rc": rc, "wall_s": elapsed,
            "problems": check(cmd, rc, fields), "counters": counters,
            "stderr": err.getvalue()[-2000:],
            "spans": (first_span, len(tracer.spans)),
        })

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "commands": commands,
    }
    if args.count_calls:
        result["calls"] = {k: n - calls_before.get(k, 0)
                           for k, n in tracer.calls.items()}
    if traced:
        result["layers"] = _layer_metrics(tracer, commands)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"run": tracer.run_id, "spans": tracer.spans}, fh)
    for c in commands:
        del c["spans"]
    _emit(result)


def _layer_metrics(tracer: Tracer, commands: list) -> dict:
    """Per-layer figures of one traced pass; zero where a layer idles.

    The arcs figures cover the verifications the commands ask for; checks
    that constructions and the search make internally count in their own
    layer's figures.
    """
    spans = tracer.spans
    out = {}

    def dur(s):
        return s["end"] - s["start"]

    verify = [s for s in spans if s["name"] == "arcs.verify_local_arc[cli]"]
    sample = [s for s in spans if s["name"] == "arcs.sample_verify[cli]"]
    verify_s = sum(dur(s) for s in verify if s["attrs"].get("ok"))
    reject_s = sum(dur(s) for s in verify if not s["attrs"].get("ok"))
    pairs = sum(s["attrs"].get("pairs", 0) for s in verify)
    sample_s = sum(dur(s) for s in sample)
    samples = sum(s["attrs"].get("pairs", 0) for s in sample)
    out.update({
        "arcs.verify_s": verify_s, "arcs.reject_s": reject_s,
        "arcs.pairs_checked": pairs,
        "arcs.pairs_per_s": pairs / (verify_s + reject_s) if pairs else 0.0,
        "arcs.sample_s": sample_s, "arcs.samples_checked": samples,
        "arcs.samples_per_s": samples / sample_s if samples else 0.0,
    })

    by_tag = {c["tag"]: c for c in commands}
    for tag in CONSTRUCT_TAGS:
        build_s = sets = 0
        if tag in by_tag:
            lo, hi = by_tag[tag]["spans"]
            build_s = sum(dur(s) for s in spans[lo:hi]
                          if s["layer"] == "construct"
                          and spans[s["parent"]]["layer"] == "cli")
            sets = by_tag[tag]["counters"].get("sets", 0)
        out[f"construct.build_s.{tag}"] = build_s
        out[f"construct.sets.{tag}"] = sets
    out["construct.lazy_gets"] = tracer.lazy_gets
    out["construct.lazy_get_ns"] = (tracer.lazy_seconds / tracer.lazy_gets
                                    * 1e9 if tracer.lazy_gets else 0.0)

    searches = [s for s in spans if s["name"].startswith("search.exact_max")]
    for tag in SEARCH_TAGS:
        time_s = nodes = 0
        if tag in by_tag:
            lo, hi = by_tag[tag]["spans"]
            mine = [s for s in spans[lo:hi]
                    if s["name"].startswith("search.exact_max")]
            time_s = sum(dur(s) for s in mine)
            nodes = sum(s["attrs"].get("nodes", 0) for s in mine)
        out[f"search.time_s.{tag}"] = time_s
        out[f"search.nodes.{tag}"] = nodes
    search_s = sum(dur(s) for s in searches)
    total_nodes = sum(s["attrs"].get("nodes", 0) for s in searches)
    out["search.nodes_per_s"] = total_nodes / search_s if search_s else 0.0
    out["search.cells_closed"] = (
        sum(1 for s in searches if s["attrs"].get("optimal")) / len(searches)
        if searches else 0.0)
    out["search.cert_verify_s"] = sum(
        dur(s) for s in spans if s["name"] == "arcs.verify_local_arc[search]")

    self_s = tracer.layer_self_seconds()
    for layer in ("cli", "construct", "arcs", "search"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out


def _ns_per_call(fn, operands: list) -> float:
    """Median ns per fn(*operands[i]) over five chunks of at least 20 ms.

    Includes the Python loop and call overhead, as every caller pays it.
    """
    clock = time.perf_counter

    def chunk(first: int, n: int) -> float:
        args = [operands[(first + i) % len(operands)] for i in range(n)]
        t0 = clock()
        for a in args:
            fn(*a)
        return (clock() - t0) / n

    n = 1
    while chunk(0, n) * n < 0.02:
        n *= 2
    times = [chunk(i * n, n) for i in range(5)]
    return statistics.median(times) * 1e9


def cmd_micro(args) -> None:
    localarc = import_localarc()
    rng = random.Random(args.seed)
    size = 4096
    out = {}
    for tag, spec in FIELDS.items():
        f = localarc.make_field(*spec)
        pairs = [(rng.randrange(f.q), rng.randrange(f.q))
                 for _ in range(size)]
        units = [(rng.randrange(1, f.q),) for _ in range(size)]
        out[f"gf.mul_ns.{tag}"] = _ns_per_call(f.mul, pairs)
        out[f"gf.add_ns.{tag}"] = _ns_per_call(f.add, pairs)
        out[f"gf.inv_ns.{tag}"] = _ns_per_call(f.inv, units)
    for name, (tag, kind) in JOINS.items():
        plane = localarc.make_plane(localarc.make_field(*FIELDS[tag]), kind)
        pairs = []
        while len(pairs) < size:
            u, v = rng.randrange(plane.n_points), rng.randrange(plane.n_points)
            if u != v:
                pairs.append((u, v))
        out[f"plane.join_ns.{name}"] = _ns_per_call(plane.join, pairs)
    _emit(out)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("pass")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace")
    mode.add_argument("--count-calls", action="store_true")
    p.set_defaults(fn=cmd_pass)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.set_defaults(fn=cmd_setup)
    p = sub.add_parser("build")
    p.add_argument("field", choices=sorted(FIELDS))
    p.set_defaults(fn=cmd_build)
    p = sub.add_parser("micro")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_micro)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
