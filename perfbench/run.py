"""localarc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lift-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; localarc is imported from its src/.
Each pass of the workload runs in a fresh interpreter (worker.py), so
every pass pays field set-up as a CLI user does.  Passes repeat until
--seconds have gone by (at least one; at least two with --trace 1).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the passes, and over extra set-up-only processes for setup_s.
--trace 1 adds a traced pass, a pass that counts field and plane calls
and the gf/plane microbenchmarks, and reports the per-layer metrics.  Every command's output is checked
against its pinned value, and the work counters of all passes must agree
exactly.  The last line of standard output is the result JSON; a record
of the run (versions, seed, every pass) and the spans of a traced pass
are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import ROOT, SRC, import_localarc
from workloads import FIELDS, WORKLOADS

OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 9
BUILD_SAMPLES = 3


class BenchError(RuntimeError):
    pass


def _job(deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {' '.join(args)}")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same str hashes every pass
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the "
                         f"{RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _make_inputs(localarc, workdir: Path) -> dict:
    """Input files the workloads name, generated from localarc itself."""
    from localarc.arcs import family_to_dict
    from localarc.construct import (case1_lift, column_pair_seed,
                                    lift_prime, seed_from_dict)
    from localarc.sdf import BASIS_5

    # the case-1 lift of column_pair_seed(5) over GF(25), seed of case 2
    case2_seed = case1_lift(column_pair_seed(5), check=False)
    # the wide-window lift of the example-i seed at p = 1031, which lists
    # duplicate translates
    fixture = SRC / "localarc" / "fixtures" / "example_i_seed.json"
    ex1 = seed_from_dict(json.loads(fixture.read_text("utf-8")))
    wide = lift_prime(ex1, BASIS_5, 1031, check=False)
    paths = {}
    for name, fam in (("case2_seed", case2_seed), ("wide_family", wide)):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(family_to_dict(fam)), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _versions(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "localarc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _repeat_problems(passes: list) -> list[str]:
    """Work counters that differ between passes of one run."""
    problems = []
    first = passes[0]["commands"]
    for other in passes[1:]:
        for a, b in zip(first, other["commands"]):
            if a["counters"] != b["counters"]:
                problems.append(f"{a['tag']}: counters {a['counters']} "
                                f"then {b['counters']}")
    return problems


def measure(workload: str, seed: int, seconds: int, traced: bool,
            spec: dict) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    wl = WORKLOADS[workload]
    localarc = import_localarc()  # also leaves bytecode caches warm
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs_file = Path(tmp) / "inputs.json"
        inputs_file.write_text(json.dumps(_make_inputs(localarc, Path(tmp))),
                               encoding="utf-8")
        inputs = ["--seed", str(seed), "--inputs", str(inputs_file)]

        passes = []
        measured = last = 0.0
        # a traced run needs two untraced passes to check counters against,
        # and time for its traced and counting passes afterwards
        min_passes = 2 if traced else 1
        reserve = 4 if traced else 1
        while len(passes) < min_passes or (
                measured < seconds
                and time.monotonic() + reserve * last < deadline):
            t0 = time.monotonic()
            passes.append(_job(deadline, "pass", workload, *inputs))
            last = time.monotonic() - t0
            measured += last
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_job(deadline, "setup", workload)["setup_s"])

        layers = {}
        if traced:
            spans_file = OUT / f"spans-{workload}-seed{seed}.json"
            traced_pass = _job(deadline, "pass", workload, *inputs,
                               "--trace", str(spans_file))
            count_pass = _job(deadline, "pass", workload, *inputs,
                              "--count-calls")
            layers = dict(traced_pass["layers"])
            calls = count_pass["calls"]
            layers["gf.calls.mul"] = calls.get("gf.mul", 0)
            layers["gf.calls.inv"] = calls.get("gf.inv", 0)
            layers["plane.join_calls"] = calls.get("plane.join", 0)
            layers.update(_job(deadline, "micro", "--seed", str(seed)))
            for tag in FIELDS:
                layers[f"gf.build_s.{tag}"] = statistics.median(
                    _job(deadline, "build", tag)["build_s"]
                    for _ in range(BUILD_SAMPLES))
            wall = statistics.median(p["wall_s"] for p in passes)
            layers["trace.overhead_frac"] = traced_pass["wall_s"] / wall - 1
            passes += [traced_pass, count_pass]

    commands = [c for p in passes for c in p["commands"]]
    failed = [f"{c['tag']}: {'; '.join(c['problems'])}"
              for c in commands if c["problems"]]
    repeat = _repeat_problems(passes)
    if traced:
        metrics = layers
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"]
                                              for p in passes),
        }
        names = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(names):
        raise BenchError(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failed and not repeat,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }
    record = {"workload": workload, "trace": int(traced),
              "seconds": seconds, **_versions(seed),
              "commands": [list(c.argv) for c in wl.commands],
              "predicts": wl.predicts, "failures": failed,
              "repeat_problems": repeat, "setup_samples": setups,
              "passes": passes, "result": result}
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        result, record = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in record["failures"] + record["repeat_problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("git_sha", "src_sha256", "python", "nproc", "seed")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
