"""The benchmark's workloads: CLI commands, pinned outputs, set-up lists.

Each workload is a fixed list of ``localarc`` command lines run in one
fresh interpreter through ``localarc.cli.run``.  Arguments may name
``{seed}`` (the workload seed given to the benchmark) and the generated
input files ``{case2_seed}`` and ``{wide_family}``.

Every command carries the output it must give.  Gated fields make the
command fail when they differ; work counters (``pairs_checked``,
``samples``, ``nodes``) are recorded but not gated, so a pruning change
may move them.  An expected rejection counts as success.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Field tags used by per-layer metric names: (p, m, tower).
FIELDS = {
    "p10000019": (10000019, 1, False),
    "t625tw": (5, 4, True),
    "t68921": (41, 3, False),
    "d131e3": (131, 3, False),
}

# Plane presentations timed by the join microbenchmark: (field tag, kind).
JOINS = {
    "planar-p10000019": ("p10000019", "planar"),
    "planar-t625tw": ("t625tw", "planar"),
    "planar-t68921": ("t68921", "planar"),
    "planar-d131e3": ("d131e3", "planar"),
    "homog-t68921": ("t68921", "homogeneous"),
}


@dataclass(frozen=True)
class Command:
    tag: str  # names the command in per-layer metrics
    argv: tuple[str, ...]
    rc: int
    expect: dict  # parsed output field -> exact value or compiled pattern


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # every (p, m, tower, presentation) the commands build; set-up makes
    # them all before the first command, as a CLI run would pay for them
    setup: tuple[tuple[int, int, bool, str], ...]
    # per-layer metric -> end-to-end metric it should move here
    predicts: tuple[tuple[str, str], ...]


_SAMPLED = re.compile(r"sampled \d+ pairs")

# Nearly all the time is the exact pair sweep: 5,094,576 joins over
# table-engine fields.  Field, plane.join and verify_local_arc changes show
# here; search does no work.
#
# The 1640-set case-3 family over GF(41^3) is built but not verified here:
# the GF(41^3) Zech tables miss cache on every operation, so its 5.4 M-pair
# sweep swings by 10-60% with the memory traffic of whatever shares the
# machine, which no run length evens out.  The case-1 lift at p = 53 takes
# its place as the large sweep (3.8 M pairs over GF(53^2), ~420 MiB of
# line owners), and the case-3 lift is verified at p = 23, whose tables fit
# in cache; both hold within a few percent on the same machine.
LIFT_VERIFY = Workload(
    name="lift-verify",
    commands=(
        Command("case1", ("construct", "--method", "case1", "--p", "11",
                          "--k", "2"),
                0, {"q": 121, "sets": 55, "k": 2, "verification": "full"}),
        Command("case2", ("construct", "--method", "case2", "--t", "2",
                          "--seed-file", "{case2_seed}"),
                0, {"q": 625, "sets": 625, "k": 2, "verification": "full"}),
        Command("case3", ("construct", "--method", "case3", "--p", "41",
                          "--m", "3", "--M1", "8", "--M2", "6",
                          "--alphabet", "1,3", "--verify", "none"),
                0, {"q": 68921, "sets": 1640, "k": 2,
                    "verification": "skipped"}),
        Command("case3-p23", ("construct", "--method", "case3", "--p", "23",
                              "--m", "3", "--M1", "8", "--M2", "6",
                              "--alphabet", "1,3"),
                0, {"q": 12167, "sets": 506, "k": 2,
                    "verification": "full"}),
        Command("case1-p53", ("construct", "--method", "case1", "--p", "53",
                              "--k", "2"),
                0, {"q": 2809, "sets": 1378, "k": 2,
                    "verification": "full"}),
        # the known duplicate-translate defect of the wide-window lift,
        # kept visible: it must stay rejected with this witness
        Command("reject", ("verify", "--in", "{wide_family}"),
                1, {"rejected": "point (1,75) repeats in sets [2, 151]"}),
    ),
    setup=((11, 1, False, "planar"), (11, 2, False, "planar"),
           (5, 2, False, "planar"), (5, 4, True, "planar"),
           (41, 1, False, "planar"), (41, 3, False, "planar"),
           (23, 1, False, "planar"), (23, 3, False, "planar"),
           (53, 1, False, "planar"), (53, 2, False, "planar"),
           (1031, 1, False, "planar")),
    predicts=(
        ("gf.mul_ns.t625tw", "wall_s"), ("gf.add_ns.t625tw", "wall_s"),
        ("gf.inv_ns.t625tw", "wall_s"), ("gf.add_ns.t68921", "wall_s"),
        ("gf.build_s.t68921", "setup_s"),
        ("gf.calls.mul", "wall_s"), ("gf.calls.inv", "wall_s"),
        ("plane.join_ns.planar-t625tw", "wall_s"),
        ("plane.join_calls", "wall_s"),
        ("arcs.verify_s", "wall_s"), ("arcs.pairs_checked", "wall_s"),
        ("arcs.pairs_per_s", "wall_s"), ("arcs.reject_s", "wall_s"),
        ("arcs.verify_s", "peak_rss_mib"),
        ("arcs.pairs_checked", "peak_rss_mib"),
        ("construct.build_s.case3", "wall_s"), ("cli.self_s", "wall_s"),
    ),
)

# Each sampled set pair gets a determinant check, with no joins and with
# lazy indexing into the prime lift: prime and digit mul and the lazy
# family are exposed.  A verifier change that speeds the full sweep but
# slows the sampled path shows up here.
SAMPLE_VERIFY = Workload(
    name="sample-verify",
    commands=(
        Command("lift-prime", ("construct", "--method", "lift-prime",
                               "--k", "3", "--p", "10000019",
                               "--basis", "5,0,2",
                               "--verify", "sample:200000:{seed}"),
                0, {"q": 10000019, "sets": 249000, "k": 3,
                    "verification": _SAMPLED}),
        Command("case3-d131e3", ("construct", "--method", "case3",
                                 "--p", "131", "--m", "3", "--M1", "8",
                                 "--M2", "6", "--alphabet", "1,3",
                                 "--verify", "sample:100000:{seed}"),
                0, {"q": 131 ** 3, "sets": 17030, "k": 2,
                    "verification": _SAMPLED}),
    ),
    setup=((17, 1, False, "planar"), (10000019, 1, False, "planar"),
           (131, 1, False, "planar"), (131, 3, False, "planar")),
    predicts=(
        ("gf.mul_ns.p10000019", "wall_s"), ("gf.mul_ns.d131e3", "wall_s"),
        ("gf.add_ns.d131e3", "wall_s"), ("gf.calls.mul", "wall_s"),
        ("arcs.sample_s", "wall_s"), ("arcs.samples_checked", "wall_s"),
        ("arcs.samples_per_s", "wall_s"),
        ("construct.build_s.lift-prime", "wall_s"),
        ("construct.build_s.case3-d131e3", "wall_s"),
        ("construct.lazy_gets", "wall_s"), ("construct.lazy_get_ns", "wall_s"),
        ("cli.self_s", "wall_s"),
    ),
)

# Nearly all the time is the search DFS; gf, plane and arcs are close to
# zero.  It bypasses every field or verifier change and exercises pruning
# or symmetry work.  Each cell ends by proof or by the cap, so node counts
# do not depend on the machine.
SEARCH_TABLE = Workload(
    name="search-table",
    commands=(
        Command("q8k3", ("search", "--q", "8", "--k", "3"),
                0, {"found": 9, "optimal": True}),
        Command("q9k4", ("search", "--q", "9", "--k", "4"),
                0, {"found": 4, "optimal": True}),
        Command("q9k3c9", ("search", "--q", "9", "--k", "3", "--cap", "9"),
                0, {"found": 9, "optimal": True}),
        Command("q11k3c10", ("search", "--q", "11", "--k", "3",
                             "--cap", "10"),
                0, {"found": 10, "optimal": True}),
    ),
    setup=((2, 3, False, "homogeneous"), (3, 2, False, "homogeneous"),
           (11, 1, False, "homogeneous")),
    predicts=(
        ("search.time_s.q8k3", "wall_s"), ("search.time_s.q9k4", "wall_s"),
        ("search.time_s.q9k3c9", "wall_s"),
        ("search.time_s.q11k3c10", "wall_s"),
        ("search.nodes.q8k3", "wall_s"), ("search.nodes.q9k4", "wall_s"),
        ("search.nodes.q9k3c9", "wall_s"),
        ("search.nodes.q11k3c10", "wall_s"),
        ("search.nodes_per_s", "wall_s"), ("search.cells_closed", "wall_s"),
        ("search.cert_verify_s", "wall_s"), ("cli.self_s", "wall_s"),
    ),
)

WORKLOADS = {w.name: w for w in (LIFT_VERIFY, SAMPLE_VERIFY, SEARCH_TABLE)}

# Commands whose construct-layer time is reported as construct.build_s.<tag>.
CONSTRUCT_TAGS = ("case1", "case2", "case3", "case3-p23", "case1-p53",
                  "case3-d131e3", "lift-prime")
# Commands whose exact_max run is reported as search.*.<tag>.
SEARCH_TAGS = ("q8k3", "q9k4", "q9k3c9", "q11k3c10")

_CONSTRUCT_LINE = re.compile(
    r"q=(\d+) sets=(\d+) k=(\d+) verification=(.*) provenance=(.*)")
_SEARCH_LINE = re.compile(
    r"q=(\d+) k=(\d+) found=(\d+) optimal=(True|False) nodes=(\d+) "
    r"cap=(\d+) elapsed=")


def parse_output(subcommand: str, stdout: str) -> dict:
    """Fields of one command's text output; empty when it has none."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if last.startswith("rejected: "):
        return {"rejected": last[len("rejected: "):]}
    if subcommand == "construct":
        m = _CONSTRUCT_LINE.fullmatch(last)
        if m is None:
            return {}
        out = {"q": int(m[1]), "sets": int(m[2]), "k": int(m[3]),
               "verification": m[4]}
        count = re.fullmatch(r"sampled (\d+) pairs", m[4])
        if count:
            out["samples"] = int(count[1])
        return out
    if subcommand == "search":
        m = _SEARCH_LINE.match(last)
        if m is None:
            return {}
        return {"found": int(m[3]), "optimal": m[4] == "True",
                "nodes": int(m[5])}
    return {}


def check(cmd: Command, rc: int, fields: dict) -> list[str]:
    """Every way the command's outcome differs from its pinned one."""
    problems = []
    if rc != cmd.rc:
        problems.append(f"exit code {rc}, expected {cmd.rc}")
    for key, want in cmd.expect.items():
        got = fields.get(key)
        if isinstance(want, re.Pattern):
            ok = isinstance(got, str) and want.fullmatch(got) is not None
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key}={got!r}, expected {want!r}")
    return problems
