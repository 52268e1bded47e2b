#!/usr/bin/env python3
"""Timed exact-search experiments on small planes.

The default run settles the whole q = 7 row except k = 2, which it
reports as a budgeted lower bound (closing that cell takes hours; the
incumbent 13 appears within seconds).  --extended adds the q = 8 and
q = 9 rows plus budgeted q = 11 cells.  Node counts are deterministic
for fixed flags, so two runs of this script must agree on everything
but timing.
"""

from __future__ import annotations

import argparse
import sys

from localarc.search import exact_max


def run_cell(q: int, k: int, budget: float | None, cap: int | None = None) -> None:
    res = exact_max(q, k, budget=budget, cap=cap)
    tag = "proved" if res.optimal else "lower bound"
    print(f"q={q} k={k}: {res.num_sets} sets ({tag})  "
          f"nodes={res.nodes} cap={res.cap} elapsed={res.elapsed:.2f}s",
          flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=60.0,
                    help="seconds per open-ended cell (default 60)")
    ap.add_argument("--extended", action="store_true",
                    help="also run q = 8, 9 and budgeted q = 11 cells")
    ns = ap.parse_args()

    print("# q = 7 row")
    run_cell(7, 2, ns.budget)
    for k in range(3, 8):
        run_cell(7, k, None)

    if ns.extended:
        print("# q = 8 row")
        run_cell(8, 2, ns.budget)
        for k in (3, 4):
            run_cell(8, k, None)
        for k in range(5, 10):
            run_cell(8, k, ns.budget)
        print("# q = 9 row")
        run_cell(9, 2, ns.budget)
        run_cell(9, 3, ns.budget)
        run_cell(9, 4, None)
        for k in range(5, 10):
            run_cell(9, k, ns.budget)
        print("# q = 11 cells")
        for k in range(2, 7):
            run_cell(11, k, ns.budget)
    return 0


if __name__ == "__main__":
    sys.exit(main())
