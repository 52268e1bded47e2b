#!/usr/bin/env python3
"""Exercise the degree-205 prime lift at full scale.

Builds the lazy lifted family over the smallest admissible prime for
the 205-element difference structure (p = 1723027, about 3.0 million
sets of 2 points each), prints the plan arithmetic, and then does three
things:

1. Exact verdict.  verify_local_arc decides the family from its
   translation layout (mode "translation"), without a pass over all
   set pairs.  The horizontal shift window the lift uses is wider than
   the seed's x-spacing, and two of the seed sets are x-translates of
   each other at distance 1, so the lift lists some sets twice; the
   verdict names the first such pair, sets [2, 1512901], in a few
   seconds.

2. Deterministic collision.  The two lifted indices the verdict names
   are known in advance from the layout; we look up just those two
   sets and show they coincide.

3. Random pairwise sampling, for comparison.  Draws sampled pairs of
   sets and checks disjointness plus the local-arc condition on each
   pair.  The duplicated pairs are a vanishing fraction of all pairs,
   so a single million-pair pass catches one only about half the time;
   the per-seed verdicts make that visible.  Run with --samples 0 to
   skip it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib.resources import files

from localarc.arcs import sample_verify, verify_local_arc
from localarc.construct import lift_prime, plan_lift, seed_from_dict
from localarc.gf import is_prime
from localarc.sdf import BASIS_205


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1_000_000,
                    help="pairs per sampling seed (default 1e6, 0 = skip)")
    ap.add_argument("--seeds", default="0,1,2",
                    help="comma separated sampling seeds")
    ns = ap.parse_args()

    raw = files("localarc").joinpath("fixtures/example_i_seed.json")
    seed = seed_from_dict(json.loads(raw.read_text()))
    r = seed.r
    m = BASIS_205.m
    p = m * m * (r * r + 3 * r + 1) + 1
    while not is_prime(p):
        p += 1
    plan = plan_lift(r, BASIS_205, p)
    print(f"seed sets        = {len(seed.sets)} (k = {seed.k}, r = {r})")
    print(f"prime p          = {p}")
    print(f"translations     {plan.describe()}")
    print(f"sets in family   = {len(seed.sets) * plan.n_translations}")

    t0 = time.perf_counter()
    fam = lift_prime(seed, BASIS_205, p, check=False)
    print(f"built lazily in {time.perf_counter() - t0:.3f}s "
          f"({fam.n_sets} sets over GF({fam.plane.q}))")

    t0 = time.perf_counter()
    report = verify_local_arc(fam)
    verdict = ("local arc" if report.ok
               else report.violation.describe(fam.plane))
    print(f"exact verdict ({report.mode}, {report.pairs_checked} checks, "
          f"{time.perf_counter() - t0:.1f}s): {verdict}", flush=True)

    # Seed set 3 is seed set 2 shifted right by one x unit.  The u = 1
    # copy of set 2 therefore equals the u = 1 - m^(t/2) copy of set 3,
    # both with the all-zero vertical offset.
    n_v = len(fam.translation.vs)
    m_half = m ** (plan.t // 2)
    idx2 = ((1 + plan.B) * n_v + 0) * 3 + 1
    idx3 = ((1 - m_half + plan.B) * n_v + 0) * 3 + 2
    same = tuple(fam.sets[idx2]) == tuple(fam.sets[idx3])
    print(f"deterministic collision: sets {idx3} and {idx2} "
          f"{'coincide' if same else 'differ (unexpected)'}")

    if ns.samples > 0:
        hits = 0
        runs = 0
        for s in (int(x) for x in ns.seeds.split(",")):
            runs += 1
            t0 = time.perf_counter()
            report = sample_verify(fam, samples=ns.samples, seed=s)
            if report.ok:
                verdict = "no violation sampled"
            else:
                hits += 1
                verdict = (f"violation at sample {report.pairs_checked}: "
                           f"{report.violation.describe(fam.plane)}")
            print(f"sampling seed {s}: {verdict} "
                  f"({time.perf_counter() - t0:.1f}s)", flush=True)
        print(f"{hits}/{runs} sampling seeds hit a violating pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
