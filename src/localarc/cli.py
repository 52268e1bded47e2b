"""Command line surface over the whole toolkit.

One binary with subcommands; families travel as JSON, tables as TSV.
A subcommand returns its exit code, its JSON value and its text lines
and prints nothing.  ``run`` alone prints, the JSON value under
``--format json`` and the text lines otherwise, and alone maps outcomes
to the exit status: 0 on success; 1 for a rejected verification (the
witness is printed), a failing seed, an ``sdf verify`` set that is not
square-difference-free or a table mismatch; 2 for usage and file errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arcs import (
    LocalArcFamily,
    NotVerified,
    family_from_dict,
    family_to_dict,
    lrc_params,
    sample_verify,
    verify_local_arc,
)
from .bounds import eml_upper, fftc_upper, trivial_upper
from .construct import (
    best_construction,
    case1_lift,
    case2_lift,
    case3_lift,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
    oval_partition,
    seed_from_dict,
    validate_generic,
)
from .sdf import SdfBasis, is_sdf_mod, max_sdf_bruteforce, sdf_subset
from .search import (
    emit_ilp,
    exact_max,
    parse_lp,
    reproduce_table,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

_METHODS = ("oval", "generic", "lift-prime", "case1", "case2", "case3", "best")
_FORMATS = ("text", "json")


class UsageError(ValueError):
    pass


def _parse_basis(text: str) -> SdfBasis:
    # "--basis 5,0,2" means digits base 5 with alphabet {0, 2}
    parts = text.split(",")
    if len(parts) < 2:
        raise UsageError("--basis needs a base and at least one digit")
    try:
        m = int(parts[0])
        digits = tuple(int(x) for x in parts[1:])
    except ValueError as exc:
        raise UsageError(f"bad --basis value: {exc}") from exc
    return SdfBasis(m, digits)


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(";", ",").split(",") if x)
    except ValueError as exc:
        raise UsageError(f"bad {flag} value: {exc}") from exc


def _parse_verify_mode(text: str, flag: str, plain: tuple[str, ...]):
    """One of ``plain`` as given, or (samples, seed) from sample:COUNT:SEED.

    An empty COUNT means 100,000 samples and an empty SEED seed 0.
    """
    if text in plain:
        return text
    usage = f"{flag} must be {', '.join(plain)} or sample:COUNT:SEED"
    head, *fields = text.split(":")
    if head != "sample" or not 1 <= len(fields) <= 2:
        raise UsageError(usage)
    count, seed = (fields + [""])[:2]
    try:
        samples = int(count) if count else 100_000
        seed = int(seed) if seed else 0
    except ValueError as exc:
        raise UsageError(f"{usage}: {exc}") from exc
    if samples < 1:
        raise UsageError(f"{flag} needs at least one sample")
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"{flag} seed must lie in [0, 2**64)")
    return samples, seed


def _apply_verification(fam: LocalArcFamily, mode) -> tuple[str, dict]:
    """Run a mode parsed by _parse_verify_mode; raises NotVerified on
    rejection.

    Returns the note the text output prints and the JSON fields
    verify_mode (the report's mode), pairs_checked and verify_s (wall
    seconds), which are null when verification is skipped.
    """
    if mode == "none":
        return "skipped", {"verify_mode": None, "pairs_checked": None,
                           "verify_s": None}
    start = time.perf_counter()
    if mode == "full":
        report = verify_local_arc(fam)
    else:
        report = sample_verify(fam, *mode)
    elapsed = time.perf_counter() - start
    if not report.ok:
        raise NotVerified(report.violation.describe(fam.plane))
    note = ("full" if mode == "full"
            else f"sampled {report.pairs_checked} pairs")
    return note, {"verify_mode": report.mode,
                  "pairs_checked": report.pairs_checked,
                  "verify_s": round(elapsed, 6)}


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} holds a JSON {type(data).__name__}, "
                         f"not an object")
    return data


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_family(path: str, fam: LocalArcFamily) -> None:
    _write_text(path, json.dumps(family_to_dict(fam), indent=1) + "\n")


# ---------------------------------------------------------------------------
# subcommands

_Result = tuple[int, object, list[str]]  # exit code, JSON value, text lines


def _seed_family(ns: argparse.Namespace, default) -> LocalArcFamily:
    """The --seed-file family, else default(--p, --k), k = 2 if absent."""
    if ns.in_path:
        return family_from_dict(_load_json(ns.in_path))
    if ns.p is None:
        raise UsageError(f"{ns.method} needs --seed-file or --p")
    return default(ns.p, 2 if ns.k is None else ns.k)


def _cmd_construct(ns: argparse.Namespace) -> _Result:
    method = ns.method
    branches, lines = {}, []

    if method == "oval":
        if ns.q is None or ns.k is None:
            raise UsageError("oval needs --q and --k")
        fam = oval_partition(ns.q, ns.k)
    elif method == "generic":
        if ns.k is None:
            raise UsageError("generic needs --k")
        seed = generic_k_arc(ns.k)
        fam = seed.as_family()
    elif method == "lift-prime":
        if ns.p is None or ns.basis is None:
            raise UsageError("lift-prime needs --p and --basis")
        if ns.in_path:
            seed = seed_from_dict(_load_json(ns.in_path))
        elif ns.k is not None:
            seed = generic_k_arc(ns.k)
        else:
            raise UsageError("lift-prime needs --seed-file or --k")
        fam = lift_prime(seed, ns.basis, ns.p, check=False)
    elif method == "case1":
        fam = case1_lift(_seed_family(ns, conic_partition_seed), check=False)
    elif method == "case2":
        if ns.t is None:
            raise UsageError("case2 needs --t")
        base = _seed_family(ns, lambda p, k: case1_lift(
            conic_partition_seed(p, k), check=False))
        fam = case2_lift(base, ns.t, check=False)
    elif method == "case3":
        if ns.m is None:
            raise UsageError("case3 needs --m")
        fam = case3_lift(_seed_family(ns, conic_partition_seed), ns.m,
                         ns.m1, ns.m2, alphabet=ns.alphabet, check=False)
    else:  # best
        if ns.q is None or ns.k is None:
            raise UsageError("best needs --q and --k")
        fam, report = best_construction(ns.q, ns.k)
        lines = [f"# {branch}: {outcome}"
                 for branch, outcome in report.items()]
        branches = {"branches": report}

    # every method builds with check=False: verification runs once, here
    note, checked = _apply_verification(fam, ns.verify_mode)
    if ns.out_path:
        _write_family(ns.out_path, fam)
    row = {"q": fam.plane.q, "num_sets": fam.n_sets, "k": fam.k,
           "provenance": fam.provenance, "verification": note, **checked,
           **branches, "out": ns.out_path}
    lines.append(f"q={fam.plane.q} sets={fam.n_sets} k={fam.k} "
                 f"verification={note} provenance={fam.provenance}")
    return EXIT_OK, row, lines


def _cmd_verify(ns: argparse.Namespace) -> _Result:
    data = _load_json(ns.in_path)
    if "secants" in data and "r" in data:
        # integer seed: run the three-condition check
        seed = seed_from_dict(data)
        verdict = validate_generic(seed.sets, seed.secants, seed.r)
        row = {"ok": verdict.ok, "cond_a": verdict.cond_a,
               "cond_b": verdict.cond_b, "cond_c": verdict.cond_c,
               "r_prime": verdict.r_prime,
               "failures": list(verdict.failures)}
        lines = [f"ok={verdict.ok} (a)={verdict.cond_a} "
                 f"(b)={verdict.cond_b} (c)={verdict.cond_c} "
                 f"r'={verdict.r_prime}"]
        lines += [f"rejected: {reason}" for reason in verdict.failures]
        return EXIT_OK if verdict.ok else EXIT_REJECTED, row, lines
    fam = family_from_dict(data)
    note, checked = _apply_verification(fam, ns.verify_mode)
    row = {"ok": True, "q": fam.plane.q, "num_sets": fam.n_sets, "k": fam.k,
           "verification": note, **checked}
    return EXIT_OK, row, [f"ok q={fam.plane.q} sets={fam.n_sets} k={fam.k} "
                          f"verification={note}"]


def _cmd_bound(ns: argparse.Namespace) -> _Result:
    triv = trivial_upper(ns.q)
    eml = eml_upper(ns.k, ns.q)
    fftc_sets = fftc_upper(ns.q).sets if ns.k == 4 else None
    row = {
        "q": ns.q,
        "k": ns.k,
        "trivial_points": triv.sets,
        "fftc_sets": fftc_sets,
        "eml_sets": eml.sets,
        "eml_points": eml.points,
    }
    best = min(v for v in (fftc_sets, eml.sets) if v is not None)
    row["min_sets"] = best
    return EXIT_OK, row, ["\t".join(row),
                          "\t".join("-" if v is None else str(v)
                                    for v in row.values())]


def _cmd_search(ns: argparse.Namespace) -> _Result:
    res = exact_max(ns.q, ns.k, budget=ns.budget, symmetry=ns.symmetry,
                    cap=ns.cap)
    if ns.certificate and res.certificate is not None:
        _write_family(ns.certificate, res.certificate)
    row = {"q": ns.q, "k": ns.k, "found": res.num_sets,
           "optimal": res.optimal, "nodes": res.nodes, "cap": res.cap,
           "elapsed_seconds": round(res.elapsed, 3)}
    return EXIT_OK, row, [
        f"q={ns.q} k={ns.k} found={res.num_sets} optimal={res.optimal} "
        f"nodes={res.nodes} cap={res.cap} elapsed={res.elapsed:.3f}s"]


def _cmd_sdf(ns: argparse.Namespace) -> _Result:
    if ns.sdf_action == "verify":
        ok = is_sdf_mod(set(ns.elements), ns.modulus)
        row = {"modulus": ns.modulus, "ok": ok,
               "size": len(set(ns.elements))}
        verdict = "square-difference-free" if ok else "rejected"
        return (EXIT_OK if ok else EXIT_REJECTED, row,
                [f"mod {ns.modulus}: {verdict}"])
    if ns.sdf_action == "build":
        elements = sorted(sdf_subset(ns.n, basis=ns.basis))
        size, label = len(elements), "size"
    else:  # max
        size, witness = max_sdf_bruteforce(ns.n)
        elements, label = list(witness), "max"
    row = {"n": ns.n, "size": size, "elements": elements}
    return EXIT_OK, row, [f"n={ns.n} {label}={size}",
                          ",".join(map(str, elements))]


def _cmd_ilp_export(ns: argparse.Namespace) -> _Result:
    text = emit_ilp(ns.q, ns.k, ns.cap, fix_first=ns.fix_first)
    _, rows, binaries = parse_lp(text)
    if not ns.out_path:
        return EXIT_OK, None, text.splitlines()
    _write_text(ns.out_path, text)
    return EXIT_OK, None, [f"wrote {ns.out_path}: {len(binaries)} binary "
                           f"variables, {len(rows)} rows"]


def _cmd_lrc_params(ns: argparse.Namespace) -> _Result:
    params = lrc_params(family_from_dict(_load_json(ns.in_path)))
    row = {"n": params.n, "k": params.dim, "d": params.d,
           "r": params.locality, "q": params.q,
           "singleton_optimal": params.singleton_optimal}
    return EXIT_OK, row, [f"n={params.n} k={params.dim} d={params.d} "
                          f"r={params.locality}"]


def _cmd_table(ns: argparse.Namespace) -> _Result:
    results = reproduce_table(ns.qs, ns.ks, budget=ns.budget)
    rows = [{"q": r.q, "k": r.k, "found": r.found, "optimal": r.optimal,
             "reference": r.ref_value, "reference_exact": r.ref_exact,
             "status": r.status, "nodes": r.nodes,
             "elapsed_seconds": round(r.elapsed, 3)} for r in results]
    lines = ["q\tk\tfound\toptimal\treference\tstatus\tnodes\telapsed_s"]
    for r in results:
        ref = str(r.ref_value) if r.ref_exact else f">={r.ref_value}"
        lines.append(f"{r.q}\t{r.k}\t{r.found}\t{int(r.optimal)}\t{ref}\t"
                     f"{r.status}\t{r.nodes}\t{r.elapsed:.3f}")
    bad = any(r.status == "mismatch" for r in results)
    return EXIT_REJECTED if bad else EXIT_OK, rows, lines


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="localarc",
        description="constructions, bounds and exact search for "
                    "k-uniform local arcs in PG(2,q)")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, formats=_FORMATS) -> None:
        p.add_argument("--format", dest="fmt", default="text",
                       choices=formats)

    pc = sub.add_parser("construct", help="build a family")
    pc.add_argument("--q", type=int)
    pc.add_argument("--p", type=int)
    pc.add_argument("--m", type=int, help="extension degree (case3)")
    pc.add_argument("--t", type=int, help="tower height (case2)")
    pc.add_argument("--k", type=int)
    pc.add_argument("--method", choices=_METHODS, default="best")
    pc.add_argument("--basis", help="digit basis, e.g. 5,0,2")
    pc.add_argument("--M1", type=float, dest="m1")
    pc.add_argument("--M2", type=float, dest="m2")
    pc.add_argument("--alphabet", help="case3 alphabet override, csv")
    pc.add_argument("--seed-file", dest="in_path")
    pc.add_argument("--out", dest="out_path")
    pc.add_argument("--verify", dest="verify_mode", default="full",
                    help="full, none, or sample:COUNT:SEED")
    common(pc)

    pv = sub.add_parser("verify", help="re-verify a stored family or seed")
    pv.add_argument("--in", dest="in_path", required=True)
    pv.add_argument("--mode", dest="verify_mode", default="full",
                    help="full or sample:COUNT:SEED")
    common(pv)

    pb = sub.add_parser("bound", help="upper bounds for one (q, k)")
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--k", type=int, required=True)
    common(pb)

    ps = sub.add_parser("search", help="exact maximum by backtracking")
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--budget", type=float)
    ps.add_argument("--symmetry", choices=("none", "fix-first-arc"),
                    help="fix-first-arc pins the first set and is valid "
                    "only for k <= 4 (the default there); none above")
    ps.add_argument("--cap", type=int)
    ps.add_argument("--certificate")
    common(ps)

    pf = sub.add_parser("sdf", help="square-difference-free sets")
    sdf_sub = pf.add_subparsers(dest="sdf_action", required=True)
    pfv = sdf_sub.add_parser("verify")
    pfv.add_argument("--elements", required=True)
    pfv.add_argument("--mod", type=int, dest="modulus", required=True)
    common(pfv)
    pfb = sdf_sub.add_parser("build")
    pfb.add_argument("--n", type=int, required=True)
    pfb.add_argument("--basis", help="digit basis, e.g. 5,0,2")
    common(pfb)
    pfm = sdf_sub.add_parser("max")
    pfm.add_argument("--n", type=int, required=True)
    common(pfm)

    pi = sub.add_parser("ilp-export", help="write the 0/1 program")
    pi.add_argument("--q", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.add_argument("--cap", type=int)
    pi.add_argument("--fix-first", dest="fix_first", action="store_true",
                    help="pin the first set to a fixed k-arc (k <= 4)")
    pi.add_argument("--out", dest="out_path")

    pl = sub.add_parser("lrc-params", help="code parameters of a family")
    pl.add_argument("--in", dest="in_path", required=True)
    common(pl)

    pt = sub.add_parser("table", help="reproduce the reference table")
    pt.add_argument("--q", dest="qs", help="comma separated values")
    pt.add_argument("--k", dest="ks", help="comma separated values")
    pt.add_argument("--budget", type=float, help="seconds per cell")
    # the text table is tab-separated; tsv names it
    common(pt, _FORMATS + ("tsv",))

    return top


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "search": _cmd_search,
    "sdf": _cmd_sdf,
    "ilp-export": _cmd_ilp_export,
    "lrc-params": _cmd_lrc_params,
    "table": _cmd_table,
}


def _prepare(ns: argparse.Namespace) -> None:
    """Parse the verification mode and the list flags, in place."""
    if ns.subcommand == "construct":
        ns.verify_mode = _parse_verify_mode(ns.verify_mode, "--verify",
                                            ("full", "none"))
    elif ns.subcommand == "verify":
        ns.verify_mode = _parse_verify_mode(ns.verify_mode, "--mode",
                                            ("full",))
    if getattr(ns, "basis", None) is not None:
        ns.basis = _parse_basis(ns.basis)
    for dest, flag in (("alphabet", "--alphabet"), ("elements", "--elements"),
                       ("qs", "--q"), ("ks", "--k")):
        if getattr(ns, dest, None) is not None:
            setattr(ns, dest, _parse_ints(getattr(ns, dest), flag))


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        _prepare(ns)
        code, value, lines = _DISPATCH[ns.subcommand](ns)
    except NotVerified as exc:
        print(f"rejected: {exc}")
        return EXIT_REJECTED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(ns, "fmt", "text") == "json":
        print(json.dumps(value))
    else:
        print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
