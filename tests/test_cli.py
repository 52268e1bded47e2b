"""Command line behavior: exit codes, formats, round trips."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from localarc import cli
from localarc.cli import (
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    run,
)


def fixture_path(name: str) -> str:
    return str(resources.files("localarc") / "fixtures" / name)


def test_verify_family_fixture_accepts(capsys):
    assert run(["verify", "--in", fixture_path("example_i.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out and "q=5" in out


def test_verify_seed_fixtures_accept(capsys):
    for name in ("example_i_seed.json", "example_ii_seed.json"):
        assert run(["verify", "--in", fixture_path(name)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(a)=True (b)=True (c)=True" in out


def test_verify_rejects_overlap_with_witness(tmp_path, capsys):
    data = json.loads(
        (resources.files("localarc") / "fixtures" / "example_i.json")
        .read_text())
    data["sets"][1][0] = data["sets"][0][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", "--in", str(bad)]) == EXIT_REJECTED
    out = capsys.readouterr().out
    assert "rejected" in out and "repeats" in out


def test_verify_missing_file_is_usage_error(capsys):
    assert run(["verify", "--in", "/nonexistent/fam.json"]) == EXIT_USAGE


@pytest.mark.parametrize("text", ['{"p":5}', '[1,2]', '7',
                                  '{"p":5,"sets":[[1,2]]}',
                                  '{"r":5,"sets":[[["a","b"]]],"secants":[]}'])
@pytest.mark.parametrize("argv", [
    ["verify", "--in"],
    ["construct", "--method", "case1", "--seed-file"],
    ["construct", "--method", "lift-prime", "--p", "1031",
     "--basis", "5,0,2", "--seed-file"],
])
def test_malformed_json_is_usage_error(tmp_path, capsys, text, argv):
    # exit 1 means "rejected"; input that is not a family or seed is a
    # usage error
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(argv + [str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "rejected" not in captured.out


FUZZ_ARGVS = [
    ["verify", "--in"],
    ["construct", "--method", "case1", "--seed-file"],
    ["construct", "--method", "lift-prime", "--p", "1031",
     "--basis", "5,0,2", "--seed-file"],
]

# mostly in range for the small fields below, sometimes far outside
_coord = st.one_of(st.integers(min_value=0, max_value=6),
                   st.integers(min_value=-3, max_value=60))
_junk = st.one_of(
    st.none(), st.booleans(), _coord, st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)
_point_text = st.one_of(
    st.builds("({},{})".format, _coord, _coord),
    st.builds("({})".format, _coord),
    st.just("(inf)"),
    st.builds("({}:{}:{})".format, _coord, _coord, _coord),
    st.builds(lambda cs: "[" + ",".join(map(str, cs)) + "]",
              st.lists(_coord, max_size=5)),
)
_point_pair = st.lists(st.one_of(_coord, _junk), max_size=3)
# keys that name a field are drawn only in the family strategy below, so a
# free-form value never asks for a field larger than GF(50^4)
_free_key = st.text(max_size=3).filter(lambda k: k not in ("p", "m"))
_json = st.recursive(
    st.one_of(_junk, _point_text),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_free_key, inner, max_size=4)),
    max_leaves=12,
)


def _sets_of(point):
    return st.one_of(
        st.lists(st.lists(st.one_of(point, _json), max_size=4), max_size=4),
        _json,
    )


def _field_is_small(data) -> bool:
    # modulus search and table building grow fast with q (GF(2^60) does
    # not finish, GF(37^4) takes seconds), so a fuzzed field has p <= 50,
    # m <= 4 and at most a few thousand elements
    p, m = data.get("p"), data.get("m", 1)
    if isinstance(p, (int, float)) and isinstance(m, (int, float)):
        return abs(p) <= 50 and m <= 4 and abs(p) ** max(m, 1) <= 2500
    return True


_family = st.fixed_dictionaries({}, optional={
    "p": st.one_of(st.sampled_from([3, 5, 7]),
                   st.integers(min_value=-2, max_value=50), _junk),
    "m": st.one_of(st.integers(min_value=-1, max_value=4), _junk),
    "q": st.one_of(_coord, _junk),
    "tower": _junk,
    "presentation": st.one_of(st.sampled_from(["planar", "homogeneous"]),
                              _junk),
    "k": _junk,
    "provenance": _json,
    "sets": _sets_of(_point_text),
}).filter(_field_is_small)
_seed = st.fixed_dictionaries({}, optional={
    "r": st.one_of(_coord, _junk),
    "r_prime": st.one_of(_coord, _junk),
    "sets": _sets_of(_point_pair),
    "secants": _sets_of(_point_pair),
})


@pytest.mark.parametrize("argv", FUZZ_ARGVS)
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(data=st.one_of(_family, _seed, _json))
def test_arbitrary_json_never_crashes_the_cli(tmp_path, capsys, argv, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    code = run(argv + [str(path)])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_REJECTED, EXIT_USAGE)
    if code == EXIT_REJECTED:
        assert "rejected: " in out


def test_bound_row_has_eml_sets_5(capsys):
    assert run(["bound", "--q", "7", "--k", "4"]) == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    cols = dict(zip(header.split("\t"), row.split("\t")))
    assert cols["eml_sets"] == "5"
    assert cols["fftc_sets"] == "5"
    assert cols["min_sets"] == "5"


def test_bound_json_format(capsys):
    assert run(["bound", "--q", "7", "--k", "3", "--format",
                "json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)
    assert row["eml_sets"] == 8
    assert row["fftc_sets"] is None  # defined for k = 4 only


def test_lrc_params_seven_sets(tmp_path, capsys):
    # a 7-set 4-uniform family: chop an oval of PG(2,27) into quadruples
    from localarc.arcs import family_to_dict
    from localarc.construct import oval_partition
    fam = oval_partition(27, 4)
    assert fam.n_sets == 7
    path = tmp_path / "fam27.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    assert run(["lrc-params", "--in", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n=28 k=18 d=6 r=3"


def test_lrc_params_rejects_non_4_uniform(tmp_path, capsys):
    from localarc.arcs import family_to_dict
    from localarc.construct import oval_partition
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_to_dict(oval_partition(5, 2))))
    assert run(["lrc-params", "--in", str(path)]) == EXIT_USAGE


def test_lrc_params_rejects_a_non_arc(tmp_path, capsys):
    # 4-uniform, but each set lies on a vertical line x = 0 or x = 1
    sets = [[f"({x},{y})" for y in range(4)] for x in (0, 1)]
    path = tmp_path / "columns.json"
    path.write_text(json.dumps({"p": 7, "sets": sets}))
    assert run(["lrc-params", "--in", str(path)]) == EXIT_REJECTED
    out = capsys.readouterr().out
    assert out.startswith("rejected: ") and "n=" not in out


def test_search_writes_certificate_and_lp(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    lp = tmp_path / "model.lp"
    assert run(["search", "--q", "7", "--k", "4",
                "--certificate", str(cert)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "found=3" in out and "optimal=True" in out
    assert run(["ilp-export", "--q", "7", "--k", "4", "--fix-first",
                "--out", str(lp)]) == EXIT_OK

    from localarc.arcs import family_from_dict, verify_local_arc
    from localarc.search import check_certificate
    fam = family_from_dict(json.loads(cert.read_text()))
    assert verify_local_arc(fam).ok
    chk = check_certificate(fam, text=lp.read_text())
    assert chk.ok and chk.objective == 3


@pytest.mark.parametrize("argv", [
    ["search", "--q", "11", "--k", "6", "--symmetry", "fix-first-arc"],
    ["ilp-export", "--q", "7", "--k", "5", "--fix-first"],
])
def test_fix_first_above_k4_is_a_usage_error(argv, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "k <= 4" in captured.err and not captured.out


def test_search_json_format(capsys):
    assert run(["search", "--q", "4", "--k", "3", "--format",
                "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["found"] == 4 and res["optimal"] is True


def test_sdf_verify_mod205(capsys):
    elements = "0,2,8,14,77,79,85,96,103,109,111,181"
    assert run(["sdf", "verify", "--elements", elements,
                "--mod", "205"]) == EXIT_OK
    assert "square-difference-free" in capsys.readouterr().out


def test_sdf_verify_rejects(capsys):
    assert run(["sdf", "verify", "--elements", "0,1,4",
                "--mod", "25"]) == EXIT_REJECTED


@pytest.mark.parametrize("elements", [",", "0,1"])
@pytest.mark.parametrize("modulus", ["0", "-4"])
def test_sdf_verify_nonpositive_modulus_is_usage_error(capsys, elements,
                                                      modulus):
    assert run(["sdf", "verify", "--elements", elements,
                "--mod", modulus]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "modulus must be positive" in captured.err


def test_sdf_build_and_max(capsys):
    assert run(["sdf", "build", "--n", "50", "--format",
                "json"]) == EXIT_OK
    built = json.loads(capsys.readouterr().out)
    assert built["size"] == len(built["elements"]) > 0
    assert run(["sdf", "max", "--n", "20", "--format", "json"]) == EXIT_OK
    best = json.loads(capsys.readouterr().out)
    assert best["size"] == 8


def test_sdf_build_with_basis_uses_it_below_the_guard(capsys):
    # the README example: --basis is the truncated digit construction,
    # not the N <= 60 brute-force maximum (14 elements)
    assert run(["sdf", "build", "--n", "50", "--basis", "5,0,2"]) == EXIT_OK
    assert capsys.readouterr().out == "n=50 size=10\n1,3,6,8,11,13,16,18,21,23\n"


def test_ilp_export_counts(tmp_path, capsys):
    out = tmp_path / "m.lp"
    assert run(["ilp-export", "--q", "2", "--k", "2", "--cap", "3",
                "--out", str(out)]) == EXIT_OK
    assert "45 binary variables" in capsys.readouterr().out
    assert out.read_text().startswith("\\ maximum")


def test_ilp_export_stdout(capsys):
    assert run(["ilp-export", "--q", "2", "--k", "2",
                "--cap", "1"]) == EXIT_OK
    assert "Maximize" in capsys.readouterr().out


def test_ilp_export_has_no_format_flag(capsys):
    # the model is LP text whatever is asked, so --format is refused
    with pytest.raises(SystemExit) as exc:
        run(["ilp-export", "--q", "2", "--k", "2", "--cap", "1",
             "--format", "json"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_construct_oval_roundtrip(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(["construct", "--method", "oval", "--q", "9", "--k", "5",
                "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", "--in", str(out)]) == EXIT_OK


def test_construct_generic(capsys):
    assert run(["construct", "--method", "generic", "--k", "3",
                "--format", "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["num_sets"] == 1 and res["k"] == 3 and res["q"] == 17


def test_construct_lift_prime(tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert run(["construct", "--method", "lift-prime", "--k", "2",
                "--p", "1777", "--basis", "5,0,2",
                "--out", str(out)]) == EXIT_OK
    assert "sets=90" in capsys.readouterr().out
    assert run(["verify", "--in", str(out),
                "--mode", "sample:20000:1"]) == EXIT_OK


def test_construct_lift_prime_rejects_defective_seed(capsys):
    # the published 3-set seed contains horizontal translates at
    # distance 1, so its digit lift collides; the CLI must surface that
    rc = run(["construct", "--method", "lift-prime",
              "--seed-file", fixture_path("example_i_seed.json"),
              "--p", "1031", "--basis", "5,0,2"])
    assert rc == EXIT_REJECTED
    assert "repeats" in capsys.readouterr().out


def test_construct_case1(capsys):
    assert run(["construct", "--method", "case1", "--p", "11",
                "--format", "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["num_sets"] == 55 and res["q"] == 121


def test_json_reports_verification_mode_pairs_and_time(tmp_path, capsys):
    # a translation lift is decided exactly from its layout
    out = tmp_path / "case1.json"
    assert run(["construct", "--method", "case1", "--p", "11",
                "--out", str(out), "--format", "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["verification"] == "full"
    assert res["verify_mode"] == "translation"
    assert res["pairs_checked"] > 0 and res["verify_s"] >= 0
    assert run(["verify", "--in", str(out), "--format", "json"]) == EXIT_OK
    again = json.loads(capsys.readouterr().out)
    assert again["verify_mode"] == "fast"  # a stored family has no layout
    # a sampled lift
    assert run(["construct", "--method", "lift-prime", "--k", "2",
                "--p", "1777", "--basis", "5,0,2",
                "--verify", "sample:3000:1", "--format", "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["verification"] == "sampled 3000 pairs"
    assert res["verify_mode"] == "sample" and res["pairs_checked"] == 3000
    assert res["verify_s"] >= 0
    assert run(["construct", "--method", "oval", "--q", "9", "--k", "2",
                "--verify", "none", "--format", "json"]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)
    assert res["verification"] == "skipped"
    assert res["verify_mode"] is res["pairs_checked"] is res["verify_s"] \
        is None
    # the text line is unchanged
    assert run(["construct", "--method", "lift-prime", "--k", "2",
                "--p", "1777", "--basis", "5,0,2",
                "--verify", "sample:3000:1"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "q=1777 sets=90 k=2 verification=sampled 3000 pairs "
        "provenance=lift_prime(r=7,m=5,t=2,p=1777)\n")


def test_tsv_is_offered_by_table_only(capsys):
    for argv in (["bound", "--q", "7", "--k", "3"],
                 ["construct", "--method", "best", "--q", "9", "--k", "2"],
                 ["search", "--q", "3", "--k", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--format", "tsv"])
        assert exc.value.code == EXIT_USAGE, argv
    assert "invalid choice: 'tsv'" in capsys.readouterr().err


def test_construct_best_reports_branches(capsys):
    assert run(["construct", "--method", "best", "--q", "121",
                "--k", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# oval_partition: 61" in out
    assert "sets=61" in out


def test_construct_best_json_carries_the_branch_report(capsys):
    assert run(["construct", "--method", "best", "--q", "25", "--k", "2",
                "--format", "json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)
    assert row["num_sets"] == 13
    assert row["branches"] == {"oval_partition": 13, "case1": 10,
                               "winner": "oval_partition(q=25,k=2)"}


def test_construct_json_of_other_methods_has_no_branches(capsys):
    assert run(["construct", "--method", "oval", "--q", "25", "--k", "2",
                "--format", "json"]) == EXIT_OK
    assert list(json.loads(capsys.readouterr().out)) == [
        "q", "num_sets", "k", "provenance", "verification", "verify_mode",
        "pairs_checked", "verify_s", "out"]


@pytest.mark.parametrize("argv,message", [
    (["--method", "oval"], "oval needs --q and --k"),
    (["--method", "oval", "--q", "25"], "oval needs --q and --k"),
    (["--method", "oval", "--k", "2"], "oval needs --q and --k"),
    (["--method", "best"], "best needs --q and --k"),
    (["--method", "best", "--q", "25"], "best needs --q and --k"),
    (["--method", "best", "--k", "2"], "best needs --q and --k"),
    (["--method", "generic"], "generic needs --k"),
    (["--method", "lift-prime"], "lift-prime needs --p and --basis"),
    (["--method", "lift-prime", "--p", "11", "--k", "2"],
     "lift-prime needs --p and --basis"),
    (["--method", "lift-prime", "--p", "11", "--basis", "5,0,2"],
     "lift-prime needs --seed-file or --k"),
    (["--method", "case1"], "case1 needs --seed-file or --p"),
    (["--method", "case1", "--k", "2"], "case1 needs --seed-file or --p"),
    (["--method", "case2", "--t", "2"], "case2 needs --seed-file or --p"),
    (["--method", "case3", "--m", "3"], "case3 needs --seed-file or --p"),
    (["--method", "case2"], "case2 needs --t"),
    (["--method", "case2", "--p", "5"], "case2 needs --t"),
    (["--method", "case3"], "case3 needs --m"),
    (["--method", "case3", "--p", "5"], "case3 needs --m"),
])
def test_construct_missing_arguments_are_usage_errors(argv, message, capsys):
    assert run(["construct", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("family,key", [
    ({"p": 5, "q": "5", "sets": []}, "q"),
    ({"p": 5, "m": 4, "tower": "yes", "sets": []}, "tower"),
    ({"p": True, "sets": []}, "p"),
    ({"p": 5, "m": 2.0, "sets": []}, "m"),
])
def test_verify_refuses_mistyped_field_header(tmp_path, capsys, family, key):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family))
    assert run(["verify", "--in", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: malformed family: {key} ")
    assert captured.out == ""


def test_table_small(capsys):
    assert run(["table", "--q", "2,3", "--format", "tsv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("q\tk\tfound")
    assert len(lines) == 7
    assert all("exact-match" in ln for ln in lines[1:])


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--q", "7"])  # missing --k
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    assert run(["construct", "--method", "lift-prime",
                "--p", "7"]) == EXIT_USAGE  # no seed source
    assert run(["construct", "--method", "case3",
                "--p", "13"]) == EXIT_USAGE  # missing --m


@pytest.mark.parametrize("alphabet", ["1,100000", "-1,3", "1,30", "1,3,3"])
def test_construct_case3_bad_alphabet_is_usage_error(alphabet, capsys):
    assert run(["construct", "--method", "case3", "--p", "23", "--m", "3",
                "--M1", "8", "--M2", "6",
                f"--alphabet={alphabet}"]) == EXIT_USAGE
    assert "distinct values in [0, 23)" in capsys.readouterr().err


def test_workers_flag_is_gone():
    # the search engine is serial, so there is no --workers flag
    with pytest.raises(SystemExit) as exc:
        run(["search", "--q", "3", "--k", "2", "--workers", "2"])
    assert exc.value.code == EXIT_USAGE == 2


def test_search_lp_flags_are_gone():
    # ilp-export writes the model, with --fix-first, so search does not
    for flags in (["--emit-lp", "m.lp"], ["--fix-first"]):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--q", "4", "--k", "3", *flags])
        assert exc.value.code == EXIT_USAGE


def _readme_commands() -> list[str]:
    """The localarc lines of the README's CLI block, continuations joined
    and comments dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        line = pending + line.split("#", 1)[0].strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1]
        elif line:
            commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) > 10
    parser = cli._build_parser()
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "localarc", command
        parser.parse_args(argv[1:])


def test_run_config_validation(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--q", "7", "--k", "3", "--format", "xml"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    # a bad mode is rejected before any family is built
    monkeypatch.setattr(cli, "oval_partition",
                        lambda *a: pytest.fail("family built"))
    for mode in ("maybe", "sample", "sample:abc", "sample:10:x",
                 "sample:10:1:junk", "sample:0", "sample:-5"):
        assert run(["construct", "--method", "oval", "--q", "7", "--k", "3",
                    "--verify", mode]) == EXIT_USAGE, mode
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""
    for mode in ("sample:1:2:3", "sample:x"):
        assert run(["verify", "--in", fixture_path("example_i.json"),
                    "--mode", mode]) == EXIT_USAGE, mode


def test_verify_mode_none_is_usage_error(capsys):
    # `verify` exists to verify; only `construct` may skip it
    assert run(["verify", "--in", fixture_path("example_i.json"),
                "--mode", "none"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert captured.out == ""


def test_sample_seeds_outside_the_stream_range_are_usage_errors(capsys):
    # the stream reads the seed mod 2^64, so -1 and 2^64 - 1 (and 0 and
    # 2^64) would draw the same pairs and report different seeds
    oval = ["construct", "--method", "oval", "--q", "7", "--k", "3",
            "--format", "json", "--verify"]
    stored = ["verify", "--in", fixture_path("example_i.json"), "--mode"]
    for seed in (-1, 2**64, 2**64 + 7):
        for argv in (oval, stored):
            assert run(argv + [f"sample:50:{seed}"]) == EXIT_USAGE, seed
            captured = capsys.readouterr()
            assert captured.err.startswith("usage error: ")
            assert "seed" in captured.err and captured.out == ""
    for seed in (0, 2**64 - 1):
        assert run(oval + [f"sample:50:{seed}"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pairs_checked"] == 50
        assert run(stored + [f"sample:50:{seed}"]) == EXIT_OK
        capsys.readouterr()


@pytest.mark.parametrize("given", [["--M1", "8"], ["--M2", "6"]])
def test_construct_case3_needs_both_or_neither_m(given, capsys):
    assert run(["construct", "--method", "case3", "--p", "23", "--m", "3",
                "--alphabet", "1,3"] + given) == EXIT_USAGE
    assert "M1 and M2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--budget", "--cap"])
def test_search_nonpositive_limits_are_usage_errors(flag, capsys):
    assert run(["search", "--q", "3", "--k", "2", flag, "0"]) == EXIT_USAGE
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--q", "7", "--k", "2"],
    ["table", "--q", "2", "--k", "2"],
])
def test_nan_budget_is_a_usage_error(argv, capsys):
    # a NaN budget never expires: without the check (7, 2) runs for hours
    assert run(argv + ["--budget", "nan"]) == EXIT_USAGE
    assert "budget must be positive" in capsys.readouterr().err


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "localarc.cli", "bound", "--q", "11",
         "--k", "4"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split("\t")[0] == "11"


@pytest.mark.parametrize("argv,code", [
    (["bound", "--q", "7", "--k", "2"], EXIT_OK),
    (["search", "--q", "4", "--k", "1"], EXIT_USAGE),
])
def test_package_runs_as_a_module(argv, code):
    proc = subprocess.run([sys.executable, "-m", "localarc", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr


def test_verify_of_a_degree_60_family_ends_in_seconds(tmp_path):
    # the field is built before the family is read: its modulus search
    # must not run over every lower-degree divisor
    fam = tmp_path / "gf2_60.json"
    fam.write_text('{"p": 2, "m": 60, "sets": []}')
    proc = subprocess.run(
        [sys.executable, "-m", "localarc.cli", "verify", "--in", str(fam)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert "odd characteristic" in proc.stderr


def test_determinism_same_flags_same_output(capsys):
    run(["search", "--q", "5", "--k", "3", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    run(["search", "--q", "5", "--k", "3", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_paper_scale_lift_is_rejected_exactly(capsys):
    # the 3,018,420-set lift of example_i_seed at the smallest admissible
    # prime for (205, A205) lists the u = 1 copy of seed set 2 again as a
    # copy of seed set 3, and the exact check names that pair every time
    code = run(["construct", "--method", "lift-prime",
                "--seed-file", fixture_path("example_i_seed.json"),
                "--p", "1723027",
                "--basis", "205,0,2,8,14,77,79,85,96,103,109,111,181"])
    assert code == EXIT_REJECTED
    assert capsys.readouterr().out == \
        "rejected: point (1,126075) repeats in sets [2, 1512901]\n"


# ---------------------------------------------------------------------------
# pinned outputs of each format and outcome


def test_verify_seed_json_format(capsys):
    assert run(["verify", "--in", fixture_path("example_i_seed.json"),
                "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "ok": True, "cond_a": True, "cond_b": True, "cond_c": True,
        "r_prime": 8, "failures": []}


_SEED_MOD_3_FAILURES = [
    "(a) reduction is not a local arc",
    "(b) integer lines do not reduce to the secants",
    "(c) a mod-r incidence fails over the integers",
]


def test_verify_failing_seed_prints_each_rejection(tmp_path, capsys):
    # reduced mod 3 instead of 5, the example-i seed fails all three
    # conditions
    seed = json.loads((resources.files("localarc") / "fixtures"
                       / "example_i_seed.json").read_text())
    seed["r"] = 3
    path = tmp_path / "seed3.json"
    path.write_text(json.dumps(seed))
    assert run(["verify", "--in", str(path)]) == EXIT_REJECTED
    assert capsys.readouterr().out == (
        "ok=False (a)=False (b)=False (c)=False r'=8\n"
        + "".join(f"rejected: {reason}\n" for reason in _SEED_MOD_3_FAILURES))
    assert run(["verify", "--in", str(path),
                "--format", "json"]) == EXIT_REJECTED
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "cond_a": False, "cond_b": False, "cond_c": False,
        "r_prime": 8, "failures": _SEED_MOD_3_FAILURES}


def test_sdf_verify_json_format(capsys):
    elements = "0,2,8,14,77,79,85,96,103,109,111,181"
    assert run(["sdf", "verify", "--elements", elements, "--mod", "205",
                "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "modulus": 205, "ok": True, "size": 12}
    assert run(["sdf", "verify", "--elements", "0,1,4", "--mod", "25",
                "--format", "json"]) == EXIT_REJECTED
    assert json.loads(capsys.readouterr().out) == {
        "modulus": 25, "ok": False, "size": 3}


def test_sdf_max_text(capsys):
    assert run(["sdf", "max", "--n", "20"]) == EXIT_OK
    assert capsys.readouterr().out == "n=20 max=8\n1,3,6,8,11,13,16,18\n"


def _oval4_file(tmp_path) -> str:
    from localarc.arcs import family_to_dict
    from localarc.construct import oval_partition
    path = tmp_path / "oval4.json"
    path.write_text(json.dumps(family_to_dict(oval_partition(27, 4))))
    return str(path)


def test_lrc_params_json_format(tmp_path, capsys):
    assert run(["lrc-params", "--in", _oval4_file(tmp_path),
                "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "n": 28, "k": 18, "d": 6, "r": 3, "q": 27,
        "singleton_optimal": True}


def test_table_json_format(capsys):
    assert run(["table", "--q", "2,3", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert all(row.pop("elapsed_seconds") >= 0 for row in rows)
    # (found, nodes) per cell; a k > 2 cell holds one set, found at once
    cells = {(2, 2): (3, 4), (3, 2): (4, 6)}
    expected = []
    for q in (2, 3):
        for k in (2, 3, 4):
            found, nodes = cells.get((q, k), (1, 0))
            expected.append({"q": q, "k": k, "found": found, "optimal": True,
                             "reference": found, "reference_exact": True,
                             "status": "exact-match", "nodes": nodes})
    assert rows == expected


def test_construct_case2_text(capsys):
    assert run(["construct", "--method", "case2", "--p", "5",
                "--t", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "q=625 sets=250 k=2 verification=full "
        "provenance=conic_seed(p=5,k=2)|case1(p=5)|case2(p=5,t=2)\n")


_JSON_RUNS = [
    ["construct", "--method", "best", "--q", "25", "--k", "2"],
    ["verify", "--in", fixture_path("example_i.json")],
    ["verify", "--in", fixture_path("example_ii_seed.json")],
    ["bound", "--q", "7", "--k", "4"],
    ["search", "--q", "4", "--k", "3"],
    ["sdf", "verify", "--elements", "0,2,8,14,77,79,85,96,103,109,111,181",
     "--mod", "205"],
    ["sdf", "build", "--n", "50"],
    ["sdf", "max", "--n", "20"],
    ["lrc-params", "--in", "{oval4}"],
    ["table", "--q", "2,3"],
]


def test_json_runs_cover_every_subcommand_with_a_format():
    assert {argv[0] for argv in _JSON_RUNS} == set(cli._DISPATCH) - {
        "ilp-export"}
    assert {argv[1] for argv in _JSON_RUNS if argv[0] == "sdf"} == {
        "verify", "build", "max"}


@pytest.mark.parametrize("argv", _JSON_RUNS)
def test_json_success_is_one_json_line(tmp_path, capsys, argv):
    argv = [_oval4_file(tmp_path) if a == "{oval4}" else a for a in argv]
    assert run(argv + ["--format", "json"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


# ---------------------------------------------------------------------------
# inputs that once ended in a traceback


_NO_BRANCH = "no construction applies at q = {}, k = {}"


@pytest.mark.parametrize("argv,message", [
    *[(["--method", "best", "--q", q, "--k", k], _NO_BRANCH.format(q, k))
      for q, k in (("7", "0"), ("7", "1"), ("7", "30"), ("3", "5"))],
    # an explicit --k 0 is not a missing --k
    *[([*method, "--k", k], "set size k must be at least 2")
      for method in (["--method", "case1", "--p", "5"],
                     ["--method", "case2", "--p", "5", "--t", "2"],
                     ["--method", "case3", "--p", "5", "--m", "3"])
      for k in ("0", "1", "-1")],
    *[(["--method", "best", "--q", q, "--k", k], _NO_BRANCH.format(q, k))
      for q in ("9", "25", "27") for k in ("0", "1", "-1")],
])
def test_construct_refusals_are_usage_errors(argv, message, capsys):
    assert run(["construct", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["construct", "--method", "oval", "--q", "9", "--k", "2", "--out"],
    ["search", "--q", "4", "--k", "3", "--certificate"],
    ["ilp-export", "--q", "2", "--k", "2", "--cap", "1", "--out"],
])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    assert run(argv + [str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {path}: ")


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(method=st.sampled_from(("oval", "generic", "best", "case1", "case2",
                               "case3")),
       p=st.integers(min_value=-2, max_value=7),
       q=st.integers(min_value=-2, max_value=27),
       k=st.integers(min_value=-2, max_value=30),
       t=st.integers(min_value=-1, max_value=3),
       m=st.integers(min_value=-1, max_value=5),
       fmt=st.sampled_from(("text", "json")))
@example(method="best", p=7, q=7, k=0, t=2, m=3, fmt="text")
@example(method="best", p=3, q=9, k=0, t=2, m=3, fmt="json")
def test_small_construct_inputs_never_crash(capsys, method, p, q, k, t, m,
                                            fmt):
    # each method reads only the flags it needs
    code = run(["construct", "--method", method, "--p", str(p),
                "--q", str(q), "--k", str(k), "--t", str(t), "--m", str(m),
                "--format", fmt])
    captured = capsys.readouterr()
    if code == EXIT_REJECTED:
        assert any(line.startswith("rejected: ")
                   for line in captured.out.splitlines())
    elif code == EXIT_USAGE:
        assert captured.err.startswith("usage error: ")
    else:
        assert code == EXIT_OK
