"""Command line behavior: exit codes, formats, round trips."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources

import pytest

from localarc.cli import (
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    RunConfig,
    UsageError,
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


def test_search_writes_certificate_and_lp(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    lp = tmp_path / "model.lp"
    assert run(["search", "--q", "7", "--k", "4",
                "--certificate", str(cert), "--emit-lp", str(lp),
                "--fix-first"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "found=3" in out and "optimal=True" in out

    from localarc.arcs import family_from_dict, verify_local_arc
    from localarc.search import check_certificate
    fam = family_from_dict(json.loads(cert.read_text()))
    assert verify_local_arc(fam).ok
    chk = check_certificate(fam, text=lp.read_text())
    assert chk.ok and chk.objective == 3


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


def test_sdf_build_and_max(capsys):
    assert run(["sdf", "build", "--n", "50", "--format",
                "json"]) == EXIT_OK
    built = json.loads(capsys.readouterr().out)
    assert built["size"] == len(built["elements"]) > 0
    assert run(["sdf", "max", "--n", "20", "--format", "json"]) == EXIT_OK
    best = json.loads(capsys.readouterr().out)
    assert best["size"] == 8


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


def test_construct_best_reports_branches(capsys):
    assert run(["construct", "--method", "best", "--q", "121",
                "--k", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# oval_partition: 61" in out
    assert "sets=61" in out


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


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(subcommand="bound", fmt="xml")
    with pytest.raises(UsageError):
        RunConfig(subcommand="construct", verify_mode="maybe")


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "localarc.cli", "bound", "--q", "11",
         "--k", "4"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split("\t")[0] == "11"


def test_determinism_same_flags_same_output(capsys):
    run(["search", "--q", "5", "--k", "3", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    run(["search", "--q", "5", "--k", "3", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second
