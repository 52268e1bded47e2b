"""The benchmark's sampled workload never runs the sample stream: both of
its families cost less to decide exactly than to sample, so sample_verify
answers from the exact verdict.  A change that sends either command back
to the stream fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

import localarc.arcs as arcs_mod
from localarc.cli import run

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def no_stream(*args):
    raise AssertionError("the sample stream ran")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_sampled_workload_is_decided_without_the_stream(seed, workloads,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(arcs_mod, "_first_failure", no_stream)
    commands = workloads.SAMPLE_VERIFY.commands
    assert commands
    for cmd in commands:
        argv = [a.format(seed=seed) for a in cmd.argv]
        assert any(a.startswith("sample:") for a in argv)
        rc = run(argv)
        fields = workloads.parse_output(argv[0], capsys.readouterr().out)
        assert workloads.check(cmd, rc, fields) == [], cmd.tag
