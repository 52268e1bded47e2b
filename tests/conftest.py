"""Fixtures shared by the test modules."""

import os

import pytest

import localarc.arcs as arcs_mod
import localarc.search as search_mod
from localarc import cores
from localarc.arcs import _CHUNK


@pytest.fixture
def force_shards(monkeypatch):
    """force_shards(n, samples) makes sample_verify split `samples` into
    n shards, as on n CPUs; force_shards(n) makes exact_max split its
    tree between n processes once it is 256 nodes old.  This process's
    real CPU mask is restored after the test."""
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(arcs_mod, "_SHARD_MIN", _CHUNK)
    monkeypatch.setattr(search_mod, "_FORK_NODES", 256)

    def force(n, samples=None):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        assert len(cores.cpus()) == n
        if samples is not None:
            assert len(arcs_mod._shards(samples)) == n

    yield force
    os.sched_setaffinity(0, mask)
