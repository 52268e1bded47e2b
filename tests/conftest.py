"""Fixtures shared by the test modules."""

import os

import pytest

import localarc.search as search_mod
from localarc import cores


@pytest.fixture
def force_shards(monkeypatch):
    """force_shards(n) makes exact_max split its tree between n processes,
    as on n CPUs, once it is 256 nodes old.  This process's real CPU mask
    is restored after the test."""
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(search_mod, "_FORK_NODES", 256)

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        assert len(cores.cpus()) == n

    yield force
    os.sched_setaffinity(0, mask)
