"""Shared fixtures."""

import os

import pytest


@pytest.fixture(params=["forked", "in-process"])
def cpus(request, monkeypatch):
    """Run the test with two usable CPUs, so `harness.run_checks` forks
    workers, and again with one, so it runs every task in this process."""
    count = 2 if request.param == "forked" else 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    return count
