"""Shared fixtures."""

import os
import sys

import pytest


@pytest.fixture(params=["forked", "in-process"])
def cpus(request, monkeypatch):
    """Run the test with two usable CPUs, so `harness.run_checks` forks
    workers, and again with one, so it runs every task in this process."""
    count = 2 if request.param == "forked" else 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    return count


@pytest.fixture
def default_digit_limit():
    """Run the test under CPython's default 4300-digit int<->str limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
