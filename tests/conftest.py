"""Checks that hold for every test."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Fail a test that leaves a child process unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid or '(running)'} left unreaped")
