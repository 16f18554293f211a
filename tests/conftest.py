"""Checks shared by every test module."""

import os

import pytest


def has_child() -> bool:
    """Whether this process has a child process, running or exited but not
    yet reaped (one such child gets reaped by the check)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_worker_left_running():
    yield
    assert not has_child()
