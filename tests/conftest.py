"""Checks shared by every test module."""

import multiprocessing
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_running():
    yield
    assert multiprocessing.active_children() == []


def running(pid: int) -> bool:
    """Whether process pid exists and has not exited; reads /proc."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")
