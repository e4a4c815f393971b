import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import biokex
from biokex.pipeline import side_by_side


def test_side_by_side_returns_results_in_argument_order():
    # first waits for second to start, which only a second thread can do
    started = threading.Event()
    threads = []

    def first():
        threads.append(threading.get_ident())
        assert started.wait(5)
        return "first"

    def second():
        started.set()
        threads.append(threading.get_ident())
        return "second"

    assert side_by_side(first, second) == ("first", "second")
    assert len(set(threads)) == 2


def test_side_by_side_first_exception_waits_for_second():
    # first fails at once; its exception propagates only after second has
    # finished, and wins over second's own
    started = threading.Event()
    finished = []

    def first():
        assert started.wait(5)
        raise ValueError("first")

    def second():
        started.set()
        time.sleep(0.05)
        finished.append(True)
        raise RuntimeError("second")

    with pytest.raises(ValueError, match="first"):
        side_by_side(first, second)
    assert finished == [True]


def test_side_by_side_second_exception_surfaces():
    def second():
        raise RuntimeError("second")

    with pytest.raises(RuntimeError, match="second"):
        side_by_side(lambda: "first", second)


def test_side_by_side_runs_in_a_forked_child():
    # the child inherits the parent's executor but not its worker thread; an
    # alarm ends a child that waits for the missing thread
    script = (
        "import os, signal\n"
        "from biokex.pipeline import side_by_side\n"
        "assert side_by_side(lambda: 1, lambda: 2) == (1, 2)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    os._exit(0 if side_by_side(lambda: 3, lambda: 4) == (3, 4) else 1)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
    )
    src = str(Path(biokex.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
