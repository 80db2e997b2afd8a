import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from brownlab import search

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 30   # bytes a subprocess of python_m may map


@pytest.fixture()
def inline_pool(monkeypatch):
    """Run the search's pool tasks in the test process, so a split starts no
    process; the returned list gets the pool size of each split."""
    started = []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return list(itertools.starmap(fn, tasks))

    monkeypatch.setattr(search, "Pool", InlinePool)
    return started


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.fixture()
def python_m():
    """``python_m(*argv)`` runs ``python -m brownlab *argv`` in a subprocess that
    imports this checkout's src/, and returns ``(exit code, stdout, stderr)``.
    The subprocess may map at most 1 GiB and run at most 10 s, so a command that
    would build a huge object ends in a MemoryError or a timeout instead of
    exhausting the host."""
    def run(*argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                           os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "brownlab", *argv], capture_output=True,
                              text=True, env=env, timeout=10, preexec_fn=_cap_address_space)
        return done.returncode, done.stdout, done.stderr
    return run
