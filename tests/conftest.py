import itertools

import pytest

from brownlab import search


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
