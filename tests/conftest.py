"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor
import threading

import pytest

from ssdbcodi import metricspace


def pytest_configure(config):
    config.addinivalue_line("markers", "helpers: takes the helpers fixture, so its thread "
                                       "counts depend on how the host schedules threads")


def pytest_collection_modifyitems(items):
    # `-m helpers` selects these tests, for a run on a loaded host
    for item in items:
        if "helpers" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.helpers)


@pytest.fixture
def helpers(monkeypatch):
    """force(count): spread the row passes over workspaces of SPREAD_BYTES
    or more over the caller and count pool threads of a pool of their own.
    Returns the set of threads that ran a row block."""
    pools, ran = [], set()
    real = metricspace._spread

    def recording(out, n_rows, fn):
        def run(rows):
            ran.add(threading.get_ident())
            fn(rows)
        real(out, n_rows, run)

    def force(count):
        if count:
            pools.append(ThreadPoolExecutor(count))
            monkeypatch.setattr(metricspace, "_helpers", pools[-1])
        monkeypatch.setattr(metricspace, "_WORKERS", count + 1)
        ran.clear()
        return ran

    monkeypatch.setattr(metricspace, "_spread", recording)
    yield force
    for pool in pools:
        pool.shutdown(wait=True)
