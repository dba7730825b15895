import multiprocessing
import os
import signal

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-long",
        action="store_true",
        default=False,
        help="run tests marked 'long' (multi-minute sweeps)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long") or os.environ.get("LEAGUE_TIES_LONG") == "1":
        return
    skip_long = pytest.mark.skip(reason="long test; enable with --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip_long)


@pytest.fixture
def started(monkeypatch):
    """Every process started during the test, in start order."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        processes.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return processes


@pytest.fixture
def deadline():
    """Fail a test that runs past 120 s, instead of letting a lost worker hang it."""

    def hung(signum, frame):
        # Not TimeoutError: it is an OSError, which multiprocessing's
        # waitpid wrapper swallows, and a hung join would go on waiting.
        pytest.fail("the test ran past its 120 s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
