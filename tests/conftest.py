import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for nodeid in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[nodeid]
        name = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"  {name}: {status}")
