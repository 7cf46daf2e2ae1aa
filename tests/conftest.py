import random

import pytest

# One line per acceptance criterion, printed after the run so the pass/fail
# status of each numbered requirement is visible at a glance.
_ACCEPTANCE: list[tuple[int, str]] = []


@pytest.fixture
def acceptance_line():
    def record(criterion: int, ok: bool, text: str) -> None:
        status = "PASS" if ok else "FAIL"
        _ACCEPTANCE.append((criterion, f"criterion {criterion:2d} {status}  {text}"))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(20260819)
