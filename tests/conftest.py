import json
import sys
from pathlib import Path

import pytest

# Make the shared oracle helpers, and the scenario calibration next to the
# script that builds the shipped scenario, importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from neodeflect.mission import load_scenario, reference_scenario_path, scenario_to_dict

# The shipped reference scenario, loaded once: the one source of the
# baseline blocks the tests build on, each varied by dataclasses.replace.
REFERENCE = load_scenario(reference_scenario_path())

# One summary line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: {status} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture()
def tiny_scenario(tmp_path):
    """Reference scenario file with solver budgets small enough for CLI
    smoke runs, its expert opinions named by absolute path."""
    doc = scenario_to_dict(REFERENCE)
    doc["solver"] = {
        "outer_budget": 24, "outer_pop": 6, "explorers": 1,
        "inner_budget": 8, "inner_pop": 4, "archive_capacity": 50,
    }
    doc["expert_opinions_file"] = str(
        reference_scenario_path().parent / "expert_opinions.json"
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path
