"""Regenerate the stored impact-parameter references of the accuracy panel.

Contamination off: the independent Cartesian route of the test suite
(two-body plus RTN thrust in Cartesian coordinates, tests/oracles.py).
Contamination on: neodeflect.mission.rk_impact_parameter, which carries
the contamination layer as an extra state. Each value is computed at two
relative tolerances a factor of 10 apart; the tighter one is stored and
the relative gap between them is stored as the reference's own
uncertainty.

    python3 perfbench/make_references.py
"""
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

from neodeflect.cli import parse_design  # noqa: E402
from neodeflect.mission import (  # noqa: E402
    load_scenario, reference_scenario_path, rk_impact_parameter,
)
from test_acceptance import cartesian_oracle_b  # noqa: E402
from workloads import PANEL  # noqa: E402

RTOLS = (1e-12, 1e-13)


def main() -> int:
    path = reference_scenario_path()
    scenario = load_scenario(path)
    u = scenario.fixed_uncertain
    routes = {
        "off": lambda design, rtol: cartesian_oracle_b(scenario, design, u, rtol)[0],
        "on": lambda design, rtol: rk_impact_parameter(scenario, design, u, True, rtol),
    }
    doc = {
        "scenario_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "rtol": list(RTOLS),
        "routes": {
            "off": "Cartesian two-body plus RTN thrust (tests/oracles.py)",
            "on": "neodeflect.mission.rk_impact_parameter",
        },
    }
    for tag, route in routes.items():
        doc[tag] = {}
        for text in PANEL:
            loose, tight = (route(parse_design(text), rtol) for rtol in RTOLS)
            doc[tag][text] = {
                "b_km": tight,
                "b_km_loose": loose,
                "gap_rel": abs(tight - loose) / tight,
            }
            print(tag, text, doc[tag][text], flush=True)
    (HERE / "references.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
