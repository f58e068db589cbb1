"""The scripts next to the package import without touching ``sys.path``,
and ``cli_digests --compare`` pairs the cells of two CSVs by column name."""
import importlib
import sys
from pathlib import Path

import pytest

from cli_digests import compare

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_every_script_imports(path):
    """A script that reads a name the package no longer has fails here, not
    when someone first runs it."""
    importlib.import_module(path.stem)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_importing_a_script_leaves_sys_path_unchanged(path):
    """Only a script run as a program may put the package's ``src`` on the
    path; importing one, as this suite and ``make_reference_scenario`` do,
    changes nothing for the importer."""
    before = list(sys.path)
    sys.modules.pop(path.stem, None)  # executed afresh, not taken from the cache
    importlib.import_module(path.stem)
    assert sys.path == before


def test_compare_pairs_cells_by_column_name(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        (tree / "run").mkdir(parents=True)
    # columns a and b swapped, c dropped: no cell the two sides share moved
    (old / "run" / "table.csv").write_text("a,b,c\n1,2,3\n4,5,6\n")
    (new / "run" / "table.csv").write_text("b,a\n2,1\n5,4\n")
    (old / "run" / "added.csv").write_text("a,b\n1,x\n")
    (new / "run" / "added.csv").write_text("a,b,e\n1.5,y,0\n")
    (old / "run" / "rows.csv").write_text("a\n1\n")
    (new / "run" / "rows.csv").write_text("a\n1\n2\n")
    (old / "run" / "same.csv").write_text("a\n1\n")
    (new / "run" / "same.csv").write_text("a\n1\n")
    (old / "gone.csv").write_text("a\n1\n")
    (new / "run" / "extra.csv").write_text("d\n7\n")
    compare(old, new)
    assert capsys.readouterr().out.splitlines() == [
        f"gone.csv: missing under {new}",
        "run/added.csv: added columns e, 1 rows, max abs 0.5, max rel 0.333, other cells 1",
        f"run/extra.csv: only under {new}",
        "run/rows.csv: rows 1 -> 2",
        "run/table.csv: dropped columns c, 2 rows, max abs 0, max rel 0, other cells 0",
    ]
