"""Fourier-Motzkin elimination only lists lattice points; the phase-1
simplex answers every feasibility and boundedness question.  Within the
package only `exactlin.lattice_points` reaches the elimination tower
(`_fm_tower`) and its interval reader (`_interval`), so a second
feasibility routine built on them cannot come back unnoticed.  The
enumeration runs on the tower's integer rows: neither `_interval` nor
`lattice_points` builds a `Fraction` or rounds one, and the last
coordinate's membership test reads the tower, not
`HalfspaceSystem.contains`."""

import ast
from pathlib import Path

import toricmmp

FM = {"_fm_tower", "_interval", "_fm_eliminate", "_normalize_row"}


def _references(path):
    """{top-level name: the names and attributes it mentions}; statements
    that define no name are kept under the module's own name."""
    out = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        key = getattr(node, "name", path.stem)
        names = out.setdefault(key, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return out


def test_only_lattice_points_reaches_fourier_motzkin():
    package = Path(toricmmp.__file__).parent
    direct = set()
    for path in sorted(package.glob("*.py")):
        direct |= {f"{path.stem}.{name}"
                   for name, names in _references(path).items() if names & FM}
    assert direct == {"exactlin.lattice_points", "exactlin._fm_tower",
                      "exactlin._fm_eliminate"}
    # within exactlin, nothing reaches them through another function either
    refs = _references(package / "exactlin.py")
    reach = set(FM)
    while True:
        more = {name for name, names in refs.items() if names & reach} - reach
        if not more:
            break
        reach |= more
    assert reach - FM == {"lattice_points"}


def test_enumeration_runs_on_integer_rows():
    refs = _references(Path(toricmmp.__file__).parent / "exactlin.py")
    for name in ("_interval", "lattice_points"):
        assert not refs[name] & {"Fraction", "ceil", "floor"}, name
    assert "contains" not in refs["lattice_points"]
