"""Fourier-Motzkin elimination only lists lattice points; the phase-1
simplex answers every feasibility and boundedness question.  Within the
package only `exactlin.lattice_points` reaches the elimination tower
(`_fm_tower`) and its interval reader (`_interval`), so a second
feasibility routine built on them cannot come back unnoticed.  The
enumeration runs on the tower's integer rows: neither `_interval` nor
`lattice_points` builds a `Fraction` or rounds one.  No point is tested
for membership (`HalfspaceSystem.contains`): each level's interval applies
every row of the tower with a nonzero coefficient on its variable, so a
point that reaches the last coordinate satisfies every row."""

from ast_refs import references

FM = {"_fm_tower", "_interval", "_fm_eliminate", "_normalize_row"}


def test_only_lattice_points_reaches_fourier_motzkin():
    refs = references()
    direct = {key for key, names in refs.items() if names & FM}
    assert direct == {"exactlin.lattice_points", "exactlin._fm_tower",
                      "exactlin._fm_eliminate"}
    # within exactlin, nothing reaches them through another function either
    exactlin = {key.split(".")[1]: names for key, names in refs.items()
                if key.startswith("exactlin.")}
    reach = set(FM)
    while True:
        more = {name for name, names in exactlin.items() if names & reach} - reach
        if not more:
            break
        reach |= more
    assert reach - FM == {"lattice_points"}


def test_enumeration_runs_on_integer_rows():
    refs = references()
    for name in ("_interval", "lattice_points"):
        assert not refs[f"exactlin.{name}"] & {"Fraction", "ceil", "floor"}, name
    assert "contains" not in refs["exactlin.lattice_points"]
