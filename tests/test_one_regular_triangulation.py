"""`fan.qfactorialize` and `fan.common_refinement` (through
`fan._regular_triangulation`) and `corpus.random_complete_fan` build the
same object, the regular subdivision that integer lifting heights induce,
with one routine: `fan.regular_cells`, which reads each cell off the signed
minors of the lifted rows.  Neither it nor its callers solves a `Fraction`
system per subset, so a second subdivision routine cannot come back
unnoticed.  (The `Fraction` solve is the oracle `fan_oracle.regular_cells`.)"""

from ast_refs import references

ELIMINATION = {"solve_linear", "nullspace", "_rref"}


def test_one_regular_subdivision_routine():
    refs = references()
    assert "fan._regular_cells" not in refs
    # qfactorialize and common_refinement triangulate through one loop
    assert "regular_cells" in refs["fan._regular_triangulation"]
    assert "_regular_triangulation" in refs["fan.qfactorialize"]
    assert "_regular_triangulation" in refs["fan.common_refinement"]
    assert "regular_cells" in refs["corpus.random_complete_fan"]
    for key in ("fan.regular_cells", "fan.qfactorialize",
                "fan._regular_triangulation", "corpus.random_complete_fan"):
        assert not refs[key] & ELIMINATION, key
    assert "primitive_kernel" in refs["fan.regular_cells"]
