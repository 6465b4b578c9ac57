"""Critical groups of C4 x Cn: three routes to the same answer.

The critical group (sandpile group) of a connected graph is the torsion
of the Laplacian cokernel; its order is the spanning-tree count.  For
C4 x Cn a closed form exists, an 8x8 relations matrix reproduces it,
and the full 4n x 4n Laplacian SNF confirms both.
"""

from critgraph import (
    c4xcn,
    closed_form_group,
    closed_form_raw_factors,
    coeffs,
    group_of_graph,
    group_via_relations,
    relations_matrix,
    subgroup_check,
    verify_reduction_pipeline,
)

print("Layer-expansion coefficients (a_i, b_i, c_i):")
for i in range(7):
    print(f"  i={i}: {coeffs(i)}")

print("\nThe 8x8 relations matrix for n=5:")
print(relations_matrix(5))

print("\nThree routes for small n:")
for n in range(3, 9):
    closed = closed_form_group(n)
    assert closed == group_via_relations(n) == group_of_graph(c4xcn(n))
    print(f"  K(C4 x C{n}) = {closed}   (order {closed.order})")

print("\nThe seven-term closed form for n=6 is already a divisibility chain:")
raw = closed_form_raw_factors(6)
print("  seven terms:      ", raw)
print("  divisibility chain:", all(b % a == 0 for a, b in zip(raw, raw[1:])))
print("  1s stripped:      ", closed_form_group(6).invariant_factors)

print("\nDivisor pairs give subgroups (factorwise divisibility):")
for n1, n2 in ((3, 6), (3, 9), (4, 8), (5, 10), (3, 4)):
    print(f"  K(C4 x C{n1}) <= K(C4 x C{n2})? {subgroup_check(n1, n2)}")

print("\nStaged reduction replay for n=7 and n=8:")
for n in (7, 8):
    report = verify_reduction_pipeline(n)
    print(f"  n={n}: all {len(report.stage_checks)} stages pass = {report.all_passed}")
    for name, passed, detail in report.stage_checks:
        print(f"    [{'ok' if passed else 'FAIL'}] {name}: {detail}")
