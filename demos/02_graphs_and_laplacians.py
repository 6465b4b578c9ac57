"""Multigraph constructions and exact Laplacians.

The C4 x Cn family is n four-cycle layers joined ring-to-ring; vertex
(layer i, position j) is encoded as 4*i + j.
"""

from critgraph import (
    Multigraph,
    c4xcn,
    cartesian_product,
    cycle,
    det_bareiss,
    laplacian,
)

# a vertex's degree is its Laplacian diagonal entry
g = cycle(5)
lap = laplacian(g)
print(f"cycle(5): {g.vertex_count} vertices, {sum(g.edge_multiplicities.values())} edges,",
      "degrees", [lap[v, v] for v in range(5)])

prism = c4xcn(3)
prism_lap = laplacian(prism)
print(f"c4xcn(3): {prism.vertex_count} vertices, {sum(prism.edge_multiplicities.values())} edges,",
      "4-regular:", all(prism_lap[v, v] == 4 for v in range(12)))

print("\nc4xcn agrees with the generic Cartesian product under the same encoding:")
for n in (3, 5, 8, 13):
    same = c4xcn(n) == cartesian_product(cycle(4), cycle(n))
    print(f"  n={n}: {same}")

print("\nLaplacian of the triangle:")
print(laplacian(cycle(3)))

double = Multigraph(2, {(0, 1): 2})
print("\nLaplacian with a double edge:")
print(laplacian(double))

# Matrix-tree: delete any one row and column, take the determinant.
reduced = prism_lap.delete_row_col(0, 0)
print(f"\nspanning trees of c4xcn(3) via the reduced determinant: {det_bareiss(reduced)}")
print("spanning trees of cycle(n) is n:",
      [det_bareiss(laplacian(cycle(n)).delete_row_col(0, 0)) for n in range(3, 9)])
