"""Tour of the three mesh families and their shape-regularity metrics.

Generates a cartesian grid, the concave/convex pentagon tiling and a
Lloyd-relaxed Voronoi tessellation, prints their regularity reports, and
round-trips one mesh through the JSON file format.
"""

import os
import tempfile

import numpy as np

from vemsupg import (
    check_regularity,
    generate_cartesian,
    generate_concave_pentagons,
    generate_voronoi,
    read_mesh,
    write_mesh,
)

print("== cartesian 8x8 ==")
mesh = generate_cartesian(8, 8)
print(mesh)
print(check_regularity(mesh))
print(f"max diameter h = {mesh.max_diameter():.5f}")

print("\n== concave pentagons, 4x4 blocks ==")
mesh = generate_concave_pentagons(4)
print(mesh)
rep = check_regularity(mesh)
print(rep)
print(f"areas sum to {mesh.cell_areas.sum():.15f}")

print("\n== Lloyd-relaxed Voronoi, 64 cells ==")
mesh = generate_voronoi(64, lloyd_iters=80, seed=11)
print(mesh)
print(check_regularity(mesh))
hist = mesh.vertex_count_histogram()
print("vertex-count histogram:", dict(sorted(hist.items())))

print("\n== file round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mesh.json")
    write_mesh(mesh, path)
    again = read_mesh(path)
    same = np.array_equal(again.vertices, mesh.vertices) and (
        [c.tolist() for c in again.cells] == [c.tolist() for c in mesh.cells])
    print(f"wrote {os.path.getsize(path)} bytes; identical after reload: {same}")
