"""Evaluate the potential and field, and cross-check every path.

The library keeps two fully independent evaluations of the potential:
a closed form with one logarithm per edge (the line integral of 1/|PQ|
along it, weighted by the edge's distance to the point), and
an adaptive polar quadrature where only the smooth 1D angular integral
is done numerically. The quadrature targets 1e-10 relative; this demo
shows them agreeing to a few 1e-14 on V near 8, and probes the
closed-form field against finite differences.
"""

import numpy as np

from tripotential import (
    Point2,
    area,
    centroid,
    diameter,
    field_closed,
    potential_closed,
    potential_quadrature,
    triangle_from_sides,
)

tri = triangle_from_sides(4, 5, 6)
g = centroid(tri)

# ----------------------------------------------------------------------
# Closed form vs adaptive quadrature at a few interior points.
print("closed form vs quadrature:")
rng = np.random.default_rng(1)
A, B, C = tri.vertices
for _ in range(5):
    wa, wb, wc = rng.dirichlet((1, 1, 1))
    p = Point2(wa * A.x + wb * B.x + wc * C.x, wa * A.y + wb * B.y + wc * C.y)
    vc = potential_closed(tri, p)
    vq = potential_quadrature(tri, p)
    print(f"  V = {vc:.15f}   |closed - quadrature| = {abs(vc - vq):.2e}")

# Both paths also hold on the boundary: there the closed form's term of
# the edge through the point vanishes, and its cone collapses.
print("\npotential on the boundary (closed form vs quadrature):")
mid_bc = Point2(0.5 * (B.x + C.x), 0.5 * (B.y + C.y))
for name, p in (("vertex A", A), ("midpoint BC", mid_bc)):
    vc = potential_closed(tri, p)
    vq = potential_quadrature(tri, p)
    print(f"  {name:<12} V = {vc:.15f}   |closed - quadrature| = {abs(vc - vq):.2e}")

# ----------------------------------------------------------------------
# Far away the triangle looks like a point charge: V ~ area / distance.
print("\nfar-field monopole behavior (V * dist / area -> 1):")
for dist in (10.0, 100.0, 1000.0):
    p = Point2(g.x + dist, g.y + dist)
    ratio = potential_closed(tri, p) * p.distance_to(g) / area(tri)
    print(f"  dist {dist:7.1f}: ratio = {ratio:.9f}")

# ----------------------------------------------------------------------
# The field is exactly minus the gradient of the potential.
p = Point2(g.x + 0.3, g.y - 0.2)
h = 1e-6 * diameter(tri)
fd_x = -(potential_closed(tri, Point2(p.x + h, p.y))
         - potential_closed(tri, Point2(p.x - h, p.y))) / (2 * h)
fd_y = -(potential_closed(tri, Point2(p.x, p.y + h))
         - potential_closed(tri, Point2(p.x, p.y - h))) / (2 * h)
f = field_closed(tri, p)
print("\nfield vs central differences:")
print(f"  closed form : ({f.ex:.12f}, {f.ey:.12f})")
print(f"  differences : ({fd_x:.12f}, {fd_y:.12f})")

# ----------------------------------------------------------------------
# A small potential map around the triangle, like the CLI `grid`
# command produces (x, y, V rows ready for any contour plotter).
print("\n8x8 potential map over the padded bounding box:")
xs = [v.x for v in tri.vertices]
ys = [v.y for v in tri.vertices]
pad_x, pad_y = 0.2 * (max(xs) - min(xs)), 0.2 * (max(ys) - min(ys))
for j in range(8):
    y = min(ys) - pad_y + (max(ys) - min(ys) + 2 * pad_y) * j / 7
    row = []
    for i in range(8):
        x = min(xs) - pad_x + (max(xs) - min(xs) + 2 * pad_x) * i / 7
        try:
            row.append(f"{potential_closed(tri, Point2(x, y)):5.2f}")
        except Exception:
            row.append("  ---")  # boundary band
    print("  " + " ".join(row))
