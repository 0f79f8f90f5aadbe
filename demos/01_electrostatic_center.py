"""Locate the point of maximum electrostatic potential of a triangle.

A uniformly charged flat triangle creates the potential
V(P) = integral over the triangle of 1/|PQ| dQ. That potential has a
single interior maximum -- a genuine triangle center -- and this demo
walks through everything the solver reports about it.
"""

from tripotential import (
    Point2,
    Triangle,
    cartesian_to_trilinear,
    centroid,
    circumcenter,
    electrostatic_center,
    field_closed,
    incenter,
    kimberling_search_value,
    potential_closed,
    stationarity_spreads,
)

# ----------------------------------------------------------------------
# The triangle with vertices A(-1,0), B(2,0), C(0,2) makes a nice
# running example: scalene enough that the center differs visibly from
# every classical center.
tri = Triangle(Point2(-1, 0), Point2(2, 0), Point2(0, 2))

point, sol = electrostatic_center(tri)
print("electrostatic center:", (point.x, point.y))
print("lambda parameter:    ", sol.lam)
print("solver residual:     ", sol.residual, "in", sol.iterations, "evaluations")

# The solve recovers the distances to the vertices along the way; they
# agree with the returned point to machine accuracy.
print("\nvertex distances r_A, r_B, r_C:", (sol.r_a, sol.r_b, sol.r_c))
for name, v in zip("ABC", tri.vertices):
    print(f"  |P{name}| = {point.distance_to(v):.15f}")

# ----------------------------------------------------------------------
# Why this point: the field E = -grad V vanishes there and nowhere else
# inside. Compare its field norm against the classical centers.
print("\nfield norm at candidate points:")
for name, q in [
    ("electrostatic center", point),
    ("centroid", centroid(tri)),
    ("incenter", incenter(tri)),
]:
    print(f"  {name:22s} |E| = {field_closed(tri, q).norm():.3e}")

# Two families of identities characterize the center: the log-scaled
# vertex-distance ratios (1/a) log((r_B + r_C - a)/(r_B + r_C + a)),
# which are minus the field's per-edge logs over the edge lengths, and
# the log-scaled tangent products of the angles it subtends. In triangle
# PBC tan(beta1/2) tan(gamma2/2) = (s' - a)/s', so the tangent triple is
# the side triple times the circumdiameter 2R: the side spread is in
# 1/length, the tangent spread is dimensionless, and both vanish only at
# the center.
s_side, s_tan = stationarity_spreads(tri, point)
print("\nidentity spreads at the center :", (s_side, s_tan))
s_side, s_tan = stationarity_spreads(tri, centroid(tri))
print("identity spreads at the centroid:", (s_side, s_tan))
print("their ratio:", s_tan / s_side, "= 2R:", 2 * circumcenter(tri).distance_to(tri.a_vertex))

# ----------------------------------------------------------------------
# The potential value itself, and how much the center beats its rivals.
v_center = potential_closed(tri, point)
print("\nV at the center :", v_center)
print("V at the centroid:", potential_closed(tri, centroid(tri)))

# Trilinear coordinates (signed distances to the sides) of the center.
tau = cartesian_to_trilinear(tri, point)
print("\nexact trilinears:", (tau.tau_a, tau.tau_b, tau.tau_c))

# The encyclopedia search key: the distance from the center to side BC
# in the reference triangle with sides (6, 9, 13).
from tripotential import SideLengths

d_a = kimberling_search_value(SideLengths(6, 9, 13))
print("\nsearch value d_a for sides (6,9,13):", d_a)
print("(not matching any catalogued center)")
