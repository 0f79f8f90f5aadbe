"""The whole family of distance-power potentials V_p and their centers.

Raising the distance kernel to other powers p gives a one-parameter
family of potentials whose extreme points sweep a curve through the
triangle: the centroid at p = 2, the electrostatic center at p = -1,
the "street lamp" illuminating center at p = -2, and classical limits
at the ends (incenter as p -> -inf; circumcenter, or the midpoint of
the longest side for obtuse triangles, as p -> +inf).
"""

from tripotential import (
    centroid,
    circumcenter,
    electrostatic_center,
    illuminating_spread,
    incenter,
    inversion_first_moment,
    lambda_curve,
    potential_arc,
    rp_center,
    solve_lambda,
    side_lengths,
    thomson_residual,
    triangle_from_sides,
)

tri = triangle_from_sides(4, 5, 6)  # acute

# ----------------------------------------------------------------------
# Sweep the exponent and watch the extreme point move. The sweep always
# includes p = -1 and p = 2; it solves p = 2 (the centroid) first and
# continues up and down from there, starting each solve from a gated
# polynomial extrapolation of the points already solved.
print("extreme points of V_p (arc), with the cubic-membership residual:")
print(f"  {'p':>6}  {'x':>10}  {'y':>10}  {'thomson residual':>16}")
for ap in potential_arc(tri, [-6.0 + k for k in range(13)]):
    t = thomson_residual(tri, ap.point)
    print(f"  {ap.p:6.1f}  {ap.point.x:10.6f}  {ap.point.y:10.6f}  {t:16.3e}")

# p = -3 lands numerically on the classical cubic through the centers
# (residual ~ 1e-16); generic exponents do not.

# ----------------------------------------------------------------------
# The special exponents and their independent characterizations.
g = centroid(tri)
rep = rp_center(tri, 2.0)
print("\np = +2: extreme point vs centroid:",
      rep.point.distance_to(g))

rep = rp_center(tri, -1.0)
ec, _ = electrostatic_center(tri)
print("p = -1: extreme point vs electrostatic center:",
      rep.point.distance_to(ec))

rep = rp_center(tri, -2.0, tol=1e-12)
print("p = -2: equal angle-per-area spread:",
      illuminating_spread(tri, rep.point))

rep = rp_center(tri, -4.0, tol=1e-12)
print("p = -4: centroid defect of the inverted boundary region:",
      inversion_first_moment(tri, rep.point))

# ----------------------------------------------------------------------
# Endpoint trends: probe increasing |p|.
inc, circ = incenter(tri), circumcenter(tri)
print("\np -> -inf trend (distance to the incenter):")
for p in (-5.0, -10.0, -20.0, -30.0):
    q = rp_center(tri, p).point
    print(f"  p = {p:6.1f}: {q.distance_to(inc):.6f}")
print("p -> +inf trend (distance to the circumcenter):")
for p in (5.0, 10.0, 20.0, 30.0):
    q = rp_center(tri, p).point
    print(f"  p = {p:6.1f}: {q.distance_to(circ):.6f}")

# ----------------------------------------------------------------------
# A second curve through the triangle: freeing the lambda parameter of
# the electrostatic solve traces a path from the centroid (lambda -> 0)
# to the incenter (lambda -> infinity) through the electrostatic center
# at the lambda root.
lam_root = solve_lambda(side_lengths(tri)).lam
print("\nthe lambda-parameter curve:")
for lam, pt in lambda_curve(tri, [1e-6, 1.0, lam_root, 20.0, 1e6]):
    nearest = min(
        [("centroid", g), ("incenter", inc), ("circumcenter", circ),
         ("electrostatic center", ec)],
        key=lambda kv: pt.distance_to(kv[1]),
    )
    print(f"  lambda = {lam:10.4g}: ({pt.x:8.6f}, {pt.y:8.6f})"
          f"  nearest: {nearest[0]} ({pt.distance_to(nearest[1]):.2e})")
