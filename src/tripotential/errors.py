"""Exception hierarchy for tripotential."""

__all__ = [
    "TripotentialError",
    "DegenerateTriangle",
    "DegenerateTrilinears",
    "NotInterior",
    "TooCloseToBoundary",
    "ToleranceNotReached",
    "NegativeRadicand",
    "BracketFailure",
    "NoConvergence",
]


class TripotentialError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateTriangle(TripotentialError):
    """Vertices are (numerically) collinear, or side lengths violate the
    strict triangle inequality."""


class DegenerateTrilinears(TripotentialError):
    """Trilinear coordinates whose barycentric normalizer vanishes
    (a point at infinity)."""


class NotInterior(TripotentialError):
    """Operation requires a point strictly inside the triangle."""


class TooCloseToBoundary(TripotentialError):
    """Closed-form field rejected: the point lies within 1e-9 times the
    diameter of the triangle boundary. There E is only as accurate as the
    rounded point coordinates allow, and it diverges on the boundary
    itself. The potential has no such band."""


class ToleranceNotReached(TripotentialError):
    """Adaptive quadrature missed its error target: the error of the
    intervals at the depth cap alone exceeds it, or the subdivision budget
    is spent.

    Attributes
    ----------
    achieved : float
        Relative (or scaled-absolute) error estimate actually reached.
    target : float
        Requested tolerance.
    """

    def __init__(self, message, achieved, target):
        super().__init__(message)
        self.achieved = achieved
        self.target = target


class NegativeRadicand(TripotentialError):
    """A radicand in the side-length equation went negative beyond the
    documented roundoff clamp; indicates invalid input or an internal bug."""


class BracketFailure(TripotentialError):
    """Root bracketing could not find a sign change; the input is likely
    (numerically) degenerate."""


class NoConvergence(TripotentialError):
    """Iterative solver exceeded its iteration budget.

    Attributes
    ----------
    best_point : object
        Best iterate found (package point type or tuple), may be None.
    residual_norm : float
        Residual at the best iterate.
    iterations : int
        Iterations performed.
    """

    def __init__(self, message, best_point=None, residual_norm=float("inf"),
                 iterations=0):
        super().__init__(message)
        self.best_point = best_point
        self.residual_norm = residual_norm
        self.iterations = iterations
