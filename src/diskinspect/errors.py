"""Structured errors raised by the numerical pipeline.

Every failure mode that a caller can act on gets its own class; generic
ValueError/RuntimeError are reserved for programming mistakes.
"""

from __future__ import annotations


class DiskInspectError(Exception):
    """Base class for all pipeline failures; kind is the class name."""

    kind = "DiskInspectError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__

    def payload(self) -> dict:
        return {"kind": self.kind, "message": str(self)}


class TriangleDegenerate(DiskInspectError):
    """Chain step hit t_{i-1} <= tan(alpha/2): the optics triangle collapses.

    Carries the first offending step index rather than clamping, so
    convergence studies see the violation instead of corrupted data.
    """

    def __init__(self, index: int, value: float, bound: float):
        super().__init__(
            f"tangent parameter t[{index - 1}]={value:.6g} is not above "
            f"tan(alpha/2)={bound:.6g}; chain would touch the disk"
        )
        self.index = index
        self.value = value
        self.bound = bound


class AngleDomain(DiskInspectError):
    """Chain step produced a non-positive incidence angle x_i."""

    def __init__(self, index: int, value: float):
        super().__init__(
            f"incidence angle x[{index}]={value:.6g} is not positive; "
            f"angular step too coarse for this chain"
        )
        self.index = index
        self.value = value


class StepFailure(DiskInspectError):
    """Adaptive integrator could not proceed under its error control."""


class OutOfRange(DiskInspectError):
    """Evaluation abscissa outside the stored solution range."""


class NoCrossing(DiskInspectError):
    """Curve never returns to the vertical line x=1: infeasible start value."""


class XiOutOfRange(DiskInspectError):
    """Deployment parameter outside (1/2, 1]: the three-term cost is undefined."""


class CostDiverges(DiskInspectError):
    """The deployment sweep's log term is infinite in float64: 1 - sin(theta)
    rounds to 0, for a deployment angle theta within about 1.5e-8 of pi/2
    (xi as close to 1/2)."""


class QuadratureNoConverge(DiskInspectError):
    """Quadrature error estimate exceeds the requested tolerance."""


class NotUnimodal(DiskInspectError):
    """Sweep data shows multiple local minima inside the refinement bracket."""


class EmptySweep(DiskInspectError):
    """Every row of a sweep is an error row: there is no value to report."""


class WindowViolated(DiskInspectError):
    """A result left its certified window.

    Either an angle-window margin came out non-positive (an implementation
    bug), or the refined optimum sits on the tau0 window's edge, outside the
    deployment-angle window, or fails its clearance certificate, or a
    lower-bound chain fails its certificate (t >= 0 and a projected
    gradient below ``bounds.PG_CERTIFICATE_TOL``), so its objective is not
    a proven minimum.
    """


class MaxIterations(DiskInspectError):
    """Solver hit its iteration cap; the best iterate is attached."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate
