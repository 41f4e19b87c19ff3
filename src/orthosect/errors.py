"""Exception hierarchy shared by all orthosect modules."""

from __future__ import annotations


class GeometryError(ValueError):
    """Base class for every geometric failure raised by this package."""


class DegenerateError(GeometryError):
    """Input configuration is degenerate for the requested operation
    (collinear points, coincident points, parallel planes, ...)."""


class SimsonDegenerateError(DegenerateError):
    """Pedal feet are collinear because the source point lies on the
    circumcircle of the host triangle; no pedal circle exists."""


class NotOrthosectingError(GeometryError):
    """Some non-corresponding edges fail to intersect (or, for the
    NotOrthologicError subclass, are not even orthogonal)."""

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = gaps


class NotOrthologicError(NotOrthosectingError):
    """The two tetrahedra are not orthologic under the given labeling; a
    pair that is not orthologic does not orthosect either.

    Carries the six edge-orthogonality residuals for diagnostics.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ReconstructionError(GeometryError):
    """A tetrahedron rebuilt from a pedal chain failed its orthosection
    postcondition; carries the offending residuals."""

    def __init__(self, message, orthogonality=None, gaps=None):
        super().__init__(message)
        self.orthogonality = orthogonality
        self.gaps = gaps


class CurvePointError(GeometryError):
    """A point handed to the constructive solver does not lie on the
    self-conjugate curve within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SceneError(ValueError):
    """Malformed scene file or report input (CLI exit code 2 class)."""
