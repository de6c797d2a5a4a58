"""Exception types raised by the solver library."""

import copyreg


class EsfemError(Exception):
    """Base class for all library errors.

    Every one pickles, so it crosses a process pool intact: Exception would
    rebuild it as cls(message), which a constructor taking the failure's
    data refuses, so it is rebuilt from its message without __init__ and
    its attributes are restored.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DegenerateElement(EsfemError):
    """A triangle's area fell below the degeneracy threshold."""

    def __init__(self, triangle_index, area):
        self.triangle_index = triangle_index
        self.area = area
        super().__init__(f"triangle {triangle_index} is degenerate (area={area:.3e})")


class FieldLengthMismatch(EsfemError):
    """A vector's length does not fit the mesh's node count."""


class NonFiniteIntegrand(EsfemError):
    """A load integrand evaluated to NaN or infinity at a quadrature point."""


class MissingExactSolution(EsfemError):
    """The problem has no manufactured solution attached."""


class EmptyTrajectory(EsfemError):
    """No states available to post-process."""


class MeshDegenerated(EsfemError):
    """The moving mesh fell below the quality abort threshold.

    Carries the failure time and the offending quality report.
    """

    def __init__(self, time, quality):
        self.time = time
        self.quality = quality
        super().__init__(
            f"mesh degenerated at t={time:.6g} "
            f"(min angle {quality.min_angle_deg:.3f} deg, min area {quality.min_area:.3e})"
        )


class LinearSolveFailure(EsfemError):
    """An iterative linear solve did not converge.

    Carries the final residual norm.
    """

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual={residual:.3e})")


class NonFiniteState(EsfemError):
    """A step produced NaN or infinite node positions or field values.

    Carries the step's time and the names of the non-finite fields.
    """

    def __init__(self, time, fields):
        self.time = time
        self.fields = tuple(fields)
        super().__init__(f"non-finite {', '.join(self.fields)} at t={time:.6g}")
