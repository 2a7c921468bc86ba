"""Exception hierarchy shared by all smvslab modules."""


class SmvslabError(Exception):
    """Base class for all domain errors raised by this package."""


class ParameterError(SmvslabError, ValueError):
    """A precondition on user-supplied parameters was violated."""


class DegenerateLinearizationError(SmvslabError):
    """No correspondences were found; the linear system is empty."""


class AnalysisError(SmvslabError):
    """SMVS analysis could not be completed for a frame."""


class DegenerateFitError(SmvslabError):
    """Line fitting was attempted on coincident points."""


class DivergenceError(SmvslabError):
    """Gauss-Newton produced a non-finite update."""
