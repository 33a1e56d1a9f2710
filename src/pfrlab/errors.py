"""Semantic exception hierarchy shared across the package."""


class PfrlabError(Exception):
    """Base class for all package-specific errors."""


class AbsoluteContinuityViolated(PfrlabError, ValueError):
    """p puts mass where q has none (p is not absolutely continuous w.r.t. q)."""


class NotConverged(PfrlabError, RuntimeError):
    """Iterative solver exhausted max_iter; carries the last iterate in ``last``."""

    def __init__(self, max_iter, last=None):
        super().__init__(f"not converged after {max_iter} iterations")
        self.max_iter = max_iter
        self.last = last


class TargetOutOfRange(PfrlabError, ValueError):
    """Requested distortion target lies outside the achievable range."""


class MalformedCodeword(PfrlabError, ValueError):
    """Bit string does not begin with a valid codeword."""


class UnsupportedPoint(PfrlabError, ValueError):
    """A conditional probability needed at the evaluation point is zero."""


class UnsupportedEta(PfrlabError, ValueError):
    """The requested redundancy kind needs a quantity the solution does not provide."""


class RoundTripMismatch(PfrlabError, RuntimeError):
    """A Gray-Wyner decode did not reproduce the encoder's (u, y1, y2) at a trial."""

    def __init__(self, trial):
        super().__init__(f"round-trip mismatch at trial {trial}")
        self.trial = trial
