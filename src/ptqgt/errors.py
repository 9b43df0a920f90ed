"""Exception types shared across the package."""


class PtqgtError(Exception):
    """Base class for all numerical / domain errors raised by ptqgt."""


class NonFinite(PtqgtError):
    """Input matrix contains NaN or Inf entries."""


class DefectiveMatrix(PtqgtError):
    """Eigenvectors coalesce (exceptional point); no biorthogonal basis exists."""


class NotPositiveDefinite(PtqgtError):
    """Constructed inner-product metric failed the positivity check."""


class AmbiguousMatching(PtqgtError):
    """A level has numerically no overlap with its counterpart at another
    parameter point: with every stencil level of a projector difference, or
    the tracked level's end state with its start in ``evolve``."""


class ZeroScale(PtqgtError):
    """Gauge transformation with a vanishing scale factor."""


class Degenerate(PtqgtError):
    """Level gap below tolerance; geometric quantities are singular here."""


class OpenLoop(PtqgtError):
    """Loop specification is not closed (first vertex != last vertex)."""


class StepTooLarge(PtqgtError):
    """Integrator norm drift exceeded the allowed bound; refine the step."""


class NotAdiabatic(PtqgtError):
    """Evolving state left the tracked instantaneous eigenstate."""


class GaplessPoint(PtqgtError):
    """Some single-particle level sits at zero energy (critical momentum)."""


class CaseUnsupported(PtqgtError):
    """Model parameters outside the analytically tractable cases."""


class ParseError(PtqgtError):
    """Model-file syntax error, carrying line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
