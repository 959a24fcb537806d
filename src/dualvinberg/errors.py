"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """A matrix that must be invertible is singular to working precision."""


class SpectrumError(DomainError):
    """An eigenvalue sits on the closed negative real axis, so the
    principal logarithm is undefined."""


class PatternError(RuntimeError):
    """A computed matrix left its structural zero pattern beyond round-off."""


class ConvergenceError(RuntimeError):
    """A numerical route failed the certificate that backs its answer."""


class InconsistencyError(RuntimeError):
    """Two independently computed routes to the same fact disagree."""
