"""Exception types shared across the package.

The CLI maps these onto exit codes, so solver code should raise the most
specific type that applies rather than a bare ValueError.
"""


class CoopRouteError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CoopRouteError):
    """Malformed or inconsistent input: bad JSON documents, unknown keys,
    invalid networks, non-stochastic cooperation weights, and so on."""


class InfeasibleError(CoopRouteError):
    """The instance cannot carry the requested demand: no path exists, or
    no routing keeps every M/M/1 link below its capacity."""

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = dict(detail) if detail else {}


class SolverError(CoopRouteError):
    """A solver could not produce a usable result (for example no start
    converged).  Carries whatever diagnostics the solver collected."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}
