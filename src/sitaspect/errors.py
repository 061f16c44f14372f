"""Exception hierarchy shared by every engine layer."""

from __future__ import annotations


class SitAspectError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SitAspectError):
    """A fluent or action refers to an undeclared schema or wrong arity."""


class UndefinedPortionError(SitAspectError):
    """An operation touched a component outside the modeled portion of the world."""


class MissingAspectError(SitAspectError):
    """No aspect rule applies to a ground fluent or action in the given state."""


class AmbiguousAspectError(SitAspectError):
    """More than one aspect rule (or rule binding) applies at the same time."""


class DisjointnessSpecError(SitAspectError):
    """A disjointness specification was used outside its stated preconditions."""


class InapplicableActionError(SitAspectError):
    """An action's precondition does not hold in the current state."""


class UndefinedActionError(SitAspectError):
    """An action refers to a portion of the world the state does not model."""


class NoProofError(SitAspectError):
    """A persistence proof was requested for a pair it cannot cover."""


class CrossModeSoundnessError(SitAspectError):
    """Aspect regression, SSA evaluation, and progression disagreed on a query.

    Carries a minimal witness so the failing query can be replayed.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ModelError(SitAspectError):
    """A finite model is missing fields or violates structural requirements."""


class DslError(SitAspectError):
    """Parsing or loading a domain/model/state file failed.

    `diagnostics` holds the full list of spanned messages; str() shows the first.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0].render() if self.diagnostics else "parse failed"
        super().__init__(first)
