"""Exception types shared across the library."""

from __future__ import annotations


class PersistenceError(Exception):
    """Base class for every library-specific error."""


class InternalError(Exception):
    """A consistency check inside the library failed.

    This signals a bug, never invalid input, so it is deliberately not a
    PersistenceError and the CLI does not report it as exit code 2.
    """


# -- finite posets ------------------------------------------------------------

class DuplicateElement(PersistenceError):
    pass


class UnknownElement(PersistenceError):
    pass


class CycleError(PersistenceError):
    """Transitive closure produced x < x, so the input is not a partial order."""


# -- maps and persistence posets ----------------------------------------------

class PartialStructureMap(PersistenceError):
    """A map misses a source element or sends one outside its target."""


class NonMonotoneStructureMap(PersistenceError):
    """A map violates order preservation."""


class NaturalityError(PersistenceError):
    """Slice maps of a persistence map do not commute with structure maps."""


class EmptyAfterNonempty(PersistenceError):
    """A component is empty although an earlier component is nonempty."""


# -- persistence modules -------------------------------------------------------

class ShapeMismatch(PersistenceError):
    pass


# -- verification ----------------------------------------------------------------

class HypothesisUnmet(PersistenceError):
    """A verified statement's hypothesis does not hold for the input."""


# -- documents and CLI -----------------------------------------------------------

class SchemaError(PersistenceError):
    pass


class ValidationError(PersistenceError):
    pass


class NotNested(PersistenceError):
    """A cover set shrank between consecutive indices."""
