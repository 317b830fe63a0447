"""Exception types shared across the package."""


class ShardOrderError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPreorderError(ShardOrderError, ValueError):
    """A pre-order fails the overlap/cover axioms required of lattice elements."""


class IncomparableError(ShardOrderError, ValueError):
    """Two elements were expected to be comparable in the lattice but are not."""


class CrossingPartitionError(ShardOrderError, ValueError):
    """A partition is not noncrossing on the requested cycle."""


class ResourceLimitError(ShardOrderError):
    """A size cap was exceeded; pass force=True to override."""


class InvariantError(ShardOrderError):
    """An internal consistency check failed; the computed result is not trusted.

    Raised instead of ``assert`` so that the checks also run under ``python -O``.
    """
