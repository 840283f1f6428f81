"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class TopologyError(ReproError):
    """A cluster topology cannot be built under the given constraints."""


class PacketError(ReproError):
    """A packet could not be parsed, built, or processed."""


class RoutingError(ReproError):
    """A routing-table operation failed (bad prefix, missing route, ...)."""


class SchedulingError(ReproError):
    """A Click task/thread could not be scheduled as requested."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key/block size, ...)."""
