"""Exception hierarchy for the GroupCast reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration value is out of its documented range."""


class TopologyError(ReproError):
    """The underlay topology is malformed or a lookup failed."""


class RoutingError(TopologyError):
    """No route exists between two attachment points."""


class OverlayError(ReproError):
    """An overlay operation failed (unknown peer, duplicate link, ...)."""


class PeerNotFoundError(OverlayError):
    """The requested peer identifier is not present in the overlay."""


class BootstrapError(OverlayError):
    """A joining peer could not obtain bootstrap candidates."""


class GroupError(ReproError):
    """A group-communication operation failed."""


class RendezvousError(GroupError):
    """No suitable rendezvous point could be located."""


class SubscriptionError(GroupError):
    """A peer failed to subscribe to a communication group."""


class TreeError(GroupError):
    """The spanning tree is malformed (cycle, disconnection, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TelemetryError(ReproError):
    """An observability instrument was misused (name clash, bad bucket)."""


class FaultPlanError(ReproError):
    """A fault-injection schedule is malformed (bad window, overlap, ...)."""


class InvariantViolation(ReproError):
    """A protocol invariant check failed during a simulation run."""


class WatchdogHalt(ReproError):
    """A watchdog rule with the ``halt`` action fired during a run."""


class TransportError(ReproError):
    """A runtime transport operation failed (unknown peer, closed, ...)."""


class FramingError(TransportError):
    """A wire frame could not be encoded or decoded."""
