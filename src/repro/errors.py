"""Exception hierarchy for the repro middleware.

Every error raised by the library derives from :class:`ReproError`, so a
client can catch the whole family with one handler while still being able
to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A problem inside the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """A problem in the simulated network substrate."""


class RoutingError(NetworkError):
    """No route exists between two nodes."""


class TransportError(NetworkError):
    """A transport-level failure (e.g. retry budget exhausted)."""


class NodeError(ReproError):
    """A problem in the engineering-viewpoint runtime (nodes/capsules)."""


class GroupError(ReproError):
    """A problem in the group-communication subsystem."""


class MembershipError(GroupError):
    """An operation referenced a member not in the current view."""


class SessionError(ReproError):
    """A problem in session management or floor control."""


class FloorControlError(SessionError):
    """An illegal floor-control operation (e.g. releasing a floor not held)."""


class ConcurrencyError(ReproError):
    """A problem in the concurrency-control subsystem."""


class TransactionAborted(ConcurrencyError):
    """The transaction was aborted (deadlock, conflict or explicit abort)."""


class LockError(ConcurrencyError):
    """An illegal lock operation."""


class AccessDenied(ReproError):
    """The access-control subsystem refused an operation."""


class AccessPolicyError(ReproError):
    """An access-control policy is malformed or an update is illegal."""


class QoSError(ReproError):
    """A quality-of-service failure."""


class QoSNegotiationFailed(QoSError):
    """No acceptable QoS contract could be agreed."""


class StreamError(ReproError):
    """A problem with a continuous-media stream or binding."""


class MobilityError(ReproError):
    """A problem in the mobile-computing subsystem."""


class DisconnectedError(MobilityError):
    """The operation required connectivity that is not currently available."""


class WorkflowError(ReproError):
    """A problem in the workflow substrate."""


class IllegalSpeechAct(WorkflowError):
    """A speech act was not permitted in the conversation's current state."""


class HypertextError(ReproError):
    """A problem in the multi-user hypertext substrate."""


class PlacementError(ReproError):
    """The management subsystem could not place or migrate an object."""
