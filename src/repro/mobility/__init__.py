"""Mobile computing support (§3.3.3, §4.2.2 "The impact of mobility").

Connectivity levels and outage accounting (:mod:`~repro.mobility.host`)
and Coda-style caching with optimistic replay and bulk reintegration
(:mod:`~repro.mobility.cache`).
"""

from repro.mobility.cache import (
    CLIENT_WINS,
    MobileCache,
    SERVER_WINS,
)
from repro.mobility.host import (
    DisconnectionTolerantContract,
    MobileHost,
)

__all__ = [
    "CLIENT_WINS",
    "DisconnectionTolerantContract",
    "MobileCache",
    "MobileHost",
    "SERVER_WINS",
]
