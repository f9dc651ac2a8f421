"""Mobile computing support (§3.3.3, §4.2.2 "The impact of mobility").

Connectivity levels and outage accounting (:mod:`~repro.mobility.host`)
and Coda-style caching with optimistic replay and reintegration over the
radio (:mod:`~repro.mobility.cache`).
"""

from repro.mobility.cache import MobileCache, StoreServer
from repro.mobility.host import (
    DisconnectionTolerantContract,
    MobileHost,
)

__all__ = [
    "DisconnectionTolerantContract",
    "MobileCache",
    "MobileHost",
    "StoreServer",
]
