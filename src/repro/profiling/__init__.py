"""Profiling substrate: destination/UA histories and rare destinations."""

from .history import DestinationHistory
from .rare import (
    DailyTraffic,
    extract_rare_domains,
    rare_domains_by_host,
)
from .ua import UserAgentHistory

__all__ = [
    "DestinationHistory",
    "DailyTraffic",
    "extract_rare_domains",
    "rare_domains_by_host",
    "UserAgentHistory",
]
