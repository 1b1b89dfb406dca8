"""Post-detection triage: clustering detected domains (Sections VI-C/D).

After detection, the paper's analysts grouped the flagged domains into
campaign clusters before investigating:

* five domains hosting URLs with the same ``/logo.gif?`` pattern
  (confirmed Sality), 15 more sharing another URL pattern;
* ten 4-5 character ``.info`` DGA names, nine of which served the same
  ``/tan2.html`` path;
* ten 20-hex-character ``.info`` DGA names found in hints mode;
* domains co-hosted in the same /24.

This module automates the groupings the logs support so a SOC can
triage hundreds of detections as a handful of campaigns.  Two
complementary views:

:func:`cluster_by_name`
    groups algorithmically-similar names (same TLD, length class, and
    character class -- hex vs alpha vs wordlike, judged by digit ratio
    and bigram entropy).
:func:`cluster_by_subnet`
    groups domains resolving into the same /24 (or /16).

The URL-path groups need the request path, which neither
:class:`~repro.logs.records.Connection` nor
:class:`~repro.logs.records.ConnectionBatch` carries, so there is no
view for them.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..logs.domains import subnet_key

_HEX_DIGITS = set("0123456789abcdef")


@dataclass(frozen=True)
class DomainCluster:
    """One group of detections that look like a single campaign."""

    key: str
    """Human-readable cluster signature (e.g. ``".info len4-5 alpha"``,
    ``"subnet:5.5.5.0/24"``)."""

    domains: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.domains)


def _label_of(domain: str) -> str:
    return domain.split(".", 1)[0]


def _tld_of(domain: str) -> str:
    return domain.rsplit(".", 1)[-1]


def _length_class(label: str) -> str:
    length = len(label)
    if length <= 5:
        return "len4-5"
    if length <= 9:
        return "len6-9"
    if length <= 16:
        return "len10-16"
    return "len17+"


def _charset_class(label: str) -> str:
    cleaned = label.replace("-", "")
    if cleaned and all(c in _HEX_DIGITS for c in cleaned) and any(
        c.isdigit() for c in cleaned
    ):
        return "hex"
    if any(c.isdigit() for c in cleaned):
        return "alnum"
    return "alpha"


def name_signature(domain: str) -> str:
    """The naming-family signature used by :func:`cluster_by_name`."""
    label = _label_of(domain)
    return f".{_tld_of(domain)} {_length_class(label)} {_charset_class(label)}"


def cluster_by_name(
    domains: Iterable[str], *, min_size: int = 2
) -> list[DomainCluster]:
    """Group domains sharing a naming-family signature.

    Reproduces the paper's DGA-cluster observations: the 4-5 char
    ``.info`` set and the 20-hex-char ``.info`` set land in separate
    clusters; ordinary benign two-word names do not cluster with them.
    """
    groups: dict[str, list[str]] = defaultdict(list)
    for domain in sorted(set(domains)):
        groups[name_signature(domain)].append(domain)
    return _to_clusters(groups, min_size)


def cluster_by_subnet(
    ips_by_domain: Mapping[str, Iterable[str]],
    *,
    prefix: int = 24,
    min_size: int = 2,
) -> list[DomainCluster]:
    """Group domains resolving into the same /``prefix`` network."""
    groups: dict[str, list[str]] = defaultdict(list)
    for domain in sorted(ips_by_domain):
        networks = {subnet_key(ip, prefix) for ip in ips_by_domain[domain]}
        for network in sorted(networks):
            groups[f"subnet:{network}"].append(domain)
    return _to_clusters(groups, min_size)


def _to_clusters(
    groups: Mapping[str, list[str]], min_size: int
) -> list[DomainCluster]:
    clusters = [
        DomainCluster(key=key, domains=tuple(sorted(set(members))))
        for key, members in groups.items()
        if len(set(members)) >= min_size
    ]
    clusters.sort(key=lambda c: (-c.size, c.key))
    return clusters


def triage_report(
    domains: Iterable[str],
    *,
    ips_by_domain: Mapping[str, Iterable[str]] | None = None,
    min_size: int = 2,
) -> str:
    """Render all cluster views into one SOC-facing text report."""
    domains = sorted(set(domains))
    lines = [f"triage of {len(domains)} detected domains"]

    lines.append("\nby naming family:")
    for cluster in cluster_by_name(domains, min_size=min_size):
        lines.append(f"  [{cluster.size}] {cluster.key}: "
                     f"{', '.join(cluster.domains[:6])}"
                     + (" ..." if cluster.size > 6 else ""))

    if ips_by_domain:
        lines.append("\nby /24 co-hosting:")
        for cluster in cluster_by_subnet(ips_by_domain, min_size=min_size):
            lines.append(f"  [{cluster.size}] {cluster.key}: "
                         f"{', '.join(cluster.domains[:6])}"
                         + (" ..." if cluster.size > 6 else ""))
    return "\n".join(lines)
