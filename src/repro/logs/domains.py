"""Domain-name utilities: folding, internal-name tests, IP subnet keys.

The paper folds destination names to their second-level domain
("news.nbc.com" -> "nbc.com") on the assumption that the second level
identifies the responsible organization (Section IV-A).  For the LANL
dataset, where names are anonymized and top-level labels are missing,
it conservatively folds to the *third* level instead.
"""

from __future__ import annotations

import ipaddress
import re

_LABEL_RE = re.compile(r"^[a-z0-9_\-]{1,63}$", re.IGNORECASE)
#: A plain dotted quad as ``ipaddress`` accepts one: four ASCII-decimal
#: octets in 0-255 without leading zeros.
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD_RE = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}")
#: What follows the kept octets of a /``prefix`` network key.
_SUBNET_SUFFIX = {8: ".0.0.0/8", 16: ".0.0/16", 24: ".0/24", 32: "/32"}


def is_ip_address(name: str) -> bool:
    """Whether ``name`` is a literal IPv4/IPv6 address.

    The paper drops destinations that are bare IP addresses from the
    proxy-log analysis (Section IV-A).  An IPv4 literal ends in a
    digit and an IPv6 literal contains a colon; a name with neither
    (every ordinary domain) is answered without the ``ipaddress``
    parse, the rest are decided by it.
    """
    if not (name[-1:].isdigit() or ":" in name):
        return False
    try:
        ipaddress.ip_address(name)
    except ValueError:
        return False
    return True


def is_valid_domain(name: str) -> bool:
    """Loose syntactic check for a dotted domain name."""
    if not name or len(name) > 253 or is_ip_address(name):
        return False
    labels = name.rstrip(".").split(".")
    if len(labels) < 2:
        return False
    return all(_LABEL_RE.match(label) for label in labels)


def fold_domain(name: str, level: int = 2) -> str:
    """Fold ``name`` to its last ``level`` labels.

    >>> fold_domain("news.nbc.com")
    'nbc.com'
    >>> fold_domain("a.b.c.example", level=3)
    'b.c.example'

    Names with fewer labels than ``level`` are returned unchanged.  The
    result is lower-cased and stripped of a trailing dot so that the
    same entity always folds to the same key.
    """
    if level < 1:
        raise ValueError(f"fold level must be >= 1, got {level}")
    cleaned = name.rstrip(".").lower()
    labels = cleaned.split(".")
    if len(labels) <= level:
        return cleaned
    return ".".join(labels[-level:])


def is_internal_domain(name: str, internal_suffixes: tuple[str, ...]) -> bool:
    """Whether ``name`` belongs to the organization's own namespace.

    Queries for internal resources are filtered during reduction since
    the goal is detecting suspicious *external* communication.
    """
    cleaned = name.rstrip(".").lower()
    for suffix in internal_suffixes:
        suffix = suffix.lstrip(".").lower()
        if cleaned == suffix or cleaned.endswith("." + suffix):
            return True
    return False


def subnet_key(ip: str, prefix: int) -> str:
    """Return the /``prefix`` network an IPv4 address belongs to.

    Used for the IP24 / IP16 proximity features (Section IV-D): attack
    domains tend to co-locate in small numbers of subnets.  Not
    memoized: a process-wide memo would hold every address a
    long-lived engine (or every tenant of a fleet worker) has seen,
    while the day's traffic store already asks once per new
    (domain, address) pair.  The common form -- a plain dotted quad,
    matched whole by one regular expression -- is cut with string
    operations (~1 µs); anything else (IPv6, malformed text, octets
    ``ipaddress`` would refuse) goes through ``ipaddress`` and behaves
    as it decides.

    >>> subnet_key("93.184.216.34", 24)
    '93.184.216.0/24'
    """
    suffix = _SUBNET_SUFFIX.get(prefix)
    if suffix is None:
        raise ValueError(f"unsupported prefix length {prefix}")
    quad = _DOTTED_QUAD_RE.fullmatch(ip)
    if quad is not None:
        return ip[: quad.end(prefix // 8)] + suffix
    network = ipaddress.ip_network(f"{ip}/{prefix}", strict=False)
    return str(network)


def same_subnet(ip_a: str, ip_b: str, prefix: int) -> bool:
    """Whether two addresses share a /``prefix`` network."""
    if not ip_a or not ip_b:
        return False
    return subnet_key(ip_a, prefix) == subnet_key(ip_b, prefix)
