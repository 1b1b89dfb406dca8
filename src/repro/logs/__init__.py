"""Log substrate: record types, parsers, normalization and reduction."""

from .records import (
    Connection,
    ConnectionBatch,
    DhcpLease,
    DnsRecord,
    DnsRecordType,
    ProxyRecord,
    VpnSession,
)
from .domains import (
    fold_domain,
    is_internal_domain,
    is_ip_address,
    is_valid_domain,
    same_subnet,
    subnet_key,
)
from .dns import (
    DnsLogFormatError,
    format_dns_line,
    parse_dns_line,
    parse_dns_log,
)
from .proxy import (
    ProxyLogFormatError,
    format_proxy_line,
    parse_proxy_line,
    parse_proxy_log,
)
from .normalize import (
    IpResolver,
    ProxyNormalizer,
    normalize_dns_records,
    normalize_proxy_records,
    to_utc,
)
from .netflow import (
    NetflowFormatError,
    NetflowRecord,
    PassiveDnsMap,
    format_netflow_line,
    normalize_netflow_records,
    parse_netflow_line,
    parse_netflow_log,
)
from .reduction import DNS_REDUCTION_STEPS, ReductionFunnel, ReductionStats

__all__ = [
    "Connection",
    "ConnectionBatch",
    "DhcpLease",
    "DnsRecord",
    "DnsRecordType",
    "ProxyRecord",
    "VpnSession",
    "fold_domain",
    "is_internal_domain",
    "is_ip_address",
    "is_valid_domain",
    "same_subnet",
    "subnet_key",
    "DnsLogFormatError",
    "format_dns_line",
    "parse_dns_line",
    "parse_dns_log",
    "ProxyLogFormatError",
    "format_proxy_line",
    "parse_proxy_line",
    "parse_proxy_log",
    "IpResolver",
    "ProxyNormalizer",
    "normalize_dns_records",
    "normalize_proxy_records",
    "to_utc",
    "NetflowFormatError",
    "NetflowRecord",
    "PassiveDnsMap",
    "format_netflow_line",
    "normalize_netflow_records",
    "parse_netflow_line",
    "parse_netflow_log",
    "DNS_REDUCTION_STEPS",
    "ReductionFunnel",
    "ReductionStats",
]
