"""Bipartite host-domain infection graph (Section III-C).

The communication between internal hosts and external domains is a
bipartite graph: an edge connects a host and a domain when the host
contacted the domain during the observation window.  Because daily
graphs reach tens of thousands of nodes, the paper builds the graph
*incrementally* -- nodes enter only once their compromise confidence is
high.  :class:`InfectionGraph` records that incremental expansion plus
the evidence attached to each node, and can export to ``networkx`` for
community inspection (Figures 4, 7, 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class NodeKind(str, Enum):
    """Node families of the infection graph (hosts vs domains)."""
    HOST = "host"
    DOMAIN = "domain"


class Label(str, Enum):
    """Why a node entered the graph."""

    SEED = "seed"
    CC_DETECTED = "cc"
    SIMILARITY = "similarity"
    CONTACT = "contact"
    """Hosts pulled in because they contacted a labeled domain."""


@dataclass(frozen=True, slots=True)
class NodeRecord:
    """Provenance of one graph node."""

    name: str
    kind: NodeKind
    label: Label
    iteration: int
    score: float = 0.0


@dataclass
class InfectionGraph:
    """Incrementally grown bipartite graph of compromise evidence."""

    hosts: dict[str, NodeRecord] = field(default_factory=dict)
    domains: dict[str, NodeRecord] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)

    def add_host(
        self, host: str, label: Label, iteration: int, score: float = 0.0
    ) -> bool:
        """Add a host node; returns False when already present."""
        if host in self.hosts:
            return False
        self.hosts[host] = NodeRecord(host, NodeKind.HOST, label, iteration, score)
        return True

    def add_domain(
        self, domain: str, label: Label, iteration: int, score: float = 0.0
    ) -> bool:
        """Add a labeled domain node; returns False if already present."""
        if domain in self.domains:
            return False
        self.domains[domain] = NodeRecord(
            domain, NodeKind.DOMAIN, label, iteration, score
        )
        return True

    def add_edge(self, host: str, domain: str) -> None:
        """Connect a host to a domain; both must already be nodes."""
        if host not in self.hosts:
            raise KeyError(f"unknown host {host!r}")
        if domain not in self.domains:
            raise KeyError(f"unknown domain {domain!r}")
        self.edges.add((host, domain))

    @property
    def node_count(self) -> int:
        return len(self.hosts) + len(self.domains)

    def domains_by_iteration(self) -> dict[int, list[str]]:
        """Domains grouped by the BP iteration that added them."""
        by_iter: dict[int, list[str]] = {}
        for record in self.domains.values():
            by_iter.setdefault(record.iteration, []).append(record.name)
        return {k: sorted(v) for k, v in sorted(by_iter.items())}

    def to_networkx(self) -> "networkx.Graph":
        """Export as a networkx bipartite graph with node attributes.

        The only use of ``networkx`` in the package, imported here so
        that nothing else pays for loading it.
        """
        import networkx as nx

        graph = nx.Graph()
        for record in self.hosts.values():
            graph.add_node(
                record.name,
                bipartite=0,
                kind=record.kind.value,
                label=record.label.value,
                iteration=record.iteration,
                score=record.score,
            )
        for record in self.domains.values():
            graph.add_node(
                record.name,
                bipartite=1,
                kind=record.kind.value,
                label=record.label.value,
                iteration=record.iteration,
                score=record.score,
            )
        graph.add_edges_from(self.edges)
        return graph

    def ascii_render(self) -> str:
        """Small text rendering of the community (Figures 4/7/8 style)."""
        lines = ["hosts:"]
        for name in sorted(self.hosts):
            record = self.hosts[name]
            lines.append(f"  {name}  [{record.label.value}, iter {record.iteration}]")
        lines.append("domains:")
        for name in sorted(self.domains):
            record = self.domains[name]
            score = f", score {record.score:.2f}" if record.score else ""
            lines.append(
                f"  {name}  [{record.label.value}, iter {record.iteration}{score}]"
            )
        lines.append(f"edges: {len(self.edges)}")
        return "\n".join(lines)
