"""Enterprise entity model: hosts, software profiles, user agents.

The enterprise-specific features exploited by the paper depend on
structural properties of corporate fleets:

* software is homogeneous, so the vast majority of HTTP traffic uses a
  small pool of *popular* user-agent strings (browsers, OS updaters),
  while a handful of hosts run unpopular software with rare UAs -- the
  ``RareUA`` feature;
* users browse through pages, so most requests carry a referer; the
  paper's average is 7-9 UA strings per user.

:class:`EnterpriseModel` materializes a host fleet with those
properties for the generators to draw on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


#: Browser/OS agents shared fleet-wide (the popular pool).
POPULAR_USER_AGENTS = tuple(
    f"Mozilla/5.0 (Windows NT 6.1) Corp/{major}.{minor}"
    for major in (34, 35, 36)
    for minor in (0, 1)
) + (
    "Microsoft-CryptoAPI/6.1",
    "Windows-Update-Agent/7.6",
    "Corp-AV-Updater/2.3",
    "Mozilla/5.0 (Macintosh; Intel) Corp/36.0",
)


@dataclass(frozen=True)
class Host:
    """One internal machine and the UA strings its software emits."""

    name: str
    user_agents: tuple[str, ...]
    is_server: bool = False
    mobility: float = 0.0
    """Probability the host appears behind VPN rather than DHCP on a
    given day (laptops roam; desktops do not)."""

    def primary_ua(self) -> str:
        return self.user_agents[0]


@dataclass
class EnterpriseModel:
    """A fleet of hosts with realistic UA popularity structure."""

    hosts: list[Host] = field(default_factory=list)
    servers: list[Host] = field(default_factory=list)
    rare_user_agents: list[str] = field(default_factory=list)

    def host(self, index: int) -> Host:
        return self.hosts[index % len(self.hosts)]


def build_enterprise(
    n_hosts: int,
    rng: random.Random,
    *,
    n_servers: int = 4,
    rare_ua_fraction: float = 0.04,
) -> EnterpriseModel:
    """Create a fleet of ``n_hosts`` clients plus internal servers.

    Every client gets 5-9 UAs from the popular pool; a small fraction
    additionally runs one piece of unpopular software with a UA unique
    to at most a couple of machines.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    model = EnterpriseModel()
    for index in range(n_hosts):
        count = rng.randint(5, min(9, len(POPULAR_USER_AGENTS)))
        agents = tuple(rng.sample(POPULAR_USER_AGENTS, count))
        mobility = 0.6 if rng.random() < 0.3 else 0.05
        model.hosts.append(
            Host(name=f"host{index:05d}", user_agents=agents, mobility=mobility)
        )

    n_rare = max(1, int(n_hosts * rare_ua_fraction))
    for rare_index in range(n_rare):
        ua = f"ObscureTool/{rare_index}.{rng.randint(0, 9)}"
        model.rare_user_agents.append(ua)
        owner = model.hosts[rng.randrange(n_hosts)]
        model.hosts[model.hosts.index(owner)] = Host(
            name=owner.name,
            user_agents=owner.user_agents + (ua,),
            mobility=owner.mobility,
        )

    for index in range(n_servers):
        model.servers.append(
            Host(
                name=f"srv{index:03d}",
                user_agents=("Server-Agent/1.0",),
                is_server=True,
            )
        )
    return model
