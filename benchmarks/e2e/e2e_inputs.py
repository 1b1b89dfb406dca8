"""Workload definitions and their on-disk inputs.

Each workload is a CLI verb over a layout generated by
``repro.synthetic`` from the benchmark seed.  Layouts are cached under
the data directory, keyed by workload + seed + size constants, each
with a ``MANIFEST.json`` of per-file SHA-256; the program under test
receives only the files.  Two result sets are comparable only when
their ``input_digest`` values match.

Sizes are chosen for the acceptance driver's budget (92 runs in 3420 s
on a 2-core host): one untraced CLI repetition takes 3-6 s here and
generation 3-9 s.  They are part of the cache key, so changing one
makes a new layout -- and a new baseline.

``day_records`` caps every daily file.  The synthetic worlds draw
their background services' beacon periods from the seed, so the same
configuration yields 105k-207k records a day (1000 hosts) depending on
the seed; uncapped, peak RSS and the share of start-up in the wall time
would measure the seed, not the code.  A day over the cap is thinned
(:func:`thin_day`) by taking its most-queried domains off some of their
hosts, whole (host, domain) series at a time: the popular services
simply run on fewer machines, and every host, every campaign and every
beacon's regularity stays.  The caps sit just under the smallest volume
seen, so nearly every seed yields the same number of records.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from e2e_measure import child_env

MANIFEST_NAME = "MANIFEST.json"
INTERNAL_SUFFIX = "int.c0"

#: Lines kept per daily file in the minimal layout ``setup_s`` runs on.
SETUP_LINES = 40

#: Layouts kept per workload in the data directory (oldest pruned), so
#: a driver sweeping seeds does not fill the disk.
KEEP_LAYOUTS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: why it exists and how big it is."""

    name: str
    why: str
    verb: str
    size: dict


WORKLOADS = (
    Workload(
        "dns-batch-wide",
        "run over a wide 700-host LANL-style world: ingest-dominated, "
        "logs+profiling bulk (lexsort) ingest do >=85% of the work and "
        "detection <=5%; a columnar ingest route must show here",
        "run",
        {"n_hosts": 700, "days": 4, "bootstrap_files": 2,
         "day_records": 63_000},
    ),
    Workload(
        "dns-stream-rare",
        "stream with checkpoints over a few-host, rare-heavy world: "
        "intra-day scoring (timing, core, verdict cache) is the largest "
        "layer; micro-batch (dict-path) ingest and state writes ride along",
        "stream",
        {"n_hosts": 40, "days": 4, "bootstrap_files": 1,
         "churn_domains_per_day": 1200, "rare_auto_services_per_day": 500,
         "checkpoint_every": 20, "day_records": 62_000},
    ),
    Workload(
        "ent-stream",
        "stream --pipeline enterprise over a proxy layout: proxy parse, "
        "UA profiling, WHOIS and regression C&C bypass the DNS parser "
        "and funnel, so a DNS-route change must read no change here",
        "stream",
        {"n_hosts": 250, "days": 3, "bootstrap_days": 5,
         "bootstrap_files": 0, "day_records": 18_000},
    ),
    Workload(
        "fleet-mixed",
        "fleet --workers 2 with checkpoints over 3 DNS + 1 enterprise "
        "tenants on the default executor: day-barrier rounds, per-tenant "
        "checkpoints and the intel plane do work no single engine does",
        "fleet",
        {"n_tenants": 4, "enterprise_tenants": 1, "n_hosts": 130,
         "days": 3, "bootstrap_files": 1, "workers": 2,
         "day_records": 12_000},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def cli_args(workload: Workload, layout: Path, tmp: Path) -> list[str]:
    """The ``repro.cli`` argv this workload measures.

    ``fleet-mixed`` deliberately passes no ``--executor``: it measures
    what the default delivers.  The DNS verbs pass the generated
    world's internal suffix, as the repo's own run recipe does.
    """
    size = workload.size
    if workload.name == "dns-batch-wide":
        return ["run", str(layout), "--internal-suffix", INTERNAL_SUFFIX]
    if workload.name == "dns-stream-rare":
        return [
            "stream", str(layout), "--internal-suffix", INTERNAL_SUFFIX,
            "--bootstrap-files", str(size["bootstrap_files"]),
            "--checkpoint", str(tmp / "ck.json"),
            "--checkpoint-every", str(size["checkpoint_every"]),
        ]
    if workload.name == "ent-stream":
        return [
            "stream", str(layout), "--pipeline", "enterprise",
            "--model-state", str(layout / "model.json"),
            "--whois", str(layout / "whois.json"),
            "--bootstrap-files", "0",
        ]
    return [
        "fleet", str(layout / "manifest.json"),
        "--workers", str(size["workers"]),
        "--checkpoint-dir", str(tmp / "ck"),
        "--json", str(tmp / "report.json"),
    ]


# ---------------------------------------------------------------------------
# Generation (repro.synthetic; imported lazily so the spec and the unit
# tests load without it)
# ---------------------------------------------------------------------------

def _write_dns_layout(directory: Path, config, days: int) -> None:
    """Daily DNS logs + ground_truth.txt, as ``repro-detect generate``
    writes them (which has no flags for the churn/rare knobs)."""
    from repro.logs import format_dns_line
    from repro.synthetic import generate_lanl_dataset

    dataset = generate_lanl_dataset(config)
    for march_date in range(1, days + 1):
        path = directory / f"dns-march-{march_date:02d}.log"
        with path.open("w") as handle:
            handle.writelines(
                format_dns_line(record) + "\n"
                for record in dataset.day_records(march_date)
            )
    with (directory / "ground_truth.txt").open("w") as handle:
        for truth in dataset.campaigns:
            if truth.march_date > days:
                continue
            handle.write(
                f"3/{truth.march_date:02d} case{truth.case} "
                f"hints={','.join(truth.hint_hosts) or '-'} "
                f"domains={','.join(truth.malicious_domains)}\n"
            )


#: Hosts a thinned domain keeps at least: above the detector's
#: rare-destination threshold (10), so thinning never makes a popular
#: service look rare.
THIN_KEEP_HOSTS = 20


def thin_day(lines: list[str], cap: int, *, proxy: bool) -> list[str]:
    """At most ``cap`` of a day's log lines, in order.

    Drops whole (host, domain) series of the most-queried domains, one
    host at a time (hosts in name order), until the day fits; a domain
    keeps at least :data:`THIN_KEEP_HOSTS` hosts.
    """
    host_field, domain_field = (2, 4) if proxy else (1, 3)
    separator = "\t" if proxy else None
    keys = []
    series: dict[str, dict[str, int]] = {}
    for line in lines:
        fields = line.split(separator)
        key = (fields[host_field], fields[domain_field])
        keys.append(key)
        hosts = series.setdefault(key[1], {})
        hosts[key[0]] = hosts.get(key[0], 0) + 1
    excess = len(lines) - cap
    dropped: set[tuple[str, str]] = set()
    by_volume = sorted(
        series, key=lambda domain: (-sum(series[domain].values()), domain)
    )
    for domain in by_volume:
        hosts = sorted(series[domain])
        for host in hosts[THIN_KEEP_HOSTS:]:
            if excess <= 0:
                break
            dropped.add((host, domain))
            excess -= series[domain][host]
        if excess <= 0:
            break
    return [line for line, key in zip(lines, keys) if key not in dropped]


def _generate(workload: Workload, seed: int, directory: Path) -> None:
    from repro.synthetic import (
        EnterpriseDatasetConfig,
        FleetScenarioConfig,
        LanlConfig,
        generate_enterprise_dataset,
        generate_fleet_dataset,
        write_enterprise_layout,
        write_fleet_layout,
    )

    size = workload.size
    if workload.name in ("dns-batch-wide", "dns-stream-rare"):
        knobs = ("n_hosts", "churn_domains_per_day",
                 "rare_auto_services_per_day")
        _write_dns_layout(
            directory,
            LanlConfig(seed=seed, **{k: size[k] for k in knobs if k in size}),
            size["days"],
        )
    elif workload.name == "ent-stream":
        dataset = generate_enterprise_dataset(EnterpriseDatasetConfig(
            seed=seed,
            n_hosts=size["n_hosts"],
            bootstrap_days=size["bootstrap_days"],
            operation_days=size["days"],
            quiet_days=1,
        ))
        write_enterprise_layout(dataset, directory, days=size["days"])
    else:
        fleet = generate_fleet_dataset(FleetScenarioConfig(
            seed=seed,
            n_tenants=size["n_tenants"],
            tenant=LanlConfig(seed=seed, n_hosts=size["n_hosts"]),
            enterprise_tenants=size["enterprise_tenants"],
        ))
        write_fleet_layout(
            fleet, directory, days=size["days"],
            bootstrap_files=size["bootstrap_files"],
        )
    for path in directory.rglob("*.log"):
        with path.open() as handle:
            lines = handle.readlines()
        if len(lines) > size["day_records"]:
            path.write_text("".join(thin_day(
                lines, size["day_records"],
                proxy=path.name.startswith("proxy-"),
            )))


# ---------------------------------------------------------------------------
# Manifest: per-file digests plus an independent count of what each
# daily file should reduce to (the reference the CLI's day lines are
# checked against -- plain string logic, none of the repo's parsers)
# ---------------------------------------------------------------------------

def _is_ip(text: str) -> bool:
    try:
        ipaddress.ip_address(text)
    except ValueError:
        return False
    return True


def count_events(
    path: Path, server_ips: frozenset[str] = frozenset()
) -> tuple[int, int]:
    """``(records, expected events)`` of one daily file: its lines, and
    those that survive reduction/normalization.

    DNS: A records for names outside the internal namespace, not asked
    by an internal server.  Proxy: destinations that are not bare IPs.
    """
    records = kept = 0
    suffix = "." + INTERNAL_SUFFIX
    proxy = path.name.startswith("proxy-")
    with path.open() as handle:
        for line in handle:
            records += 1
            if proxy:
                fields = line.rstrip("\n").split("\t")
                kept += len(fields) == 10 and not _is_ip(fields[4])
            else:
                fields = line.split()
                kept += (
                    len(fields) == 5
                    and fields[2] == "A"
                    and not fields[3].lower().endswith(suffix)
                    and fields[1] not in server_ips
                )
    return records, kept


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _server_ips(layout: Path) -> dict[str, frozenset[str]]:
    """Tenant directory name -> server IPs its manifest entry filters."""
    manifest = layout / "manifest.json"
    if not manifest.is_file():
        return {}
    return {
        entry["directory"]: frozenset(entry.get("server_ips", ()))
        for entry in json.loads(manifest.read_text())["tenants"]
    }


def build_manifest(layout: Path, key: dict) -> dict:
    """Digest every file of a layout; count records in its daily logs."""
    servers = _server_ips(layout)
    files: dict[str, dict] = {}
    for path in sorted(p for p in layout.rglob("*") if p.is_file()):
        rel = path.relative_to(layout).as_posix()
        if rel == MANIFEST_NAME:
            continue
        entry: dict = {"sha256": _sha256(path), "bytes": path.stat().st_size}
        if path.suffix == ".log":
            entry["records"], entry["expected_events"] = count_events(
                path, servers.get(path.parent.name, frozenset())
            )
        files[rel] = entry
    logs = [entry for entry in files.values() if "records" in entry]
    return {
        "key": key,
        "files": files,
        "records": sum(entry["records"] for entry in logs),
        "log_bytes": sum(entry["bytes"] for entry in logs),
        "input_digest": input_digest(files),
    }


def input_digest(files: dict[str, dict]) -> str:
    """One digest over every (path, sha256) of a layout."""
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(f"{rel}\0{files[rel]['sha256']}\n".encode())
    return digest.hexdigest()


def verify_manifest(layout: Path, key: dict) -> dict | None:
    """The layout's manifest if it matches ``key`` and every file's
    digest; ``None`` when the cache entry is absent, stale or damaged."""
    path = layout / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if manifest.get("key") != key:
        return None
    for rel, entry in manifest.get("files", {}).items():
        target = layout / rel
        if not target.is_file() or _sha256(target) != entry["sha256"]:
            return None
    return manifest


def ensure_layout(workload: Workload, seed: int, data_dir: Path):
    """``(layout directory, manifest, seconds spent generating)``.

    A verified cache hit costs no generation (0.0 s).
    """
    key = {"workload": workload.name, "seed": seed, "size": workload.size}
    tag = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()
    ).hexdigest()[:12]
    layout = data_dir / f"{workload.name}-s{seed}-{tag}"
    manifest = verify_manifest(layout, key)
    if manifest is not None:
        layout.touch()
        return layout, manifest, 0.0
    started = time.perf_counter()
    shutil.rmtree(layout, ignore_errors=True)
    layout.mkdir(parents=True)
    # In a child of its own: a process that held a generated world
    # would hand its RSS to every CLI child it later spawns (Linux
    # carries ru_maxrss across fork+exec), and peak_rss_mb would
    # measure the generator.
    subprocess.run(
        [sys.executable, __file__, workload.name, str(seed), str(layout)],
        env=child_env(), check=True,
    )
    elapsed = time.perf_counter() - started
    manifest = build_manifest(layout, key)
    (layout / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1) + "\n")
    siblings = sorted(
        data_dir.glob(f"{workload.name}-s*"), key=lambda p: p.stat().st_mtime
    )
    for stale in siblings[:-KEEP_LAYOUTS]:
        shutil.rmtree(stale, ignore_errors=True)
    return layout, manifest, elapsed


def write_setup_layout(layout: Path, target: Path) -> None:
    """A minimal valid layout of the same shape: every daily log cut to
    its first :data:`SETUP_LINES` lines, everything else copied."""
    for path in (p for p in layout.rglob("*") if p.is_file()):
        rel = path.relative_to(layout)
        if rel.name == MANIFEST_NAME:
            continue
        out = target / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".log":
            with path.open() as handle:
                out.write_text("".join(
                    line for _, line in zip(range(SETUP_LINES), handle)
                ))
        else:
            shutil.copyfile(path, out)


# ---------------------------------------------------------------------------
# What the CLI is expected to report, and the ground truth
# ---------------------------------------------------------------------------

def expected_days(workload: Workload, manifest: dict) -> list[tuple[str, int]]:
    """``(tenant, expected event count)`` per operational day line, in
    the order the CLI reports them (tenant is ``""`` off the fleet)."""
    boot = workload.size["bootstrap_files"]
    by_dir: dict[str, list[int]] = {}
    for rel in sorted(manifest["files"]):
        entry = manifest["files"][rel]
        if "records" in entry:
            tenant = rel.rpartition("/")[0]
            by_dir.setdefault(tenant, []).append(entry["expected_events"])
    return [
        (tenant, count)
        for tenant in sorted(by_dir)
        for count in by_dir[tenant][boot:]
    ]


_DOMAINS = re.compile(r"\bdomains=(\S+)")


def parse_truth(text: str, *, first_date: int = 0) -> set[str]:
    """Malicious domains of a ``ground_truth.txt``/``shared_truth.txt``.

    DNS lines start ``3/DD`` (a March date) and count only from
    ``first_date`` on -- bootstrap days run no detection, so their
    campaigns cannot be recalled.  Enterprise lines (``days=...``) and
    anything else always count.
    """
    truth: set[str] = set()
    for line in text.splitlines():
        match = _DOMAINS.search(line)
        if match is None:
            continue
        head = line.split()[0]
        if head.startswith("3/") and int(head[2:]) < first_date:
            continue
        truth.update(match.group(1).split(","))
    return truth


def load_truth(workload: Workload, layout: Path) -> set[str]:
    """Ground-truth malicious domains the workload's replay can see.

    Enterprise truth files list only campaigns active on shipped days,
    and the fleet's enterprise template keeps its first days attack
    free, so those need no date filter.
    """
    first_date = workload.size["bootstrap_files"] + 1
    if workload.verb != "fleet":
        return parse_truth(
            (layout / "ground_truth.txt").read_text(), first_date=first_date
        )
    truth = parse_truth((layout / "shared_truth.txt").read_text())
    for tenant in json.loads((layout / "manifest.json").read_text())["tenants"]:
        truth |= parse_truth(
            (layout / tenant["directory"] / "ground_truth.txt").read_text(),
            first_date=first_date,
        )
    return truth


if __name__ == "__main__":
    _generate(BY_NAME[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
