"""Command-line interface for the reproduction.

The subcommands cover the workflows a downstream user needs::

    repro-detect lanl        # solve the LANL challenge, print Table III
    repro-detect enterprise  # train + sweep the enterprise pipeline
    repro-detect generate    # write synthetic logs to disk
    repro-detect run         # batch detection over a log directory
    repro-detect stream      # replay a log directory as an event stream
    repro-detect fleet       # run many tenants above a shared intel plane
    repro-detect intel       # inspect/maintain a durable intel store
    repro-detect timing      # test one timestamp series for automation

``stream`` drives the online engine (:mod:`repro.streaming`): events
are consumed in micro-batches with intra-day scoring, optional
checkpointing (``--checkpoint``), and crash recovery (``--resume``).
Both log families are supported: ``--pipeline dns`` (the default;
LANL-style logs through the multi-host heuristic) and ``--pipeline
enterprise`` (pre-joined web-proxy logs through trained regression
scorers, restored from ``--model-state``).  ``fleet`` drives one
engine per enterprise tenant (:mod:`repro.fleet`) from a tenant
manifest -- tenants of either pipeline, mixed freely -- sharing
VT/WHOIS caches and cross-tenant priors; ``generate --tenants N``
writes a runnable fleet layout (``--enterprise-tenants K`` makes the
trailing K tenants proxy-path worlds), and ``generate --pipeline
enterprise`` a single-tenant enterprise layout for ``stream``.

Exit codes are uniform: 0 success, 2 usage/configuration error (bad
manifest, missing checkpoint -- one-line message, no traceback),
3 interrupted (resumable with ``--resume``).  ``timing`` answers with
its status: 0 automated, 1 not automated, 2 bad input.

The models are regressions over a handful of features and parallel
work runs as processes (``fleet --workers N``), so ``main`` makes
OpenBLAS single-threaded unless ``OPENBLAS_NUM_THREADS`` is already
set; ``import repro`` is lazy, so that lands before numpy loads.
A data verb freezes its import heap (``gc.freeze()``) before any work,
and a CLI process again at exit, so the collector never re-traverses it.

All commands are seeded and offline; see ``--help`` of each subcommand.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path


def _add_lanl_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "lanl", help="solve the LANL challenge and print the Table III analogue"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--hosts", type=int, default=100)
    parser.add_argument("--bootstrap-days", type=int, default=4)


def _add_enterprise_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "enterprise",
        help="train the enterprise pipeline and print the Figure 6 sweeps",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--hosts", type=int, default=80)
    parser.add_argument("--operation-days", type=int, default=8)
    parser.add_argument("--campaigns", type=int, default=12)
    parser.add_argument(
        "--save-state", type=Path, default=None,
        help="write the trained detector state to this JSON file",
    )


def _add_generate_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="write synthetic LANL DNS logs to a directory"
    )
    parser.add_argument("output", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--hosts", type=int, default=100)
    parser.add_argument(
        "--days", type=int, default=7, help="number of March days to write"
    )
    parser.add_argument(
        "--tenants", type=int, default=1,
        help="with N >= 2, write an N-tenant fleet layout (per-tenant "
             "log directories, shared VT/WHOIS intel and a "
             "manifest.json for 'repro-detect fleet') whose tenants "
             "share one attacker campaign",
    )
    parser.add_argument(
        "--enterprise-tenants", type=int, default=0,
        help="with --tenants N, make the trailing K tenants enterprise "
             "(web-proxy) worlds with trained per-tenant models -- a "
             "mixed-pipeline fleet (the lead stays on the DNS path)",
    )
    parser.add_argument(
        "--pipeline", choices=("dns", "enterprise"), default="dns",
        help="single-tenant log family: 'dns' writes LANL-style DNS "
             "logs, 'enterprise' a web-proxy layout (daily proxy logs, "
             "a trained model.json and whois.json) for "
             "'repro-detect stream --pipeline enterprise'",
    )
    parser.add_argument(
        "--ct-siblings", type=int, default=0,
        help="with --tenants N, inject K extra campaign domains "
             "reachable only through the CT fixture's SAN pivot (the "
             "manifest then references intel/certs.json)",
    )
    parser.add_argument(
        "--campaign", default=None,
        help="overlay one adversarial campaign archetype on the "
             "generated world (jitter, dga-chardist, dga-dictionary, "
             "dga-hashhex, cdn-fronting, slow-burn; tenant-churn needs "
             "--tenants N >= 3).  Its ground truth is written to "
             "adversarial_truth.txt",
    )
    parser.add_argument(
        "--evasion", type=float, default=0.0,
        help="evasion strength in [0, 1] for --campaign: 0 is the "
             "textbook (fully detectable) shape, 1 the hardest "
             "realization of the archetype",
    )


def _add_intel_db_arguments(parser) -> None:
    """Durable intel-store flags shared by stream/fleet."""
    parser.add_argument(
        "--intel-db", type=Path, default=None,
        help="durable SQLite intel store: VT verdicts, WHOIS/RDAP "
             "records and per-tenant history persist across runs "
             "(created on first use; detections are identical with or "
             "without it -- repeat runs just skip re-resolving "
             "already-stored evidence)",
    )
    parser.add_argument(
        "--intel-ttl-days", type=float, default=None,
        help="expire stored intel entries after this many days "
             "(default: never; see the operations runbook for tuning)",
    )


def _add_obs_arguments(parser) -> None:
    """Observability flags shared by run/stream/fleet."""
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write the run's metrics snapshot to this JSON file (plus "
             "a Prometheus-style text sibling with a .prom suffix); "
             "also turns metric recording on -- detections are "
             "identical either way",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="emit structured runtime events to stderr at this level "
             "(off by default)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="format structured events (and errors) as JSON lines",
    )


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run",
        help="run detection over a directory of daily DNS log files "
             "(as written by 'repro-detect generate')",
    )
    parser.add_argument("directory", type=Path)
    parser.add_argument(
        "--bootstrap-files", type=int, default=2,
        help="leading files used to build the destination history",
    )
    parser.add_argument("--pattern", default="dns-*.log")
    parser.add_argument(
        "--internal-suffix", action="append", default=[],
        help="internal namespace suffix to filter (repeatable)",
    )
    _add_obs_arguments(parser)


def _add_stream_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "stream",
        help="replay a directory of daily log files as an event "
             "stream through the online detection engine",
    )
    parser.add_argument("directory", type=Path)
    parser.add_argument(
        "--pipeline", choices=("dns", "enterprise"), default="dns",
        help="log family: 'dns' (LANL-style logs, multi-host C&C "
             "heuristic) or 'enterprise' (pre-joined web-proxy logs, "
             "trained regression scorers from --model-state)",
    )
    parser.add_argument(
        "--model-state", type=Path, default=None,
        help="trained detector JSON for --pipeline enterprise (as "
             "written by 'enterprise --save-state' or a generated "
             "layout's model.json)",
    )
    parser.add_argument(
        "--whois", type=Path, default=None,
        help="WHOIS registry JSON for --pipeline enterprise (a "
             "generated layout's whois.json); without it registration "
             "features fall back to imputation",
    )
    parser.add_argument(
        "--bootstrap-files", type=int, default=2,
        help="leading files used to build the destination history",
    )
    parser.add_argument(
        "--pattern", default=None,
        help="daily log glob (default dns-*.log, or proxy-*.log with "
             "--pipeline enterprise)",
    )
    parser.add_argument(
        "--internal-suffix", action="append", default=[],
        help="internal namespace suffix to filter (repeatable)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=500,
        help="events per micro-batch",
    )
    parser.add_argument(
        "--score-every", type=int, default=1,
        help="run a scoring round every N micro-batches",
    )
    parser.add_argument(
        "--checkpoint", type=Path, default=None,
        help="persist engine state to this JSON file while streaming",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="checkpoint every N micro-batches",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore from --checkpoint and continue where it left off "
             "(detection config and filters come from the checkpoint)",
    )
    parser.add_argument(
        "--max-batches", type=int, default=None,
        help="stop after N micro-batches (for testing restarts); "
             "exits with status 3 when interrupted",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every intra-day scoring update, not just day reports",
    )
    _add_intel_db_arguments(parser)
    _add_obs_arguments(parser)


def _add_fleet_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet",
        help="run one detection engine per enterprise tenant above a "
             "shared intel plane (VT/WHOIS caches + cross-tenant priors)",
        description="Advance every tenant named in the manifest through "
                    "its log directory in day-barrier rounds.  Tenants "
                    "may mix pipelines (DNS and enterprise/proxy).  "
                    "Detections published by one tenant seed belief "
                    "propagation in the others from the next day on -- "
                    "across pipeline types; results are identical for "
                    "any --workers value.  Exit codes: 0 success, 2 bad "
                    "manifest/checkpoint, 3 interrupted (resume with "
                    "--resume).",
    )
    parser.add_argument(
        "manifest", type=Path,
        help="fleet manifest JSON (as written by 'generate --tenants N')",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="long-lived worker processes the tenants are split over; "
             "engines stay in worker memory across rounds (default 1; "
             "see the operations runbook for sizing guidance)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for per-tenant checkpoints and the fleet state "
             "(enables --resume after an interruption; a worker that "
             "dies is respawned from its last checkpoint)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue a checkpointed fleet run from its last completed "
             "round (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=None,
        help="stop after N day-barrier rounds (for testing restarts); "
             "exits with status 3 when interrupted",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the full fleet report to this JSON file",
    )
    _add_intel_db_arguments(parser)
    _add_obs_arguments(parser)


def _add_intel_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "intel",
        help="inspect or maintain a durable intel store "
             "(as written by 'fleet --intel-db' / 'stream --intel-db')",
        description="Maintenance verbs for the SQLite intel store: "
                    "'stats' prints a JSON health document (size, "
                    "per-table row counts, pending writes), 'vacuum' "
                    "drops expired entries and compacts the file, "
                    "'export' dumps every stored record as JSON. "
                    "Exit codes: 0 success, 2 missing or corrupt store.",
    )
    parser.add_argument(
        "action", choices=("stats", "vacuum", "export"),
        help="what to do with the store",
    )
    parser.add_argument("db", type=Path, help="intel store path")


def _add_timing_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "timing",
        help="test a timestamp series (one float per line on stdin or a "
             "file) for automated C&C-like behaviour",
    )
    parser.add_argument(
        "series", nargs="?", type=Path, default=None,
        help="file with one epoch timestamp per line (default: stdin)",
    )
    parser.add_argument("--bin-width", type=float, default=10.0)
    parser.add_argument("--threshold", type=float, default=0.06)


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-detect argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Early-stage enterprise infection detection "
                    "(Oprea et al., DSN 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_lanl_parser(subparsers)
    _add_enterprise_parser(subparsers)
    _add_generate_parser(subparsers)
    _add_run_parser(subparsers)
    _add_stream_parser(subparsers)
    _add_fleet_parser(subparsers)
    _add_intel_parser(subparsers)
    _add_timing_parser(subparsers)
    return parser


def _fail(message: str, *, json_mode: bool = False) -> int:
    """Uniform one-line failure: no traceback, exit status 2.

    With ``json_mode`` (the command ran with ``--log-json``) the error
    leaves through the structured logger as one JSON line on stderr,
    so log collectors see failures in the same shape as every other
    event.
    """
    if json_mode:
        import logging

        from .obs import configure_logging, get_logger, log_event

        configure_logging("error", json_mode=True)
        log_event(
            get_logger("cli"), "error",
            level=logging.ERROR, message=message,
        )
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _start_data_verb(args):
    """Freeze the verb's import heap (fleet workers inherit it frozen)
    and apply its obs flags; the run's registry, which exists only with
    ``--metrics-out`` (uninstrumented runs pay the NULL-registry path
    everywhere), or ``None``.  Logging stays off unless asked for."""
    gc.freeze()
    if args.log_level is not None or args.log_json:
        from .obs import configure_logging

        configure_logging(args.log_level or "info", json_mode=args.log_json)
    if args.metrics_out is None:
        return None
    from .obs.metrics import MetricsRegistry

    return MetricsRegistry()


def _unwritable_output(args) -> str | None:
    """Why a file the verb writes once its work is done cannot be
    written, or ``None``; checked before any work starts.
    ``--metrics-out`` creates missing parent directories, ``fleet
    --json`` and ``enterprise --save-state`` do not."""
    for flag, makes_parents in (
        ("--metrics-out", True), ("--json", False), ("--save-state", False),
    ):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None:
            continue
        if path.is_dir():
            return f"{flag} is a directory: {path}"
        found = next(p for p in path.parents if p.exists())
        if not found.is_dir():
            return f"{flag}: not a directory: {found}"
        if not makes_parents and found != path.parent:
            return f"{flag} directory not found: {path.parent}"
    return None


def _write_metrics(metrics, path: Path) -> None:
    """Write the final snapshot: JSON at ``path``, text at ``.prom``."""
    import json

    snapshot = metrics.snapshot()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot.as_dict(), indent=1) + "\n")
    prom_path = path.with_suffix(".prom")
    prom_path.write_text(snapshot.to_prom())
    print(f"metrics written to {path} and {prom_path}")


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _run_lanl(args) -> int:
    from .eval import LanlChallengeSolver, render_table
    from .synthetic import generate_lanl_dataset
    from .synthetic.lanl import LanlConfig

    if args.hosts < 1:
        return _fail("--hosts must be positive")
    if args.bootstrap_days < 0:
        return _fail(
            f"--bootstrap-days must be non-negative, not {args.bootstrap_days}"
        )
    dataset = generate_lanl_dataset(
        LanlConfig(seed=args.seed, n_hosts=args.hosts,
                   bootstrap_days=args.bootstrap_days)
    )
    report = LanlChallengeSolver(dataset).solve_all()
    rows = []
    for case in (1, 2, 3, 4):
        train = report.counts_for(case, training=True)
        test = report.counts_for(case, training=False)
        rows.append((f"Case {case}", train.true_positives, test.true_positives,
                     train.false_positives, test.false_positives,
                     train.false_negatives, test.false_negatives))
    print(render_table(
        ("case", "TP(tr)", "TP(te)", "FP(tr)", "FP(te)", "FN(tr)", "FN(te)"),
        rows, title="LANL challenge results",
    ))
    overall = report.overall
    print(f"TDR={overall.tdr:.2%} FDR={overall.fdr:.2%} FNR={overall.fnr:.2%}")
    return 0


def _run_enterprise(args) -> int:
    from .eval import EnterpriseEvaluation, render_table
    from .synthetic import EnterpriseDatasetConfig, generate_enterprise_dataset

    if args.hosts < 1:
        return _fail("--hosts must be positive")
    for flag in ("operation_days", "campaigns"):
        if getattr(args, flag) < 1:
            return _fail(
                f"--{flag.replace('_', '-')} must be positive, "
                f"not {getattr(args, flag)}"
            )
    dataset = generate_enterprise_dataset(
        EnterpriseDatasetConfig(
            seed=args.seed, n_hosts=args.hosts,
            operation_days=args.operation_days, n_campaigns=args.campaigns,
        )
    )
    try:
        evaluation = EnterpriseEvaluation(dataset)
    except ValueError as exc:
        return _fail(f"training failed: {exc}")
    for title, sweep in (
        ("C&C sweep (Fig 6a)", evaluation.cc_sweep()),
        ("No-hint sweep (Fig 6b)", evaluation.no_hint_sweep()),
        ("SOC-hints sweep (Fig 6c)", evaluation.soc_hints_sweep()),
    ):
        rows = [
            (f"{p.threshold:.2f}", p.detected_count,
             p.breakdown.known_malicious, p.breakdown.new_malicious,
             p.breakdown.legitimate, f"{p.breakdown.tdr:.0%}")
            for p in sweep
        ]
        print(render_table(
            ("thr", "detected", "VT/SOC", "new", "legit", "TDR"),
            rows, title=title,
        ))
        print()
    if args.save_state is not None:
        from .state import save_detector

        save_detector(evaluation.detector, args.save_state)
        print(f"detector state saved to {args.save_state}")
    return 0


def _run_generate(args) -> int:
    from .logs import format_dns_line
    from .synthetic import generate_lanl_dataset
    from .synthetic.lanl import LanlConfig

    for flag in ("tenants", "hosts", "days"):
        if getattr(args, flag) < 1:
            return _fail(f"--{flag} must be positive")
    # The nearest existing ancestor must be a directory, or the world
    # would be generated only to fail at its first write.
    found = next(p for p in (args.output, *args.output.parents) if p.exists())
    if not found.is_dir():
        return _fail(f"not a directory: {found}")
    if args.enterprise_tenants and args.tenants < 2:
        return _fail(
            "--enterprise-tenants needs a fleet (--tenants N >= 2); use "
            "--pipeline enterprise for a single-tenant enterprise layout"
        )
    if not 0 <= args.enterprise_tenants < args.tenants:
        return _fail(
            "--enterprise-tenants must leave at least the lead tenant "
            "on the DNS path"
        )
    if args.pipeline == "enterprise" and args.tenants > 1:
        return _fail(
            "--pipeline enterprise writes a single-tenant layout; for "
            "mixed fleets use --tenants N --enterprise-tenants K"
        )
    if args.ct_siblings and args.tenants < 2:
        return _fail("--ct-siblings needs a fleet (--tenants N >= 2)")
    if args.ct_siblings < 0:
        return _fail("--ct-siblings must be non-negative")
    campaign = args.campaign
    if args.evasion and campaign is None:
        return _fail("--evasion requires --campaign")
    if campaign is not None:
        from .synthetic.campaigns import CAMPAIGN_NAMES, FLEET_CAMPAIGN_NAMES

        if not 0.0 <= args.evasion <= 1.0:
            return _fail("--evasion must be in [0, 1]")
        if campaign in FLEET_CAMPAIGN_NAMES:
            if args.tenants < 3:
                return _fail(
                    "--campaign tenant-churn needs --tenants N >= 3"
                )
            if args.days < 6:
                return _fail(
                    "--campaign tenant-churn needs --days >= 6 (the "
                    "joining tenant is hit on a later follower date)"
                )
        elif campaign in CAMPAIGN_NAMES:
            if args.tenants > 1:
                return _fail(
                    f"--campaign {campaign} is single-tenant; only "
                    "tenant-churn works with --tenants"
                )
        else:
            known = ", ".join(CAMPAIGN_NAMES + FLEET_CAMPAIGN_NAMES)
            return _fail(
                f"unknown campaign {campaign!r} (use one of {known})"
            )
    if args.tenants > 1:
        if args.days < 3:
            return _fail(
                "--tenants needs --days >= 3 (follower tenants are hit "
                "by the shared campaign on day 3)"
            )
        from .synthetic import (
            FleetScenarioConfig,
            generate_fleet_dataset,
            write_fleet_layout,
        )

        if campaign is not None:
            from dataclasses import replace

            from .synthetic import churn_fleet_config

            scenario = replace(
                churn_fleet_config(
                    strength=args.evasion,
                    seed=args.seed,
                    n_tenants=args.tenants,
                    tenant=LanlConfig(seed=args.seed, n_hosts=args.hosts),
                    enterprise_tenants=args.enterprise_tenants,
                ),
                ct_sibling_domains=args.ct_siblings,
            )
        else:
            scenario = FleetScenarioConfig(
                seed=args.seed,
                n_tenants=args.tenants,
                tenant=LanlConfig(seed=args.seed, n_hosts=args.hosts),
                enterprise_tenants=args.enterprise_tenants,
                ct_sibling_domains=args.ct_siblings,
            )
        fleet = generate_fleet_dataset(scenario)
        manifest_path = write_fleet_layout(fleet, args.output, days=args.days)
        for tenant_id in fleet.tenant_ids:
            pattern = (
                "proxy-*.log"
                if fleet.pipeline_of(tenant_id) == "enterprise"
                else "dns-*.log"
            )
            written = len(list((args.output / tenant_id).glob(pattern)))
            print(f"wrote {args.output / tenant_id}/ "
                  f"({written} daily logs, "
                  f"{fleet.pipeline_of(tenant_id)} pipeline)")
        print(f"wrote {manifest_path}")
        print(f"run it:  repro-detect fleet {manifest_path} --workers "
              f"{args.tenants}")
        return 0

    if args.pipeline == "enterprise":
        from .synthetic import (
            EnterpriseDatasetConfig,
            generate_enterprise_dataset,
            write_enterprise_layout,
        )

        dataset = generate_enterprise_dataset(EnterpriseDatasetConfig(
            seed=args.seed,
            n_hosts=args.hosts,
            operation_days=max(args.days, 4),
            quiet_days=1,
        ))
        realized = _realize_cli_campaign(campaign, args, dataset)
        try:
            if realized is not None:
                from .intel.whois_db import save_whois_file
                from .synthetic.campaigns import campaign_proxy_records
                from .synthetic.fleet import (
                    _prejoined_proxy_records,
                    write_enterprise_tenant,
                )

                for domain, registered, expires in realized.whois_records:
                    dataset.whois.register(domain, registered, expires)

                def day_records(march_date):
                    day = dataset.config.bootstrap_days + (march_date - 1)
                    records = _prejoined_proxy_records(dataset, day)
                    records.extend(campaign_proxy_records(realized, day))
                    records.sort(key=lambda r: r.timestamp)
                    return records

                write_enterprise_tenant(
                    dataset, args.output, days=args.days,
                    day_records=day_records,
                )
                save_whois_file(dataset.whois, args.output / "whois.json")
            else:
                write_enterprise_layout(dataset, args.output, days=args.days)
        except ValueError as exc:
            return _fail(str(exc))
        _write_adversarial_truth(realized, args.output, dataset)
        print(f"wrote {args.output}/ ({args.days} daily proxy logs, "
              "model.json, whois.json)")
        print(f"run it:  repro-detect stream {args.output} "
              "--pipeline enterprise "
              f"--model-state {args.output / 'model.json'} "
              f"--whois {args.output / 'whois.json'} --bootstrap-files 0")
        return 0

    dataset = generate_lanl_dataset(
        LanlConfig(seed=args.seed, n_hosts=args.hosts)
    )
    realized = _realize_cli_campaign(campaign, args, dataset)
    args.output.mkdir(parents=True, exist_ok=True)
    for march_date in range(1, args.days + 1):
        records = dataset.day_records(march_date)
        if realized is not None:
            from .synthetic.campaigns import campaign_dns_records

            day = dataset.config.bootstrap_days + (march_date - 1)
            overlay = campaign_dns_records(realized, dataset.host_ips, day)
            if overlay:
                records = sorted(
                    records + overlay, key=lambda r: r.timestamp
                )
        day_path = args.output / f"dns-march-{march_date:02d}.log"
        with day_path.open("w") as handle:
            for record in records:
                handle.write(format_dns_line(record) + "\n")
        print(f"wrote {day_path}")
    truth_path = args.output / "ground_truth.txt"
    with truth_path.open("w") as handle:
        for truth in dataset.campaigns:
            handle.write(
                f"3/{truth.march_date:02d} case{truth.case} "
                f"hints={','.join(truth.hint_hosts) or '-'} "
                f"domains={','.join(truth.malicious_domains)}\n"
            )
    print(f"wrote {truth_path}")
    _write_adversarial_truth(realized, args.output, dataset)
    return 0


def _realize_cli_campaign(campaign, args, dataset):
    """Realize a single-tenant adversarial campaign for ``generate``.

    The campaign starts on March 2 (the first post-bootstrap log file
    is still a clean training day), so a default layout's
    ``bootstrap_files=1`` run sees it on its first operational days.
    """
    if campaign is None:
        return None
    from .synthetic.campaigns import (
        AdversarialCampaignSpec,
        WorldView,
        realize_campaign,
    )

    spec = AdversarialCampaignSpec(
        campaign=campaign,
        strength=args.evasion,
        seed=args.seed,
        start_day=dataset.config.bootstrap_days + 1,
        duration_days=min(6 if campaign == "slow-burn" else 2,
                          max(args.days - 1, 1)),
        n_hosts=min(3, args.hosts),
    )
    return realize_campaign(WorldView.from_dataset(dataset), spec)


def _write_adversarial_truth(realized, output: Path, dataset) -> None:
    """Write the overlaid campaign's answers next to the layout."""
    if realized is None:
        return
    spec = realized.spec
    dates = ",".join(
        str(day - dataset.config.bootstrap_days + 1)
        for day in realized.active_days
    )
    truth_path = output / "adversarial_truth.txt"
    with truth_path.open("w") as handle:
        handle.write(
            f"campaign={spec.campaign} strength={spec.strength} "
            f"seed={spec.seed}\n"
        )
        handle.write(f"march_dates={dates}\n")
        handle.write(f"hosts={','.join(realized.hosts)}\n")
        handle.write(
            f"domains={','.join(sorted(realized.truth_domains()))}\n"
        )
    print(f"wrote {truth_path}")


def _print_days(reports, triage_report=None) -> None:
    """One line per closed day (``run`` names it by its file), then
    the triage of every detected domain unless ``triage_report`` is
    ``None``; ``run`` and ``stream`` print their days here."""
    detected: set[str] = set()
    for report in reports:
        print(
            f"{report.path.name if report.path else f'day {report.day}'}: "
            f"{report.records} records, {len(report.rare_domains)} rare, "
            f"C&C={sorted(report.cc_domains) or '-'}, "
            f"detected={report.detected or '-'}"
        )
        detected.update(report.detected)
    if triage_report is not None and detected:
        print()
        print(triage_report(detected))


def _interrupted(done: str, flag: str, path) -> int:
    """Say where a bounded run stopped and how to resume it; exit 3."""
    print(f"interrupted after {done}"
          + (f"; resume with --resume {flag} {path}" if path else ""))
    return 3


def _prepare_run(args):
    """``run``: :func:`repro.runner.run_directory`, one day per file."""
    from .eval.clusters import triage_report
    from .runner import run_directory

    def work(metrics) -> int:
        _print_days(run_directory(
            args.directory, bootstrap_files=args.bootstrap_files,
            pattern=args.pattern,
            internal_suffixes=tuple(args.internal_suffix), metrics=metrics,
        ), triage_report)
        return 0

    return work


def _prepare_stream(args):
    """``stream``: :func:`repro.streaming.replay_directory`, either
    pipeline, with the durable intel store if ``--intel-db``."""
    from .eval.clusters import triage_report
    from .streaming import replay_directory

    enterprise = args.pipeline == "enterprise"
    pattern = args.pattern or ("proxy-*.log" if enterprise else "dns-*.log")
    if enterprise and args.model_state is None:
        raise ValueError(
            "--pipeline enterprise requires --model-state (a trained "
            "detector JSON; see 'generate --pipeline enterprise')"
        )
    if not enterprise and (args.model_state or args.whois):
        flag = "--model-state" if args.model_state else "--whois"
        raise ValueError(f"{flag} is only valid with --pipeline enterprise")
    if enterprise and args.internal_suffix:
        raise ValueError(
            "--internal-suffix applies to the DNS reduction funnel only "
            "(enterprise proxy logs arrive pre-joined)"
        )

    def on_update(report) -> None:  # --verbose: every intra-day round
        if report.detected:
            print(f"  [day {report.day} +{report.records} ev] "
                  f"{report.mode}: detected={report.detected}")

    def work(metrics) -> int:
        result = replay_directory(
            args.directory, bootstrap_files=args.bootstrap_files,
            pattern=pattern, model_state=args.model_state,
            whois_path=args.whois,
            internal_suffixes=tuple(args.internal_suffix),
            batch_size=args.batch_size, score_every=args.score_every,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume, max_batches=args.max_batches,
            on_update=on_update if args.verbose else None,
            metrics=metrics,
            intel_db=args.intel_db, intel_ttl_days=args.intel_ttl_days,
        )
        if result.intel_rows is not None:
            print(f"intel store: {result.intel_rows} rows flushed to "
                  f"{args.intel_db}")
        _print_days(result.reports,
                    None if result.interrupted else triage_report)
        if result.interrupted:
            return _interrupted(f"{result.batches} micro-batches",
                                "--checkpoint", args.checkpoint)
        return 0

    return work


def _prepare_fleet(args):
    """``fleet``: :meth:`repro.fleet.FleetManager.run` over the
    manifest's tenants, and the ``--json`` report."""
    import json

    from .fleet import FleetManager, load_manifest

    def work(metrics) -> int:
        report = FleetManager.from_manifest(
            load_manifest(args.manifest), workers=args.workers,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            metrics=metrics,
            intel_db=args.intel_db, intel_ttl_days=args.intel_ttl_days,
        ).run(max_rounds=args.max_rounds)
        print(report.render())
        if args.json is not None:
            args.json.write_text(json.dumps(report.as_dict(), indent=1)
                                 + "\n")
            print(f"\nreport written to {args.json}")
        if report.interrupted:
            return _interrupted(f"{args.max_rounds} rounds",
                                "--checkpoint-dir", args.checkpoint_dir)
        return 0

    return work


def _run_data_verb(args) -> int:
    """The one frame of ``run``, ``stream`` and ``fleet``.

    Prepare (the verb's imports and flag checks, giving its ``work``
    step), start (:func:`_start_data_verb`), work (the library call
    and the verb's output), then finish: the metrics snapshot, written
    once -- also after an interrupted run, whose ``--resume`` restores
    it from the checkpoint and keeps counting.  An input error from
    any step before the finish leaves through the one ``except`` as
    one ``error:`` line (exit 2).
    """
    from .config import InputError

    prepare = {"run": _prepare_run, "stream": _prepare_stream,
               "fleet": _prepare_fleet}[args.command]
    try:
        work = prepare(args)
        metrics = _start_data_verb(args)
        code = work(metrics)
    except (ValueError, OSError, InputError) as exc:
        return _fail(str(exc), json_mode=args.log_json)
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)
    return code


def _run_intel(args) -> int:
    import json

    from .intelstore import IntelStore, IntelStoreError, export_json

    if not args.db.is_file():
        return _fail(f"intel store not found: {args.db}")
    try:
        store = IntelStore(args.db)
        if args.action == "stats":
            print(json.dumps(store.stats_document(), indent=1))
        elif args.action == "vacuum":
            dropped = store.purge_expired()
            store.vacuum()
            document = store.stats_document()
            print(
                f"dropped {dropped} expired entries; "
                f"{document['size_bytes']} bytes on disk"
            )
        else:
            print(export_json(store))
        store.close()
    except IntelStoreError as exc:
        return _fail(str(exc))
    return 0


def _run_timing(args) -> int:
    import math

    from .config import HistogramConfig
    from .timing import AutomationDetector

    if not (math.isfinite(args.bin_width) and args.bin_width > 0):
        return _fail(f"--bin-width must be finite and positive, "
                     f"not {args.bin_width}")
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        return _fail(f"--threshold must be finite and non-negative, "
                     f"not {args.threshold}")
    try:
        if args.series is not None:
            lines = args.series.read_text().splitlines()
        else:
            lines = sys.stdin.read().splitlines()
        timestamps = sorted(float(line) for line in lines if line.strip())
        if not all(map(math.isfinite, timestamps)):
            raise ValueError("non-finite epoch")
    except OSError as exc:
        return _fail(str(exc))
    except ValueError:
        return _fail("series must contain one finite float per line")
    detector = AutomationDetector(
        HistogramConfig(bin_width=args.bin_width,
                        jeffrey_threshold=args.threshold)
    )
    verdict = detector.test_series("cli", "cli", timestamps)
    print(f"connections:  {verdict.connections}")
    print(f"divergence:   {verdict.divergence:.4f} (threshold {args.threshold})")
    if verdict.period:
        print(f"period:       {verdict.period:.1f} s")
    print(f"automated:    {'YES' if verdict.automated else 'no'}")
    return 0 if verdict.automated else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    was_frozen = gc.get_freeze_count() > 0
    handlers = {
        "lanl": _run_lanl,
        "enterprise": _run_enterprise,
        "generate": _run_generate,
        "run": _run_data_verb,
        "stream": _run_data_verb,
        "fleet": _run_data_verb,
        "intel": _run_intel,
        "timing": _run_timing,
    }
    try:
        args = build_parser().parse_args(argv)
        unwritable = _unwritable_output(args)
        if unwritable is not None:
            return _fail(unwritable,
                         json_mode=getattr(args, "log_json", False))
        return handlers[args.command](args)
    finally:
        if not was_frozen:  # an in-process caller keeps its GC state
            gc.unfreeze()


if __name__ == "__main__":
    code = main()
    gc.freeze()  # the final collection then skips every live object
    raise SystemExit(code)
