"""No library surface without a caller, as a source scan.

Every public top-level function and class under ``src/repro``, and
every public method of a top-level class, must be referenced from
``src/`` or from a ``benchmarks/`` script -- as a name or an attribute.
Its own definition and an ``__init__`` re-export (an import or an
``__all__`` string) are not references.  A method that overrides a base
class's (another class under ``src/`` or a library one, e.g.
``logging.Formatter.format``) needs no caller: the base's caller calls
it.  A name that only tests or examples reach is either deleted or
listed in :data:`ALLOWED` with the reason it stays, and an entry that
no longer applies fails the scan, so the list can only shrink.
"""

import ast
import importlib
from collections.abc import Iterable, Mapping
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: ``path:Qualified.name`` (relative to ``src/repro``) -> why it stays.
ALLOWED = {
    "eval/incident.py:build_incident":
        "the SOC incident report examples/soc_workflow.py prints",
    "features/regression.py:Coefficient.significant":
        "read API of a fitted model; the regression tests assert it",
    "features/regression.py:LinearModel.coefficient":
        "read API of a fitted model; tests read the trained C&C "
        "model's coefficients through it",
    "features/selection.py:SelectionResult.dropped_features":
        "read API of the elimination trail; the selection tests "
        "assert what was dropped",
    "logs/dns.py:is_a_record":
        "reduction step 1 per record; tests/dns_oracle.py builds the "
        "funnel's reference from the three step predicates",
    "logs/dns.py:is_external_query":
        "reduction step 2 per record, for the same reference",
    "logs/dns.py:is_from_client":
        "reduction step 3 per record, for the same reference",
    "logs/domains.py:is_valid_domain":
        "oracle: the synthetic-world tests check every generated "
        "name with it",
    "logs/domains.py:same_subnet":
        "oracle: the synthetic-world tests check the IP allocator's "
        "subnets with it",
    "logs/reduction.py:ReductionStats.record_counts":
        "read API of Figure 2's per-step record counts; the runner, "
        "obs and columnar property tests read them through it",
    "obs/metrics.py:MetricsSnapshot.counter_value":
        "read API of a metrics snapshot; the obs tests read through it",
    "obs/metrics.py:MetricsSnapshot.gauge_value":
        "read API of a metrics snapshot; the obs tests read through it",
    "obs/metrics.py:MetricsSnapshot.histogram_stats":
        "read API of a metrics snapshot; the obs tests read through it",
    "obs/metrics.py:MetricsSnapshot.families":
        "read API of a metrics snapshot; "
        "tools/check_metrics_snapshot.py and the obs tests use it",
    "obs/metrics.py:MetricsSnapshot.is_empty":
        "read API of a metrics snapshot; "
        "tools/check_metrics_snapshot.py and the obs tests use it",
    "profiling/history.py:DestinationHistory.first_seen":
        "read API of the history; the state round-trip test compares "
        "restored and original through it",
    "synthetic/campaigns.py:RealizedCampaign.attacker_domains":
        "read API of a realized campaign; the campaign property test "
        "checks it against the whitelist",
    "synthetic/fleet.py:FleetDataset.lead_tenant":
        "read API of a generated fleet; examples/fleet_detection.py "
        "and the fleet tests name the lead through it",
    "synthetic/fleet.py:FleetDataset.follower_tenants":
        "read API of a generated fleet; examples/fleet_detection.py "
        "and the fleet tests name the followers through it",
    "timing/histogram.py:histogram_from_timestamps":
        "reference: the timing parity tests build the paper's "
        "verbatim histogram with it",
}


def _library_has(base: str, imports: Mapping[str, str], method: str) -> bool:
    """Whether the library class ``base`` (as written in a module whose
    ``imports`` map local names to dotted targets) has ``method``."""
    head, *rest = base.split(".")
    target = imports.get(head, f"builtins.{head}")
    try:
        obj = importlib.import_module(target)
    except ImportError:
        module, _, name = target.rpartition(".")
        obj = getattr(importlib.import_module(module), name, None)
    for name in rest:
        obj = getattr(obj, name, None)
    return hasattr(obj, method)


def uncalled(
    package: Path, references: Iterable[Path], allowed: Mapping[str, str]
) -> list[str]:
    """Problems with ``package``'s public surface: each public name no
    file under ``package`` or in ``references`` refers to, that is not
    in ``allowed`` -- and each ``allowed`` entry that names no
    definition or whose name has a reference now."""
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }
    imports: dict[Path, dict[str, str]] = {}
    classes: dict[str, list[tuple[ast.ClassDef, Path]]] = {}
    for path, tree in trees.items():
        imports[path] = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[path][alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    imports[path][alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((node, path))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def overrides(cls: ast.ClassDef, path: Path, method: str) -> bool:
        for base in map(ast.unparse, cls.bases):
            name = base.rpartition(".")[2]
            if name not in classes:
                if _library_has(base, imports[path], method):
                    return True
                continue
            for parent, parent_path in classes[name]:
                if method in {
                    n.name for n in parent.body if isinstance(n, functions)
                } or overrides(parent, parent_path, method):
                    return True
        return False

    defined: dict[str, str] = {}  # "path:Qualified.name" -> name
    for path, tree in trees.items():
        rel = path.relative_to(package).as_posix()
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined[f"{rel}:{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (
                    isinstance(method, functions)
                    and not method.name.startswith("_")
                    and not overrides(node, path, method.name)
                ):
                    defined[f"{rel}:{node.name}.{method.name}"] = method.name

    referenced: set[str] = set()
    for tree in [*trees.values(), *map(ast.parse, (
        path.read_text() for path in references
    ))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)

    problems = [
        f"{key} has no caller"
        for key, name in defined.items()
        if name not in referenced and key not in allowed
    ]
    for key in allowed:
        if key not in defined:
            problems.append(f"allowed {key} is not defined (drop the entry)")
        elif defined[key] in referenced:
            problems.append(f"allowed {key} has a caller (drop the entry)")
    return problems


def test_every_public_name_has_a_caller():
    benches = sorted((REPO / "benchmarks").rglob("*.py"))
    assert uncalled(REPO / "src" / "repro", benches, ALLOWED) == []


def test_every_allowed_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_scan_reports_a_planted_orphan_and_stale_entries(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import Fmt, orphan, used\n"
        "__all__ = ['Fmt', 'orphan', 'used']\n"
    )
    (package / "mod.py").write_text(
        "import logging\n\n"
        "def used():\n    return Fmt()\n\n"
        "def orphan():\n    return 1\n\n"
        "class Fmt(logging.Formatter):\n"
        "    def format(self, record):\n        return ''\n\n"
        "    def unread(self):\n        return 2\n\n"
        "class Sub(Fmt):\n"
        "    def unread(self):\n        return 3\n"
    )
    bench = tmp_path / "bench_x.py"
    bench.write_text("from pkg import used, Sub\nused()\nSub()\n")
    assert uncalled(package, [bench], {}) == [
        "mod.py:orphan has no caller",
        "mod.py:Fmt.unread has no caller",
    ]
    assert uncalled(
        package, [bench],
        {"mod.py:orphan": "kept", "mod.py:Fmt.unread": "kept"},
    ) == []
    assert uncalled(
        package, [bench],
        {
            "mod.py:orphan": "kept", "mod.py:Fmt.unread": "kept",
            "mod.py:gone": "deleted since", "mod.py:used": "has a caller",
        },
    ) == [
        "allowed mod.py:gone is not defined (drop the entry)",
        "allowed mod.py:used has a caller (drop the entry)",
    ]
