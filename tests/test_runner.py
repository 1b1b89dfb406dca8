"""Tests for the file-based DNS log runner (``run``): one engine,
``INGEST_CHUNK``-row polls and one ``rollover()`` per daily file."""

from pathlib import Path

import pytest

from repro.logs import format_dns_line
from repro.runner import run_directory
from repro.streaming import StreamingDetector


@pytest.fixture(scope="module")
def log_dir(lanl_dataset, tmp_path_factory) -> Path:
    """Bootstrap day (3/1) + two attack days (3/2, 3/3) on disk."""
    directory = tmp_path_factory.mktemp("dnslogs")
    for march_date in (1, 2, 3):
        path = directory / f"dns-march-{march_date:02d}.log"
        with path.open("w") as handle:
            for record in lanl_dataset.day_records(march_date):
                handle.write(format_dns_line(record) + "\n")
    return directory


class TestRunDirectory:
    def test_detects_campaigns_from_files(self, log_dir, lanl_dataset):
        reports = run_directory(
            log_dir,
            bootstrap_files=1,
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        assert len(reports) == 2
        for report, march_date in zip(reports, (2, 3)):
            truth = lanl_dataset.campaign_for_date(march_date)
            assert set(truth.cc_domains) <= report.cc_domains
            assert set(truth.malicious_domains) <= set(report.detected)

    def test_history_carries_across_days(self, log_dir, lanl_dataset):
        reports = run_directory(
            log_dir, bootstrap_files=1,
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        # Popular domains from 3/1 must not be rare on 3/2.
        day2 = reports[0]
        bootstrap_domains = lanl_dataset.bootstrap_domains
        overlap = day2.rare_domains & bootstrap_domains
        assert not overlap

    def test_needs_enough_files(self, log_dir):
        with pytest.raises(ValueError):
            run_directory(log_dir, bootstrap_files=5)

    def test_record_counts_reported(self, log_dir, lanl_dataset):
        reports = run_directory(
            log_dir, bootstrap_files=1,
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        assert all(r.records > 100 for r in reports)


def _feed(detector, path) -> None:
    """Ingest one day's log file; the next ``rollover()`` closes it."""
    with path.open() as handle:
        detector.ingest_lines(handle)


class TestEngineDay:
    """The day lifecycle ``run_directory`` loops over, driven by hand:
    ``ingest_lines`` a file, ``rollover()`` it."""

    def test_hint_mode(self, log_dir, lanl_dataset):
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        _feed(detector, log_dir / "dns-march-01.log")
        detector.rollover(detect=False)
        truth = lanl_dataset.campaign_for_date(2)
        _feed(detector, log_dir / "dns-march-02.log")
        report = detector.rollover(hint_hosts=truth.hint_hosts)
        assert set(truth.malicious_domains) <= set(report.detected)

    def test_no_seeds_no_detections_on_quiet_day(self, tmp_path, lanl_dataset):
        quiet = tmp_path / "quiet.log"
        bootstrap = tmp_path / "boot.log"
        records = lanl_dataset.day_records(1)
        half = len(records) // 2
        with bootstrap.open("w") as handle:
            for record in records[:half]:
                handle.write(format_dns_line(record) + "\n")
        with quiet.open("w") as handle:
            for record in records[half:]:
                handle.write(format_dns_line(record) + "\n")
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        _feed(detector, bootstrap)
        detector.rollover(detect=False)
        _feed(detector, quiet)
        report = detector.rollover()
        # March 1 has no campaign, so no multi-host synced beacons.
        assert report.cc_domains == set()

    def test_bootstrap_day_fills_history_without_detecting(
        self, log_dir, lanl_dataset
    ):
        detector = StreamingDetector(
            internal_suffixes=lanl_dataset.internal_suffixes,
            server_ips=lanl_dataset.server_ips,
        )
        _feed(detector, log_dir / "dns-march-01.log")
        report = detector.rollover(detect=False)
        assert len(detector.history) > 50
        assert report.records > 100 and not report.detected
