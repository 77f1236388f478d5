"""The claimed-vs-genuine record, the three outputs rendered from it, and
the input `build_verification_report` refuses."""

import pytest

from cayley8p import polya
from cayley8p.cli import _report_json
from cayley8p.polya import count_report
from cayley8p.verify import Comparison, build_verification_report


def test_comparison_flags_disagreeing_routes():
    report = build_verification_report(3, "full")
    assert report.comparisons == [
        Comparison(3, "n_total", "closed_form", 432, "burnside", 624),
        Comparison(3, "n_total", "closed_form", 432, "orbit_partition", 624),
        Comparison(3, "n_circulant", "formula", 6, "oracle_circulant", 8),
        Comparison(3, "n_connected", "formula", 388, "oracle_connected", 568),
    ]
    burnside, _, circulant, _ = report.comparisons
    assert (burnside.status, burnside.name, burnside.details) == (
        "flagged",
        "burnside_vs_closed_form",
        "burnside 624 vs closed form 432",
    )
    assert (circulant.status, circulant.name, circulant.details) == (
        "flagged",
        "circulant_oracle_vs_formula",
        "oracle 8 vs formula 6",
    )
    counts = _report_json(report.counts, report.comparisons)
    assert counts["methods"]["burnside"] == "624"
    assert counts["methods"]["oracle_circulant"] == "8"
    assert counts["discrepancies"][2] == {
        "quantity": "n_circulant",
        "method_a": "formula",
        "value_a": "6",
        "method_b": "oracle_circulant",
        "value_b": "8",
    }


def test_comparison_passes_agreeing_routes():
    agreeing = Comparison(3, "n_total", "closed_form", 432, "orbit_partition", 432)
    assert agreeing.status == "pass"
    assert (agreeing.name, agreeing.details) == (
        "orbit_partition_vs_closed_form",
        "sweep 432 vs closed form 432",
    )
    counts = _report_json(count_report(3), [agreeing])
    assert counts["methods"]["orbit_partition"] == "432"
    assert counts["discrepancies"] == []


def _no_work(p):
    raise AssertionError("a refused input reached the checks")


@pytest.mark.parametrize("level", ["ful", "FULL", ""])
def test_unknown_level_is_refused_before_any_work(level, monkeypatch):
    monkeypatch.setattr(polya, "count_report", _no_work)
    with pytest.raises(ValueError, match="level must be quick or full"):
        build_verification_report(3, level)


@pytest.mark.parametrize(("level", "workers"), [("full", 0), ("full", -5), ("quick", 0)])
def test_fewer_than_one_worker_is_refused_before_any_work(level, workers, monkeypatch):
    monkeypatch.setattr(polya, "count_report", _no_work)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        build_verification_report(3, level, workers=workers)
