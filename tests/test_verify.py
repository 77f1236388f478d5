"""The claimed-vs-genuine record, the three outputs rendered from it, and
the input `build_verification_report` refuses."""

import numpy as np
import pytest

from cayley8p import domain, oracle, polya, verify
from cayley8p.autos import enumerate_aut
from cayley8p.cli import _report_json, main
from cayley8p.domain import build_domain, cycle_type_of, induced_permutation
from cayley8p.polya import closed_form_cycle_type, count_report
from cayley8p.verify import Comparison, build_verification_report


def test_quick_reports_keep_the_state_of_one_p():
    """After a quick report at 31 and then at 37 every cache the report reads
    holds 37 alone, so 31's arrays are gone; a second report at 37 builds
    nothing again.  induced_permutations, which no report reads, is bounded
    to one p as well."""
    caches = (
        domain.class_members,
        domain.class_table,
        domain.induced_halves,
        domain.cycle_types,
        polya.cycle_index_bruteforce,
        polya.cycle_index_closed_form,
        polya.closed_form_cycle_types,
    )
    for cached in caches:
        cached.cache_clear()
    for p in (31, 37):
        assert not build_verification_report(p, "quick").failed
    infos = [cached.cache_info() for cached in caches]
    assert [(info.maxsize, info.currsize) for info in infos] == [(1, 1)] * len(infos)
    assert not build_verification_report(37, "quick").failed
    assert [cached.cache_info().misses for cached in caches] == [i.misses for i in infos]
    assert domain.induced_permutations.cache_info().maxsize == 1


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mismatch_count_equals_a_per_map_scalar_count(p):
    """The check compares once per distinct (genuine type, case) pair; its
    count equals comparing the scalar decomposition with the case analysis
    map by map."""
    d = build_domain(p)
    scalar = sum(
        cycle_type_of(induced_permutation(f, d)) != closed_form_cycle_type(f)
        for f in enumerate_aut(p)
    )
    details = {c.name: c.details for c in build_verification_report(p, "quick").checks}
    assert details["cycle_types_closed_vs_brute"] == (
        f"{scalar} mismatches over {4 * p * (p - 1)} automorphisms"
    )


def test_a_relabelling_of_the_genuine_types_fails_verify(capsys, monkeypatch):
    """The defect matrix's second row: tau's b <-> b^3 swap dropped gives
    tau(alpha, beta) the genuine type of tau(alpha, beta + p).  Every count
    keeps its value, but the mismatch count leaves 4p(p-1-m)."""
    genuine = domain.cycle_types

    def relabelled(p):
        types, ids = genuine(p)
        blocks = ids.reshape(-1, 2 * p).copy()
        blocks[p - 1 :] = np.roll(blocks[p - 1 :], p, axis=1)  # the tau blocks
        return types, blocks.ravel()

    for module in (domain, oracle, verify):
        monkeypatch.setattr(module, "cycle_types", relabelled)
    polya.cycle_index_bruteforce.cache_clear()  # built from the relabelled types
    try:
        assert main(["verify", "--p", "31"]) == 1
    finally:
        polya.cycle_index_bruteforce.cache_clear()
    out = capsys.readouterr().out
    # 2790, as with the swap dropped from domain._induced_blocks itself
    assert (
        "FAIL mismatch_count_vs_expected: 2790 mismatches vs expected 4p(p-1-m) = 1860, m = 15\n"
    ) in out
    assert "PASS burnside_vs_bruteforce_cycle_index" in out
    assert out.endswith("result: 8 checks, 3 flagged, 1 failed\n")


def _no_work(p):
    raise AssertionError("a refused input reached the checks")


@pytest.mark.parametrize("level", ["ful", "FULL", ""])
def test_unknown_level_is_refused_before_any_work(level, monkeypatch):
    monkeypatch.setattr(polya, "count_report", _no_work)
    with pytest.raises(ValueError, match="level must be quick or full"):
        build_verification_report(3, level)
