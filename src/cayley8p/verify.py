"""The checks behind `cayley8p verify`, and the claimed-vs-genuine record.

Two routes that must agree fail when they differ (exit 1).  A claimed
route (the paper's closed forms) that differs from a genuine one (brute
force) is flagged: reported side by side, exit 0.  Each count that the
paper claims and an oracle measures is one Comparison, built once; the CLI
renders its check line, its counts.methods entry and, unless it passes,
its counts.discrepancies entry from it.
"""

from dataclasses import dataclass

import numpy as np

from . import oracle, polya
from .domain import check_array_memory, cycle_types


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # pass | fail | flagged
    details: str


# genuine route -> (its check's name, its name in the check details)
_CHECK_OF_ROUTE = {
    "burnside": ("burnside_vs_closed_form", "burnside"),
    "orbit_partition": ("orbit_partition_vs_closed_form", "sweep"),
    "oracle_circulant": ("circulant_oracle_vs_formula", "oracle"),
    "oracle_connected": ("connected_oracle_vs_formula", "oracle"),
}


@dataclass(frozen=True)
class Comparison:
    """One count (n_total, n_circulant or n_connected) by a claimed route
    (closed_form or formula) and by a genuine route (a key of _CHECK_OF_ROUTE)."""

    p: int
    quantity: str
    claimed_route: str
    claimed: int
    genuine_route: str
    genuine: int

    @property
    def status(self) -> str:
        return "pass" if self.claimed == self.genuine else "flagged"

    @property
    def name(self) -> str:
        return _CHECK_OF_ROUTE[self.genuine_route][0]

    @property
    def details(self) -> str:
        genuine = _CHECK_OF_ROUTE[self.genuine_route][1]
        return f"{genuine} {self.genuine} vs {self.claimed_route.replace('_', ' ')} {self.claimed}"


@dataclass(frozen=True)
class VerificationReport:
    """The checks in the order they ran, and the claimed counts they compare."""

    p: int
    level: str
    checks: list[Check | Comparison]
    counts: polya.CountReport

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    @property
    def comparisons(self) -> list[Comparison]:
        return [c for c in self.checks if isinstance(c, Comparison)]


def build_verification_report(p: int, level: str) -> VerificationReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    check_array_memory(p)  # refusals first, before any work
    if level == "full":
        oracle.check_cap(p)
    counts = polya.count_report(p)
    checks: list[Check | Comparison] = []

    def add(name: str, ok: bool, details: str, when_bad: str = "fail") -> None:
        checks.append(Check(name, "pass" if ok else when_bad, details))

    def compare(quantity: str, genuine_route: str, genuine: int) -> None:
        claimed_route = "closed_form" if quantity == "n_total" else "formula"
        claimed = getattr(counts, quantity)
        checks.append(Comparison(p, quantity, claimed_route, claimed, genuine_route, genuine))

    genuine, ids = cycle_types(p)
    claimed, case = polya.closed_form_cycle_types(p)
    add(
        "automorphism_count",
        len(ids) == len(case) == counts.aut_order,
        f"{len(ids)} automorphisms, expected {counts.aut_order}",
    )

    # formula claim vs oracle decomposition: disagreements are reported, not fatal;
    # the maps are compared once per distinct (genuine type, case) pair
    pairs, maps = np.unique(ids * len(claimed) + np.array(case), return_counts=True)
    type_of, case_of = np.divmod(pairs, len(claimed))
    differ = [genuine[i] != claimed[j] for i, j in zip(type_of.tolist(), case_of.tolist())]
    mismatches = int(maps[differ].sum())
    add(
        "cycle_types_closed_vs_brute",
        mismatches == 0,
        f"{mismatches} mismatches over {len(ids)} automorphisms",
        when_bad="flagged",
    )

    closed = polya.cycle_index_closed_form(p)
    brute = polya.cycle_index_bruteforce(p)
    add(
        "cycle_index_paths",
        closed.weights == brute.weights,
        f"{len(closed.weights)} closed-form terms vs {len(brute.weights)} brute-force terms",
        when_bad="flagged",
    )
    closed_at_one = closed.evaluate(1)
    add("cycle_index_at_one", closed_at_one == 1, f"value {closed_at_one}")
    brute_at_one = brute.evaluate(1)
    add("cycle_index_at_one_bruteforce", brute_at_one == 1, f"value {brute_at_one}")

    burnside = oracle.burnside_count(p)
    compare("n_total", "burnside", burnside)
    # two oracle paths to the same number: mismatch would mean a real bug
    brute_eval = brute.evaluate(2)
    add(
        "burnside_vs_bruteforce_cycle_index",
        burnside == brute_eval,
        f"burnside {burnside} vs brute-force cycle index at 2 {brute_eval}",
    )

    if level == "full":
        orbit_total = oracle.orbit_partition_count(p)
        add(
            "orbit_partition_vs_burnside",
            orbit_total == burnside,
            f"sweep {orbit_total} vs burnside {burnside}",
        )
        compare("n_total", "orbit_partition", orbit_total)
        compare("n_circulant", "oracle_circulant", oracle.circulant_orbit_count(p))
        connected = oracle.connected_orbit_count(p)
        compare("n_connected", "oracle_connected", connected)

        census = oracle.disconnected_census(p)
        a_only = census["a_only_orbits"]
        b_touching = census["b_touching_orbits"]
        add(
            "a_only_vs_circulant_squared",
            a_only == counts.n_circulant**2,
            f"oracle {a_only} vs formula {counts.n_circulant ** 2}",
            when_bad="flagged",
        )
        add(
            "b_touching_vs_expected",
            b_touching == 8,
            f"oracle {b_touching} vs expected 8",
            when_bad="flagged",
        )
        add(
            "orbit_partition_identity",
            connected + a_only + b_touching == orbit_total,
            f"connected {connected} + a_only {a_only} + b_touching {b_touching} "
            f"= {connected + a_only + b_touching} vs total {orbit_total}",
        )

    return VerificationReport(p, level, checks, counts)
