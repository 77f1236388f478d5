"""Command line interface.

Subcommands:

  count        the three counts (all, circulant, connected) for one p
  table        the same counts for several p, one row each
  verify       consistency checks and brute-force oracles; exit 0 iff no failure
  cycle-index  the cycle index polynomial, or its value at --eval
  cycle-types  one line per automorphism with its cycle type on the classes

Formats: text (default), json, csv (count/table only).  Counts in JSON
are decimal strings, because they outgrow double precision near p = 17.
Exit status: 0 success, 1 internal inconsistency or failed verification,
2 invalid input, 141 standard output closed before all of it was written
(as in `cayley8p cycle-types --p 31 | head -1`).

cycle-types and verify's closed-vs-brute check read the closed-form cycle
types as one int16 array (domain.closed_form_cycle_types, one row per map);
cycle-types renders each distinct cycle type once and formats the records
around it.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from math import log10

import numpy as np

from . import oracle, polya
from .autos import SIGMA, TAU, enumerate_aut
from .domain import closed_form_cycle_types, cycle_types, render_cycle_type
from .modular import check_odd_prime, units_mod


@dataclass
class Check:
    name: str
    status: str  # pass | fail | flagged
    details: str


@dataclass
class VerificationReport:
    """flagged marks a formula-vs-oracle disagreement (reported, not fatal);
    fail marks an internal inconsistency between two paths that must agree."""

    p: int
    level: str
    checks: list[Check]
    counts: polya.CountReport

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def _s(value: int) -> str:
    return str(value)


def _report_json(report: polya.CountReport) -> dict:
    return {
        "p": report.p,
        "aut_order": report.aut_order,
        "n_total": _s(report.n_total),
        "n_circulant": _s(report.n_circulant),
        "n_connected": _s(report.n_connected),
        "methods": {k: _s(v) for k, v in report.methods.items()},
        "discrepancies": [
            {
                "quantity": d["quantity"],
                "method_a": d["method_a"],
                "value_a": _s(d["value_a"]),
                "method_b": d["method_b"],
                "value_b": _s(d["value_b"]),
            }
            for d in report.discrepancies
        ],
    }


CSV_HEADER = "p,n_total,n_circulant,n_connected"


def _csv_row(report: polya.CountReport) -> str:
    return f"{report.p},{report.n_total},{report.n_circulant},{report.n_connected}"


def _print_count_text(report: polya.CountReport) -> None:
    print(f"p = {report.p}")
    print(f"aut_order = {report.aut_order}")
    print(f"n_total = {report.n_total}")
    print(f"n_circulant = {report.n_circulant}")
    print(f"n_connected = {report.n_connected}")
    for name, value in report.methods.items():
        print(f"method {name} = {value}")
    for d in report.discrepancies:
        print(
            f"DISCREPANCY {d['quantity']}: {d['method_a']}={d['value_a']} "
            f"vs {d['method_b']}={d['value_b']}"
        )


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n > 0, without converting n to str."""
    digits = int(n.bit_length() * log10(2)) + 1  # exact, or one too many
    return digits - (n < 10 ** (digits - 1))


def _check_printable(reports: list[polya.CountReport]) -> None:
    """Refuse, before anything is printed, a count longer than Python's int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    too_long = 10**limit
    for r in reports:
        if r.n_total >= too_long:
            raise ValueError(
                f"n_total at p={r.p} has {_decimal_digits(r.n_total)} decimal digits, "
                f"more than the {limit} Python converts to text; raise the limit with "
                f"PYTHONINTMAXSTRDIGITS or -X int_max_str_digits"
            )


def cmd_count(args) -> int:
    report = polya.count_report(check_odd_prime(args.p))
    _check_printable([report])
    if args.format == "json":
        print(json.dumps(_report_json(report), indent=2))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(_csv_row(report))
    else:
        _print_count_text(report)
    return 0


def cmd_table(args) -> int:
    ps = [check_odd_prime(int(tok)) for tok in args.p_list.split(",") if tok]
    if not ps:
        raise ValueError(f"--p-list names no prime: {args.p_list!r}")
    reports = [polya.count_report(p) for p in ps]
    _check_printable(reports)
    if args.format == "json":
        print(json.dumps([_report_json(r) for r in reports], indent=2))
    elif args.format == "csv":
        print(CSV_HEADER)
        for r in reports:
            print(_csv_row(r))
    else:
        rows = [CSV_HEADER.split(",")] + [_csv_row(r).split(",") for r in reports]
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def build_verification_report(
    p: int, level: str, cap: int = oracle.DEFAULT_ORACLE_CAP, workers: int = 1
) -> VerificationReport:
    check_odd_prime(p)
    checks: list[Check] = []

    def add(name: str, ok: bool, details: str, when_bad: str = "fail") -> None:
        checks.append(Check(name, "pass" if ok else when_bad, details))

    autos = enumerate_aut(p)
    expected_order = 4 * p * (p - 1)
    add(
        "automorphism_count",
        len(autos) == expected_order,
        f"{len(autos)} automorphisms, expected {expected_order}",
    )

    # formula claim vs oracle decomposition: disagreements are reported, not fatal
    genuine_lengths, genuine = cycle_types(p)
    claimed_lengths, claimed = closed_form_cycle_types(p)
    lengths = sorted(set(genuine_lengths) | set(claimed_lengths))

    def on_all_lengths(own: tuple[int, ...], counts: np.ndarray) -> np.ndarray:
        aligned = np.zeros((len(counts), len(lengths)), dtype=np.int16)
        aligned[:, np.searchsorted(lengths, own)] = counts
        return aligned

    differ = on_all_lengths(genuine_lengths, genuine) != on_all_lengths(claimed_lengths, claimed)
    mismatches = int(differ.any(axis=1).sum())
    add(
        "cycle_types_closed_vs_brute",
        mismatches == 0,
        f"{mismatches} mismatches over {len(autos)} automorphisms",
        when_bad="flagged",
    )

    closed = polya.cycle_index_closed_form(p)
    brute = polya.cycle_index_bruteforce(p)
    add(
        "cycle_index_paths",
        closed.terms == brute.terms,
        f"{len(closed.terms)} closed-form terms vs {len(brute.terms)} brute-force terms",
        when_bad="flagged",
    )
    add("cycle_index_at_one", closed.evaluate(1) == 1, f"value {closed.evaluate(1)}")
    add(
        "cycle_index_at_one_bruteforce",
        brute.evaluate(1) == 1,
        f"value {brute.evaluate(1)}",
    )

    burnside = oracle.burnside_count(p)
    total = polya.n_total(p)
    add(
        "burnside_vs_closed_form",
        burnside == total,
        f"burnside {burnside} vs closed form {total}",
        when_bad="flagged",
    )
    # two oracle paths to the same number: mismatch would mean a real bug
    brute_eval = brute.evaluate(2)
    add(
        "burnside_vs_bruteforce_cycle_index",
        burnside == brute_eval,
        f"burnside {burnside} vs brute-force cycle index at 2 {brute_eval}",
    )

    extra = {"burnside": burnside}
    if level == "full":
        orbit_total = oracle.orbit_partition_count(p, cap=cap, workers=workers)
        extra["orbit_partition"] = orbit_total
        add(
            "orbit_partition_vs_burnside",
            orbit_total == burnside,
            f"sweep {orbit_total} vs burnside {burnside}",
        )
        add(
            "orbit_partition_vs_closed_form",
            orbit_total == total,
            f"sweep {orbit_total} vs closed form {total}",
            when_bad="flagged",
        )

        circ_oracle = oracle.circulant_orbit_count(p)
        extra["oracle_circulant"] = circ_oracle
        circ_formula = polya.n_circulant(p)
        add(
            "circulant_oracle_vs_formula",
            circ_oracle == circ_formula,
            f"oracle {circ_oracle} vs formula {circ_formula}",
            when_bad="flagged",
        )

        connected = oracle.connected_orbit_count(p, cap=cap, workers=workers)
        extra["oracle_connected"] = connected
        conn_formula = polya.n_connected(p)
        add(
            "connected_oracle_vs_formula",
            connected == conn_formula,
            f"oracle {connected} vs formula {conn_formula}",
            when_bad="flagged",
        )

        census = oracle.disconnected_census(p, cap=cap, workers=workers)
        a_only = census["a_only_orbits"]
        b_touching = census["b_touching_orbits"]
        add(
            "a_only_vs_circulant_squared",
            a_only == circ_formula**2,
            f"oracle {a_only} vs formula {circ_formula ** 2}",
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

    counts = polya.count_report(p, extra_methods=extra)
    return VerificationReport(p, level, checks, counts)


_STATUS_TAG = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}


def cmd_verify(args) -> int:
    report = build_verification_report(
        check_odd_prime(args.p), args.level, cap=args.max_oracle_p, workers=args.workers
    )
    exit_status = 1 if report.failed else 0
    if args.format == "json":
        payload = {
            "p": report.p,
            "level": report.level,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in report.checks
            ],
            "counts": _report_json(report.counts),
            "exit_status": exit_status,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"verify p={report.p} level={report.level}")
        for c in report.checks:
            print(f"{_STATUS_TAG[c.status]} {c.name}: {c.details}")
        flagged = sum(c.status == "flagged" for c in report.checks)
        failed = sum(c.status == "fail" for c in report.checks)
        print(f"result: {len(report.checks)} checks, {flagged} flagged, {failed} failed")
    return exit_status


def cmd_cycle_index(args) -> int:
    p = check_odd_prime(args.p)
    closed = polya.cycle_index_closed_form(p)
    if args.eval is not None:
        value = closed.evaluate(args.eval)
        if args.format == "json":
            print(json.dumps({"p": p, "eval_at": args.eval, "value": _s(value)}))
        else:
            print(value)
        return 0
    brute = polya.cycle_index_bruteforce(p)
    matches = closed.terms == brute.terms
    differing = sum(
        1
        for mono in set(closed.terms) | set(brute.terms)
        if closed.terms.get(mono) != brute.terms.get(mono)
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "p": p,
                    "matches_bruteforce": matches,
                    "differing_terms": differing,
                    "terms": polya.poly_records(closed),
                },
                indent=2,
            )
        )
    else:
        if matches:
            note = "matches the brute-force construction"
        else:
            note = (
                f"DIFFERS from the brute-force construction on {differing} terms "
                "(closed-form claim vs oracle; see verify)"
            )
        print(f"# cycle index on {4 * p} classes; {note}")
        print(polya.render_poly(closed))
    return 0


def cmd_cycle_types(args) -> int:
    """One record per map in enumerate_aut order; the same text as rendering
    every closed_form_cycle_type, and in JSON the same bytes as
    json.dumps(records, indent=2)."""
    p = check_odd_prime(args.p)
    lengths, counts = closed_form_cycle_types(p)
    rows = list(map(tuple, counts.tolist()))
    types = {row: {k: c for k, c in zip(lengths, row) if c} for row in set(rows)}
    n = 2 * p
    maps = [(f, a, b) for f in (SIGMA, TAU) for a in units_mod(n) for b in range(n)]
    if args.format == "json":
        # a cycle type sits two levels deep in the list of records
        rendered = {
            row: json.dumps({str(k): c for k, c in t.items()}, indent=2).replace("\n", "\n    ")
            for row, t in types.items()
        }
        records = (
            f'  {{\n    "family": "{f}",\n    "alpha": {a},\n    "beta": {b},\n'
            f'    "cycle_type": {rendered[row]}\n  }}'
            for (f, a, b), row in zip(maps, rows)
        )
        print("[\n" + ",\n".join(records) + "\n]")
    else:
        rendered = {row: render_cycle_type(t) for row, t in types.items()}
        print("\n".join(f"{f}({a},{b}): {rendered[row]}" for (f, a, b), row in zip(maps, rows)))
    return 0


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley8p",
        description="Count Cayley graphs over the nonabelian group of order 8p "
        "up to isomorphism, and verify every formula against brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp, choices=("text", "json", "csv")):
        sp.add_argument("--format", choices=choices, default="text")

    sp = sub.add_parser("count", help="counts for one p")
    sp.add_argument("--p", type=int, required=True)
    add_format(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("table", help="counts for several p")
    sp.add_argument("--p-list", required=True, help="comma separated odd primes")
    add_format(sp)
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("verify", help="consistency checks and oracles")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument(
        "--max-oracle-p",
        type=int,
        default=oracle.DEFAULT_ORACLE_CAP,
        help="cap for exhaustive sweeps (default 5; p=7 sweeps 2^28 masks x 168 maps "
        "in about 30 s; no cap goes past 7)",
    )
    sp.add_argument(
        "--workers",
        type=_workers,
        default=1,
        help="split the sweep into N >= 1 ranges, run on at most the CPU count of threads; "
        "never changes results",
    )
    add_format(sp, choices=("text", "json"))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("cycle-index", help="cycle index polynomial")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--eval", type=int, default=None, help="evaluate at this integer")
    add_format(sp, choices=("text", "json"))
    sp.set_defaults(fn=cmd_cycle_index)

    sp = sub.add_parser("cycle-types", help="cycle type of every automorphism")
    sp.add_argument("--p", type=int, required=True)
    add_format(sp, choices=("text", "json"))
    sp.set_defaults(fn=cmd_cycle_types)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
