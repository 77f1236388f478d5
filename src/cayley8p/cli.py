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

This module only parses arguments and renders output: counts and
closed-form cycle types come from polya, verify's checks and
claimed-vs-genuine records from cayley8p.verify.  Importing it loads no
numpy, and count, table, cycle-index --eval and cycle-types run on the
standard library alone.  The numpy engine loads on the first call that
needs it: verify (through build_verification_report) and cycle-index
without --eval (through the brute-force cycle index it compares with).

cycle-types reads the closed-form cycle types as one monomial per case
and each map's case in two bytes (polya.closed_form_cycle_types), renders
each distinct type once and prints one run of 2p records (autos.aut_blocks)
at a time, so apart from those two bytes a map its memory does not grow
with the output.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterable
from functools import cache
from math import log10
from typing import TYPE_CHECKING

from . import polya
from .autos import aut_blocks
from .modular import check_odd_prime

if TYPE_CHECKING:
    from .verify import Comparison


def build_verification_report(p: int, level: str):
    """verify.build_verification_report, loading the engine (and numpy) on the
    first call."""
    from .verify import build_verification_report

    return build_verification_report(p, level)


def _report_json(report: polya.CountReport, comparisons: "list[Comparison]") -> dict:
    total, circulant, connected, methods = _count_strings(report)
    return {
        "p": report.p,
        "aut_order": report.aut_order,
        "n_total": total,
        "n_circulant": circulant,
        "n_connected": connected,
        "methods": methods | {c.genuine_route: str(c.genuine) for c in comparisons},
        "discrepancies": [
            {
                "quantity": c.quantity,
                "method_a": c.claimed_route,
                "value_a": str(c.claimed),
                "method_b": c.genuine_route,
                "value_b": str(c.genuine),
            }
            for c in comparisons
            if c.status != "pass"
        ],
    }


CSV_HEADER = "p,n_total,n_circulant,n_connected"


def _csv_row(report: polya.CountReport) -> str:
    total, circulant, connected, _ = _count_strings(report)
    return f"{report.p},{total},{circulant},{connected}"


def _print_count_text(report: polya.CountReport) -> None:
    total, circulant, connected, methods = _count_strings(report)
    print(f"p = {report.p}")
    print(f"aut_order = {report.aut_order}")
    print(f"n_total = {total}")
    print(f"n_circulant = {circulant}")
    print(f"n_connected = {connected}")
    for name, value in methods.items():
        print(f"method {name} = {value}")


def _count_strings(report: polya.CountReport) -> tuple[str, str, str, dict[str, str]]:
    """n_total, n_circulant, n_connected and the methods of a report as decimal
    strings, converting each distinct number once: n_connected shares
    n_total's leading digits, and a method equal to n_total reuses its string."""
    total, connected = _shared_digits(report.n_total, report.n_connected)
    methods = {
        name: total if value == report.n_total else str(value)
        for name, value in report.methods.items()
    }
    return total, str(report.n_circulant), connected, methods


def _shared_digits(big: int, small: int) -> tuple[str, str]:
    """str(big) and str(small) for 0 <= small <= big, converting the digits
    they share once.

    int-to-str costs time quadratic in the digits, and n_connected shares
    about the leading half of n_total's digits (it is n_total - n_circulant^2
    - 8, and n_circulant^2 has about half as many digits as n_total).
    With k the digits of the gap big - small (at least 1), big = head * 10^k
    + low, and small is head followed by low - gap in k digits, or, when
    low < gap, head - 1 followed by 10^k + low - gap.  A head of 0 or 1
    leaves nothing to share (the borrow would empty it), so both go through
    str().  Only pieces shorter than the numbers are converted:
    _check_printable is the length guard.
    """
    gap = big - small
    k = max(_decimal_digits(gap), 1)
    power = 10**k
    head, low = divmod(big, power)
    if head < 2:
        return str(big), str(small)
    text = small_head = str(head)
    rest = low - gap
    if rest < 0:  # borrow one from the head's last nonzero digit; head >= 2 keeps a digit
        kept = text.rstrip("0")
        small_head = f"{kept[:-1]}{int(kept[-1]) - 1}".lstrip("0") + "9" * (len(text) - len(kept))
        rest += power
    return f"{text}{low:0{k}d}", f"{small_head}{rest:0{k}d}"


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n > 0 (0 for n = 0), without converting n to str."""
    digits = int(n.bit_length() * log10(2)) + 1  # exact, or one too many
    return digits - (n < 10 ** (digits - 1))


def _check_printable(named: Iterable[tuple[str, int]]) -> None:
    """Refuse, before anything is printed, a number longer than Python's int-to-str
    limit; named gives each number with the words that name it in the refusal."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    too_long = 10**limit
    for name, value in named:
        if abs(value) >= too_long:
            raise ValueError(
                f"{name} has {_decimal_digits(abs(value))} decimal digits, "
                f"more than the {limit} Python converts to text; raise the limit with "
                f"PYTHONINTMAXSTRDIGITS or -X int_max_str_digits"
            )


def _check_evaluable(poly: polya.CycleIndexPoly, m: int, name: str) -> None:
    """Refuse, before evaluating it, a cycle index value that is provably too
    long to print.

    With n = 4p, the weighted-degree check admits exactly one monomial with
    n cycles, x_1^n, and every other monomial has at most n - 1.  Let W be
    the weight of x_1^n and R = order - W the rest (all weights are positive
    and sum to the order).  For |m| >= 1,
        order * |value| >= W |m|^n - R |m|^(n-1) = |m|^(n-1) (W |m| - R).
    When W |m| > R the last factor is at least 1, so |value| >= |m|^(n-1) / order.
    With d the digits of |m| and D those of the order, |m| >= 10^(d-1) and
    order < 10^D, so |value| > 10^E with E = (n-1)(d-1) - D: the value has at
    least E + 1 digits, and E >= limit means it is not printable.
    """
    limit = sys.get_int_max_str_digits()
    n = 4 * poly.p
    top = poly.weights.get(((1, n),), 0)
    if not limit or top * abs(m) <= poly.order - top:
        return
    exponent = (n - 1) * (_decimal_digits(abs(m)) - 1) - _decimal_digits(poly.order)
    if exponent >= limit:
        raise ValueError(
            f"{name} has at least {exponent + 1} decimal digits, "
            f"more than the {limit} Python converts to text; raise the limit with "
            f"PYTHONINTMAXSTRDIGITS or -X int_max_str_digits"
        )


def cmd_count(args) -> int:
    report = polya.count_report(check_odd_prime(args.p))
    # n_total is the longest number a count report prints
    _check_printable([(f"n_total at p={report.p}", report.n_total)])
    if args.format == "json":
        print(json.dumps(_report_json(report, []), indent=2))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(_csv_row(report))
    else:
        _print_count_text(report)
    return 0


def _p_list_token(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"--p-list: not an integer: {tok!r}") from None


def cmd_table(args) -> int:
    ps = [check_odd_prime(_p_list_token(tok)) for tok in args.p_list.split(",") if tok]
    if not ps:
        raise ValueError(f"--p-list names no prime: {args.p_list!r}")
    reports = [polya.count_report(p) for p in ps]
    _check_printable((f"n_total at p={r.p}", r.n_total) for r in reports)
    if args.format == "json":
        print(json.dumps([_report_json(r, []) for r in reports], indent=2))
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


_STATUS_TAG = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}


def cmd_verify(args) -> int:
    report = build_verification_report(args.p, args.level)
    exit_status = 1 if report.failed else 0
    if args.format == "json":
        payload = {
            "p": report.p,
            "level": report.level,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in report.checks
            ],
            "counts": _report_json(report.counts, report.comparisons),
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
        name = f"the cycle index at p={p}, m={args.eval}"
        _check_evaluable(closed, args.eval, name)
        value = closed.evaluate(args.eval)
        _check_printable([(name, value)])
        if args.format == "json":
            print(json.dumps({"p": p, "eval_at": args.eval, "value": str(value)}))
        else:
            print(value)
        return 0
    brute = polya.cycle_index_bruteforce(p)
    # the monomials whose coefficients differ, or that only one side has
    differing = len({mono for mono, _ in closed.weights.items() ^ brute.weights.items()})
    if args.format == "json":
        print(
            json.dumps(
                {
                    "p": p,
                    "matches_bruteforce": not differing,
                    "differing_terms": differing,
                    "terms": polya.poly_records(closed),
                },
                indent=2,
            )
        )
    else:
        if not differing:
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
    json.dumps(records, indent=2).  A record is its run's label, beta and its
    case's rendering; each distinct type is rendered once, each run printed at once."""
    p = check_odd_prime(args.p)
    monomials, case = polya.closed_form_cycle_types(p)
    distinct = dict.fromkeys(monomials)  # 4p cases share far fewer types
    if args.format == "json":
        # a cycle type sits two levels deep in the list of records
        label = '  {{\n    "family": "{}",\n    "alpha": {},\n    "beta": '
        for t in distinct:
            body = json.dumps(dict(t), indent=2).replace("\n", "\n    ")
            distinct[t] = f',\n    "cycle_type": {body}\n  }}'
        head, sep, tail = "[\n", ",\n", "\n]"
    else:
        label = "{}({},"
        for t in distinct:
            distinct[t] = "): " + polya.render_cycle_type(dict(t))
        head, sep, tail = "", "\n", ""
    rendered = [distinct[t] for t in monomials]
    n = 2 * p
    for i, (family, alpha) in enumerate(aut_blocks(p)):
        start = label.format(family, alpha)
        records = (f"{start}{b}{rendered[r]}" for b, r in enumerate(case[i * n : (i + 1) * n]))
        print(sep if i else head, sep.join(records), sep="", end="")
    print(tail)
    return 0


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache  # built on the first main call, then reused
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
        "--workers",
        type=_workers,
        default=1,
        help="accepted for compatibility and checked to be N >= 1; never changes "
        "results: every sweep runs on the calling thread in fixed 2^15-mask chunks",
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
