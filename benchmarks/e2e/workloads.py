"""The benchmark's workloads and the pinned results their operations are checked against.

An operation is one `cayley8p` command line, run through `cayley8p.cli.main`.
The operations of a workload are fixed because their results are pinned in
pinned.json; the seed only shuffles the primes of a `table --p-list`.

Each workload loads one layer heavily and leaves the others nearly idle, so
that a change to one layer has a workload where it should win and one where
the prediction is "no change":

  oracle-p5      the brute-force side at the largest p the default oracle cap
                 allows: two full 2^20-mask sweeps (kernels) and the
                 breadth-first connectivity census over 25152 graphs (oracle).
  quick-p31-37   the brute-force side at large p without a sweep: the induced
                 permutations of 3720 + 5328 automorphisms through the object
                 path (domain, autos), cycle decompositions and Burnside.
  claimed-table  the closed-form side: exact-rational counts for every odd
                 prime below 3571 (polya, modular), the closed-form cycle type
                 of all 40400 automorphisms at p = 101, and one count whose
                 numbers have close to the 4300 digits Python converts to str
                 by default.  No numpy kernel and no induced permutation.

`verify --p 7 --level full` is left out: it needs two 2^28-mask sweeps and
about 2.1M breadth-first searches, minutes per operation.
"""

import csv
import hashlib
import io
import json
import random
from pathlib import Path

TABLE_BELOW = 3571


def _odd_primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [q for q in range(3, n) if sieve[q]]


def _verify(p: int, level: str) -> list[str]:
    return ["verify", "--p", str(p), "--level", level, "--workers", "1", "--format", "json"]


# label -> argv; the label names the operation's pinned result
OPERATIONS = {
    "verify-3-full": _verify(3, "full"),
    "verify-5-full": _verify(5, "full"),
    "verify-31-quick": _verify(31, "quick"),
    "verify-37-quick": _verify(37, "quick"),
    "table-below-3571": [
        "table",
        "--p-list",
        ",".join(map(str, _odd_primes_below(TABLE_BELOW))),
        "--format",
        "csv",
    ],
    "cycle-types-101": ["cycle-types", "--p", "101", "--format", "json"],
    "count-3571": ["count", "--p", "3571", "--format", "csv"],
    "table-3-7": ["table", "--p-list", "3,5,7", "--format", "csv"],
    "cycle-types-5": ["cycle-types", "--p", "5", "--format", "json"],
}

WORKLOADS = {
    "oracle-p5": ["verify-3-full", "verify-5-full"],
    "quick-p31-37": ["verify-31-quick", "verify-37-quick"],
    "claimed-table": ["table-below-3571", "cycle-types-101", "count-3571"],
    # every layer at small p, for the harness's own tests; not in BENCHMARK.json
    "smoke-p3": ["verify-3-full", "table-3-7", "cycle-types-5"],
}


def operations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each operation of the workload, in the order a sample runs them.

    The seed shuffles the primes of every --p-list: the rows come out in
    another order, the work stays the same.  The operations keep their
    listed order, because in claimed-table running cycle-types before the
    table lowers peak RSS by about 8 %: the table's cached counts stay
    resident while cycle-types renders.
    """
    rng = random.Random(seed)
    ops = []
    for label in WORKLOADS[workload]:
        argv = list(OPERATIONS[label])
        if "--p-list" in argv:
            at = argv.index("--p-list") + 1
            primes = argv[at].split(",")
            rng.shuffle(primes)
            argv[at] = ",".join(primes)
        ops.append((label, argv))
    return ops


PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())["operations"]

CSV_FIELDS = ("p", "n_total", "n_circulant", "n_connected")


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(label: str, stdout: str) -> dict:
    """The parsed fields of an operation's output that its pin compares.

    Fields are picked by name, so a payload that gains a field still matches.
    Large outputs are reduced to a count and a SHA-256 of the picked fields;
    CSV rows are hashed in ascending p, whatever order they were asked in.
    """
    command = OPERATIONS[label][0]
    if command == "verify":
        payload = json.loads(stdout)
        return {
            "checks": [[c["name"], c["status"]] for c in payload["checks"]],
            "methods": payload["counts"]["methods"],
        }
    if command in ("table", "count"):
        rows = [[row[f] for f in CSV_FIELDS] for row in csv.DictReader(io.StringIO(stdout))]
        return {"rows": len(rows), "sha256": _digest(sorted(rows, key=lambda r: int(r[0])))}
    if command == "cycle-types":
        records = [
            [r["family"], r["alpha"], r["beta"], r["cycle_type"]] for r in json.loads(stdout)
        ]
        return {"records": len(records), "sha256": _digest(records)}
    raise ValueError(f"no summary for command {command!r}")


def mismatch(
    label: str, argv: list[str], exit_status: int, stdout: str, pinned: dict | None = None
) -> str | None:
    """Why an operation's result differs from its pin, or None when it matches.

    A verify check reported as "fail" is always a mismatch.  Checks and
    methods added after the pin are ignored; every pinned one must be there
    with the pinned status or value.  A table must list its rows in the
    order of its --p-list.
    """
    pinned = PINNED[label] if pinned is None else pinned
    if exit_status != pinned["exit_status"]:
        return f"exit status {exit_status}, pinned {pinned['exit_status']}"
    try:
        got = summarize(label, stdout)
        if "--p-list" in argv:
            asked = argv[argv.index("--p-list") + 1].split(",")
            if [row["p"] for row in csv.DictReader(io.StringIO(stdout))] != asked:
                return "table rows are not in the order of --p-list"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    if "checks" not in got:
        for key, value in got.items():
            if pinned[key] != value:
                return f"{key} {value!r}, pinned {pinned[key]!r}"
        return None
    statuses = dict(map(tuple, got["checks"]))
    failing = [name for name, status in got["checks"] if status == "fail"]
    if failing:
        return f"checks failed: {failing}"
    for name, status in pinned["checks"]:
        if statuses.get(name) != status:
            return f"check {name} is {statuses.get(name)!r}, pinned {status!r}"
    for name, value in pinned["methods"].items():
        if got["methods"].get(name) != value:
            return f"method {name} = {got['methods'].get(name)!r}, pinned {value!r}"
    return None
