"""End-to-end command line behavior, driven through main(argv)."""

import argparse
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley8p import autos, cli, domain, group, kernels, modular, oracle, polya, verify
from cayley8p.autos import Automorphism, aut_blocks, enumerate_aut
from cayley8p.cli import CSV_HEADER, build_verification_report, main
from cayley8p.domain import PairClass
from cayley8p.group import GroupElement
from cayley8p.modular import is_odd_prime
from cayley8p.polya import closed_form_cycle_type, cycle_index_bruteforce, n_total, render_cycle_type

QUICK_CHECKS = [
    "automorphism_count",
    "cycle_types_closed_vs_brute",
    "mismatch_count_vs_expected",
    "cycle_index_paths",
    "cycle_index_at_one",
    "cycle_index_at_one_bruteforce",
    "burnside_vs_closed_form",
    "burnside_vs_bruteforce_cycle_index",
]
FULL_CHECKS = QUICK_CHECKS + [
    "orbit_partition_vs_burnside",
    "orbit_partition_vs_closed_form",
    "circulant_oracle_vs_formula",
    "connected_oracle_vs_formula",
    "a_only_vs_circulant_squared",
    "b_touching_vs_expected",
    "orbit_partition_identity",
]


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_count_json(capsys):
    status, out = run(capsys, "count", "--p", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["p"] == 3
    assert payload["aut_order"] == 24
    assert payload["n_total"] == "432"
    assert payload["n_circulant"] == "6"
    assert payload["n_connected"] == "388"
    assert payload["methods"] == {"closed_form": "432", "cycle_index_eval": "432"}
    assert payload["discrepancies"] == []


def test_count_csv(capsys):
    status, out = run(capsys, "count", "--p", "3", "--format", "csv")
    assert status == 0
    assert out.splitlines() == [CSV_HEADER, "3,432,6,388"]
    assert CSV_HEADER == "p,n_total,n_circulant,n_connected"


def test_count_text(capsys):
    status, out = run(capsys, "count", "--p", "5")
    assert status == 0
    assert "n_total = 18144" in out
    assert "n_circulant = 12" in out
    assert "n_connected = 17992" in out
    assert "DISCREPANCY" not in out


def test_count_exits_1_when_two_claimed_routes_disagree(capsys, monkeypatch):
    original = polya.n_total
    monkeypatch.setattr(polya, "n_total", lambda p: 433 if p == 3 else original(p))
    assert main(["count", "--p", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal inconsistency" in captured.err
    assert "closed_form 433 vs cycle_index_eval 432" in captured.err


def test_count_rejects_non_prime(capsys):
    status = main(["count", "--p", "4"])
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_table_csv(capsys):
    status, out = run(capsys, "table", "--p-list", "3,5,7,11,13", "--format", "csv")
    assert status == 0
    assert out.splitlines() == [
        CSV_HEADER,
        "3,432,6,388",
        "5,18144,12,17992",
        "7,1824384,28,1823592",
        "11,41253667584,216,41253620920",
        "13,7330997009984,704,7330996514360",
    ]


def test_table_text(capsys):
    status, out = run(capsys, "table", "--p-list", "3,5")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split() == ["p", "n_total", "n_circulant", "n_connected"]
    assert lines[1].split() == ["3", "432", "6", "388"]
    assert lines[2].split() == ["5", "18144", "12", "17992"]


@pytest.mark.parametrize("p_list", ["3", "3,13,1009"])
def test_table_text_columns_line_up_with_their_headers(capsys, p_list):
    status, out = run(capsys, "table", "--p-list", p_list)
    assert status == 0
    header, *rows = out.splitlines()
    assert len(rows) == len(p_list.split(","))
    column_ends = [m.end() for m in re.finditer(r"\S+", header)]
    for row in rows:
        assert [m.end() for m in re.finditer(r"\S+", row)] == column_ends


def test_table_json_lists_the_count_objects_in_p_list_order(capsys):
    status, out = run(capsys, "table", "--p-list", "5,3", "--format", "json")
    assert status == 0
    counts = [json.loads(run(capsys, "count", "--p", p, "--format", "json")[1]) for p in "53"]
    assert json.loads(out) == counts
    assert [row["p"] for row in json.loads(out)] == [5, 3]


def test_table_tests_each_p_for_primality_once(capsys):
    is_odd_prime.cache_clear()
    assert main(["table", "--p-list", "3,5,7"]) == 0
    assert is_odd_prime.cache_info().misses == 3


def test_table_rejects_bad_token(capsys):
    assert main(["table", "--p-list", "3,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --p-list: not an integer: 'x'\n"


def test_verify_quick_text(capsys):
    status, out = run(capsys, "verify", "--p", "3")
    assert status == 0
    assert "verify p=3 level=quick" in out
    flagged = {
        line.split()[1].rstrip(":")
        for line in out.splitlines()
        if line.startswith("FLAG ")
    }
    assert flagged == {
        "cycle_types_closed_vs_brute",
        "cycle_index_paths",
        "burnside_vs_closed_form",
    }
    assert "result: 8 checks, 3 flagged, 0 failed" in out


def test_verify_full_json(capsys):
    status, out = run(capsys, "verify", "--p", "3", "--level", "full", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["exit_status"] == 0
    assert [c["name"] for c in payload["checks"]] == FULL_CHECKS
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert sum(1 for s in statuses.values() if s == "flagged") == 7
    assert sum(1 for s in statuses.values() if s == "fail") == 0
    assert statuses["orbit_partition_vs_burnside"] == "pass"
    assert statuses["orbit_partition_identity"] == "pass"
    assert statuses["b_touching_vs_expected"] == "pass"
    assert statuses["connected_oracle_vs_formula"] == "flagged"
    methods = payload["counts"]["methods"]
    assert methods["burnside"] == "624"
    assert methods["orbit_partition"] == "624"
    assert methods["oracle_circulant"] == "8"
    assert methods["oracle_connected"] == "568"
    claimed_vs_genuine = [
        ("n_total", "closed_form", "432", "burnside", "624"),
        ("n_total", "closed_form", "432", "orbit_partition", "624"),
        ("n_circulant", "formula", "6", "oracle_circulant", "8"),
        ("n_connected", "formula", "388", "oracle_connected", "568"),
    ]
    keys = ("quantity", "method_a", "value_a", "method_b", "value_b")
    assert payload["counts"]["discrepancies"] == [dict(zip(keys, d)) for d in claimed_vs_genuine]


def test_verify_full_p5_exits_zero(capsys):
    status, out = run(capsys, "verify", "--p", "5", "--level", "full")
    assert status == 0
    assert "result: 15 checks, 7 flagged, 0 failed" in out


def test_verify_workers_do_not_change_output(capsys):
    _, base = run(capsys, "verify", "--p", "3", "--level", "full")
    _, threaded = run(capsys, "verify", "--p", "3", "--level", "full", "--workers", "3")
    assert base == threaded


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_verify_rejects_fewer_than_one_worker(capsys, workers):
    for level in ("full", "quick"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "3", "--level", level, "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err


def test_verify_rejects_a_non_integer_worker_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3", "--workers", "abc"])
    assert exc.value.code == 2
    assert "--workers: not an integer: 'abc'" in capsys.readouterr().err


def test_verify_p7_prints_the_readme_block(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "$ cayley8p verify --p 7 --level full\n"
    block = readme[readme.index(command) + len(command) :].split("```", 1)[0]
    monkeypatch.setattr(oracle, "_reps_cache", {})  # drop the 2.1 M representatives afterwards
    monkeypatch.setattr(oracle, "_census_cache", {})
    assert main(["verify", "--p", "7", "--level", "full"]) == 0
    assert capsys.readouterr().out == block


def test_verify_refuses_p_beyond_the_census_limit(capsys, monkeypatch):
    _refuse_quick_work(monkeypatch)
    assert main(["verify", "--p", "11", "--level", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need p <= 7" in captured.err


def _refuse_quick_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quick verification started before the refusal")

    quick_work = (
        enumerate_aut,
        aut_blocks,
        polya.count_report,
        domain.induced_halves,
        domain.induced_permutations,
    )
    for original in quick_work:
        _patch_every_binding(monkeypatch, original, refuse)


def test_verify_refuses_a_p_beyond_memory_before_any_work(capsys, monkeypatch):
    _refuse_quick_work(monkeypatch)
    start = time.perf_counter()
    status = main(["verify", "--p", "3571"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2
    assert elapsed < 1
    assert captured.out == ""
    assert "error: p=3571 needs 2,778,612.4 MiB" in captured.err
    assert "physical memory" in captured.err


def test_verify_refuses_a_p_beyond_half_of_the_memory_it_reads(capsys, monkeypatch):
    # 3 MiB of memory; p = 31 needs 2 * 3720 * 124 * 2 bytes, about 1.8 MiB
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 768}.get)
    assert main(["verify", "--p", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: p=31 needs 1.8 MiB" in captured.err
    assert "half of the 3.0 MiB of physical memory" in captured.err
    domain.induced_halves.cache_clear()
    domain.induced_permutations.cache_clear()
    with pytest.raises(ValueError, match="p=31 needs 1.8 MiB"):
        domain.induced_permutations(31)


def test_verify_refuses_a_p_beyond_int16_as_the_other_commands_do(capsys, monkeypatch):
    """p = 8209 is refused for its class count, as cycle-index and
    cycle-types refuse it, before the memory its arrays would take."""
    _refuse_quick_work(monkeypatch)
    assert main(["verify", "--p", "8209"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: p=8209 has 32836 classes, more than an int16 index holds" in captured.err
    assert "MiB" not in captured.err


def test_verify_full_checks_the_oracle_cap_before_quick_work(capsys, monkeypatch):
    _refuse_quick_work(monkeypatch)
    assert main(["verify", "--p", "211", "--level", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need p <= 7" in captured.err


def test_verify_full_refuses_a_p_whose_orbit_bound_overflows_a_float(capsys, monkeypatch):
    """2^1052/275624 orbits at p = 263: the refusal is worded in integers."""
    _refuse_quick_work(monkeypatch)
    # 1 TiB of memory, so that the permutation arrays of p = 263 pass and the cap refuses
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 28}.get)
    assert main(["verify", "--p", "263", "--level", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need p <= 7" in captured.err
    assert "p=263 has at least 2^1052/275624, more than 2^1033, orbits" in captured.err


def test_verify_rejects_csv_format():
    with pytest.raises(SystemExit):
        main(["verify", "--p", "3", "--format", "csv"])


def test_cycle_index_eval(capsys):
    assert run(capsys, "cycle-index", "--p", "3", "--eval", "2") == (0, "432\n")
    assert run(capsys, "cycle-index", "--p", "3", "--eval", "1") == (0, "1\n")
    status, out = run(capsys, "cycle-index", "--p", "3", "--eval", "2", "--format", "json")
    assert status == 0
    assert json.loads(out) == {"p": 3, "eval_at": 2, "value": "432"}


def test_cycle_index_text_annotates_the_disagreement(capsys):
    status, out = run(capsys, "cycle-index", "--p", "3")
    assert status == 0
    header, poly = out.splitlines()
    assert header.startswith("# cycle index on 12 classes; DIFFERS")
    assert "4 terms" in header
    assert poly.startswith("1/24·x1^12 + ")


def test_cycle_index_json(capsys):
    status, out = run(capsys, "cycle-index", "--p", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["matches_bruteforce"] is False
    assert payload["differing_terms"] == 4
    assert payload["terms"][0] == {"coeff_num": 1, "coeff_den": 24, "monomial": [[1, 12]]}
    assert len(payload["terms"]) == 9


def test_cycle_types_text(capsys):
    status, out = run(capsys, "cycle-types", "--p", "3")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "sigma(1,0): 1^12"
    assert len(lines) == 24


def test_cycle_types_json(capsys):
    status, out = run(capsys, "cycle-types", "--p", "3", "--format", "json")
    assert status == 0
    records = json.loads(out)
    assert len(records) == 24
    assert records[0] == {
        "family": "sigma",
        "alpha": 1,
        "beta": 0,
        "cycle_type": {"1": 12},
    }


@pytest.mark.parametrize("p", [3, 5, 13])
def test_cycle_types_match_a_reference_rendering(capsys, p):
    autos = enumerate_aut(p)
    records = [
        {
            "family": f.family,
            "alpha": f.alpha,
            "beta": f.beta,
            "cycle_type": {str(k): v for k, v in sorted(closed_form_cycle_type(f).items())},
        }
        for f in autos
    ]
    want = json.dumps(records, indent=2) + "\n"
    assert run(capsys, "cycle-types", "--p", str(p), "--format", "json") == (0, want)
    want = "".join(f"{f}: {render_cycle_type(closed_form_cycle_type(f))}\n" for f in autos)
    assert run(capsys, "cycle-types", "--p", str(p)) == (0, want)


def test_cycle_types_memory_does_not_grow_with_the_output():
    """At p = 211 the JSON is 177240 records, 22.5 MiB: each case is rendered
    once and the records go out one run of 2p at a time, so the traced peak
    stays well below the size of the output."""
    polya.closed_form_cycle_types.cache_clear()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = main(["cycle-types", "--p", "211", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cycle_types_refuses_p_beyond_int16_before_output(capsys, monkeypatch, fmt):
    def refuse(f):
        raise AssertionError("closed_form_cycle_type called before the size check")

    _patch_every_binding(monkeypatch, polya.closed_form_cycle_type, refuse)
    assert main(["cycle-types", "--p", "8209", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: p=8209 has 32836 classes" in captured.err
    assert "32767" in captured.err


def test_closed_stdout_ends_quietly_with_status_141(tmp_path):
    """`cayley8p cycle-types --p 101 | head -1`: no traceback, a fixed status."""
    env = dict(os.environ, PYTHONPATH=str(Path(domain.__file__).resolve().parents[1]))
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cayley8p.cli", "cycle-types", "--p", "101"],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()  # about 1.2 MB are still to come, far more than a pipe buffers
        status = proc.wait(timeout=120)
    assert first == b"sigma(1,0): 1^404\n"
    assert status == 141
    assert (tmp_path / "stderr").read_bytes() == b""


def _python(script: str) -> str:
    """Standard output of script, run in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(domain.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120, check=True
    )
    return proc.stdout.decode()


CLAIMED_COMMANDS = [
    [command, *args, "--format", fmt]
    for command, args, formats in [
        ("count", ["--p", "13"], ["text", "json", "csv"]),
        ("table", ["--p-list", "3,5,7,11,13"], ["text", "json", "csv"]),
        ("cycle-index", ["--p", "13", "--eval", "2"], ["text", "json"]),
        ("cycle-types", ["--p", "13"], ["text", "json"]),
    ]
    for fmt in formats
]


def test_claimed_commands_run_on_the_standard_library_alone(capsys):
    """With numpy unimportable, the package and its closed-form modules
    import, and count, table, cycle-index --eval and cycle-types print what
    they print in this process, byte for byte, and load no engine module."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any numpy import raises ImportError\n"
        "import contextlib, io, json\n"
        "import cayley8p\n"
        "cayley8p.group, cayley8p.autos, cayley8p.modular, cayley8p.polya, cayley8p.n_total\n"
        "from cayley8p.cli import main\n"
        "runs = []\n"
        f"for argv in {CLAIMED_COMMANDS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = main(argv)\n"
        "    runs.append([status, out.getvalue()])\n"
        "engine = ('domain', 'kernels', 'oracle', 'verify')\n"
        "print(json.dumps([runs, [m for m in engine if 'cayley8p.' + m in sys.modules]]))\n"
    )
    runs, engine = json.loads(_python(script))  # fails if a closed-form name needs numpy
    expected = []
    for argv in CLAIMED_COMMANDS:
        status = main(argv)
        expected.append([status, capsys.readouterr().out])
    assert runs == expected
    assert all(status == 0 for status, _ in runs)
    assert engine == []


def test_full_verify_never_imports_numpy_ma():
    """numpy.ma costs tens of milliseconds to import; no command needs it
    (np.unique with an axis would pull it in unnoticed)."""
    env = dict(os.environ, PYTHONPATH=str(Path(domain.__file__).resolve().parents[1]))
    script = (
        "import sys\n"
        "from cayley8p.cli import main\n"
        "status = main(['verify', '--p', '5', '--level', 'full'])\n"
        "print('numpy.ma' in sys.modules, status, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120, check=True
    )
    assert proc.stderr == b"False 0\n"


ENGINE_LOAD = "from cayley8p import oracle\n"
CALLER_SETS_2 = "os.environ['OPENBLAS_NUM_THREADS'] = before['OPENBLAS_NUM_THREADS'] = '2'\n"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="OpenBLAS starts no worker thread on one CPU; threads are counted in /proc",
)
@pytest.mark.parametrize(
    "caller_sets, first, then, threads, window, variable",
    [
        (None, "", ENGINE_LOAD, [1], "1", None),
        ("2", "", ENGINE_LOAD, [2], "2", "2"),
        # numpy loaded by the caller keeps OpenBLAS's own count, up to one per CPU
        (None, "import numpy\n", ENGINE_LOAD, range(2, (os.cpu_count() or 1) + 1), None, None),
        # a count the caller sets after the import is theirs, and stays
        (None, "", CALLER_SETS_2 + ENGINE_LOAD, [2], "1", "2"),
    ],
    ids=["unset", "set-by-caller", "numpy-first", "set-after-import"],
)
def test_import_loads_numpy_with_one_blas_thread(caller_sets, first, then, threads, window, variable):
    """An idle OpenBLAS worker spins on a free core; the package calls no BLAS
    routine, so importing it sets OPENBLAS_NUM_THREADS=1, unless the caller
    chose a count or loaded numpy first.  numpy, loaded next by the package,
    starts one BLAS thread, and the package leaves os.environ as it was."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(domain.__file__).resolve().parents[1])
    if caller_sets is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_sets
    script = first + (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import cayley8p\n"
        "window = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        + then
        + "print(json.dumps([len(os.listdir('/proc/self/task')), window,\n"
        "                  os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120, check=True
    )
    n_threads, seen_in_window, seen, unchanged = json.loads(proc.stdout)
    assert n_threads in threads
    assert seen_in_window == window
    assert seen == variable
    assert unchanged


def test_report_object_shape():
    report = build_verification_report(3, "quick")
    assert not report.failed
    assert [c.name for c in report.checks] == QUICK_CHECKS
    assert [(c.genuine_route, c.genuine) for c in report.comparisons] == [("burnside", 624)]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_rejects_an_empty_p_list(capsys, fmt):
    for p_list in (",", ",,"):
        assert main(["table", "--p-list", p_list, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p-list names no prime" in captured.err


def _with_int_max_str_digits(limit, fn):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_counts_too_long_to_print_are_refused_before_output(capsys, fmt):
    text = _with_int_max_str_digits(0, lambda: str(n_total(3581)))
    for argv in (["count", "--p", "3581"], ["table", "--p-list", "3571,3581"]):
        status = _with_int_max_str_digits(4300, lambda: main([*argv, "--format", fmt]))
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"p=3581 has {len(text)} decimal digits" in captured.err
        assert "4300" in captured.err
    # 4293 digits still print, and a limit of 0 means no limit
    status = _with_int_max_str_digits(4300, lambda: main(["count", "--p", "3571", "--format", fmt]))
    assert status == 0
    assert str(n_total(3571)) in capsys.readouterr().out
    status = _with_int_max_str_digits(0, lambda: main(["count", "--p", "3581", "--format", fmt]))
    assert status == 0
    assert text in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("m", [3, -3])
def test_cycle_index_values_too_long_to_print_are_refused_before_output(capsys, fmt, m):
    value = polya.cycle_index_closed_form(3571).evaluate(m)
    text = _with_int_max_str_digits(0, lambda: str(abs(value)))
    argv = ["cycle-index", "--p", "3571", "--eval", str(m), "--format", fmt]
    status = _with_int_max_str_digits(4300, lambda: main(argv))
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"cycle index at p=3571, m={m} has {len(text)} decimal digits" in captured.err
    assert "4300" in captured.err
    status = _with_int_max_str_digits(0, lambda: main(argv))
    assert status == 0
    assert text in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("sign", [1, -1])
def test_cycle_index_values_too_long_to_print_are_refused_before_evaluation(
    capsys, monkeypatch, fmt, sign
):
    """A value with millions of digits is refused from its weights alone."""
    polya.cycle_index_closed_form(3571)  # build outside the timed call
    m = sign * (10**300 + 7)
    monkeypatch.setattr(
        polya.CycleIndexPoly, "evaluate", lambda self, m: pytest.fail("evaluated")
    )
    argv = ["cycle-index", "--p", "3571", "--eval", str(m), "--format", fmt]
    start = time.perf_counter()
    status = _with_int_max_str_digits(4300, lambda: main(argv))
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"m={m} has at least 4284893 decimal digits" in captured.err
    assert "4300" in captured.err


def test_cycle_index_digit_bound_never_refuses_a_printable_value(capsys):
    """Around the refusal threshold the bound refuses only values that the
    exact check refuses too, and never claims more digits than they have."""
    limit = 640  # the smallest limit Python accepts
    for p in (3, 5):
        closed = polya.cycle_index_closed_form(p)
        refused = 0
        for digits in range(limit // (4 * p) - 2, limit // (4 * p - 1) + 4):
            for m in (10 ** (digits - 1), 10**digits - 1, -(10 ** (digits - 1)) - 7):
                value = closed.evaluate(m)
                true_digits = len(_with_int_max_str_digits(0, lambda: str(abs(value))))
                argv = ["cycle-index", "--p", str(p), "--eval", str(m)]
                status = _with_int_max_str_digits(limit, lambda: main(argv))
                err = capsys.readouterr().err
                assert status == (2 if true_digits > limit else 0)
                if "at least" in err:
                    refused += 1
                    claimed = int(err.split("at least ")[1].split()[0])
                    assert limit < claimed <= true_digits
        assert refused  # the bound itself was exercised


ODD_PRIMES_BELOW_3571 = ",".join(str(p) for p in range(3, 3571) if is_odd_prime(p))


@pytest.mark.parametrize(
    "argv, length, digest",
    [
        (
            ["table", "--p-list", ODD_PRIMES_BELOW_3571, "--format", "json"],
            4296474,
            "a7d16d0a28276946939337ae6f63800c988a93b39732c301e671dbf252fe128a",
        ),
        (
            ["table", "--p-list", ODD_PRIMES_BELOW_3571, "--format", "text"],
            4807865,
            "0c5e51a590a760cddcb491d6310695c44f093c2fdec82314b1d6ba50aa245d3e",
        ),
        (
            ["count", "--p", "3571", "--format", "text"],
            18364,
            "644e3aef63ac1487234c01ba22f051c64f0687eacc801c0a8ac722edba31778c",
        ),
        (
            ["count", "--p", "3571", "--format", "json"],
            18437,
            "d4c239b43a791af7b5a586a77683ae8aef551fcc6678b3578dd2ece204efdacb",
        ),
        (
            ["count", "--p", "3571", "--format", "csv"],
            9700,
            "f3995bdc5978289650e81b432bf3556522d3efa989f77f0a0e3692dc62aaa034",
        ),
        (
            ["cycle-types", "--p", "101", "--format", "text"],
            1070601,
            "f0c2701fba366be5436e98c6fdc8212c43508555b90ffee8f6767d45e1d8c583",
        ),
        (
            ["cycle-types", "--p", "101", "--format", "json"],
            5221674,
            "93ba3b680e3871d0f6863ab82688bc6a22b16db41dd25a2dfe7db53ea5cb0b63",
        ),
    ],
    ids=["table-json", "table-text", "count-text", "count-json", "count-csv", "types-text", "types-json"],
)
def test_claimed_outputs_are_pinned(capsys, argv, length, digest):
    """Byte for byte what each str() of each number printed; the table's CSV
    is pinned in test_polya."""
    status, out = run(capsys, *argv)
    assert status == 0
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@st.composite
def ordered_pairs(draw):
    """0 <= small <= big, with gaps of every size up to big itself."""
    big = draw(st.integers(min_value=0, max_value=10**400))
    gap = draw(st.integers(0, big) | st.integers(0, 10**40).map(lambda g: min(g, big)))
    return big, big - gap


@settings(max_examples=300, deadline=None)
@given(ordered_pairs())
def test_shared_digits_equal_str(pair):
    big, small = pair
    assert cli._shared_digits(big, small) == (str(big), str(small))


@pytest.mark.parametrize(
    "big, small",
    [
        (37, 29),  # head 3, low 7 < gap 8: one borrow
        (2 * 10**96 + 3, 2 * 10**96 - 7),  # head 2 * 10^94, low 3 < gap 10: through the zeros
        (10**33 + 1, 10**33 - 4),  # head 10^32 becomes 32 nines
        (10**32 + 1, 5),  # head 1: a borrow would leave no head and pad 5 with zeros
        (10**70 + 5, 10**70 + 5),  # a gap of 0
        (10**70 + 5, 0),  # a gap as large as big: head 0
    ],
    ids=["borrow", "borrow-through-zeros", "borrow-shortens-head", "head-1", "gap-0", "gap-big"],
)
def test_shared_digits_cover_the_borrow_and_the_fallback(big, small):
    """The cases the docstring names, each taken on purpose; big splits at
    the gap's digits.  188 rows of the 498-prime table borrow as well."""
    assert cli._shared_digits(big, small) == (str(big), str(small))


def test_shared_digits_beyond_the_str_limit():
    """With the limit lifted, numbers far longer than 4300 digits split too."""
    big = 7 * 10**5000 + 123456789
    small = big - 10**2500 - 5
    got = _with_int_max_str_digits(0, lambda: cli._shared_digits(big, small))
    assert got == _with_int_max_str_digits(0, lambda: (str(big), str(small)))
    assert len(got[0]) == 5001


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_method_that_differs_from_n_total_prints_its_own_digits(capsys, monkeypatch, fmt):
    original = polya.count_report

    def off_by_one(p):
        report = original(p)
        return polya.CountReport(
            **vars(report) | {"methods": report.methods | {"cycle_index_eval": report.n_total + 1}}
        )

    monkeypatch.setattr(polya, "count_report", off_by_one)
    status, out = run(capsys, "count", "--p", "13", "--format", fmt)
    assert status == 0
    if fmt == "json":
        assert json.loads(out)["methods"] == {
            "closed_form": "7330997009984",
            "cycle_index_eval": "7330997009985",
        }
    else:
        assert "method closed_form = 7330997009984\n" in out
        assert "method cycle_index_eval = 7330997009985\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cycle_types_renders_each_distinct_type_once(capsys, monkeypatch, fmt):
    """p = 101 has 404 cases but 28 distinct cycle types."""
    calls = []
    if fmt == "json":
        original = cli.json.dumps
        monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(a) or original(*a, **k))
    else:
        original = polya.render_cycle_type
        monkeypatch.setattr(polya, "render_cycle_type", lambda t: calls.append(t) or original(t))
    status, out = run(capsys, "cycle-types", "--p", "101", "--format", fmt)
    assert status == 0
    assert len(calls) == 28
    if fmt == "text":
        assert len(out.splitlines()) == 40400


def _patch_every_binding(monkeypatch, original, replacement):
    """Replace original under every name a cayley8p module binds it to."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cayley8p":
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, replacement)


def test_verify_never_decomposes_one_permutation_at_a_time(monkeypatch):
    """The verify path reads the array cycle types; the scalar reference is not called."""

    def refuse(perm):
        raise AssertionError("cycle_type_of called on the verify path")

    _patch_every_binding(monkeypatch, domain.cycle_type_of, refuse)
    caches = (domain.induced_halves, domain.induced_permutations, domain.cycle_types)
    for cached in caches + (cycle_index_bruteforce,):
        cached.cache_clear()
    report = build_verification_report(31, "quick")
    assert not report.failed
    [burnside] = report.comparisons
    assert burnside.genuine == cycle_index_bruteforce(31).evaluate(2)


def test_verify_never_enumerates_automorphism_objects(monkeypatch):
    """The verify path counts maps as array rows; enumerate_aut is not called."""

    def refuse(p):
        raise AssertionError("enumerate_aut called on the verify path")

    _patch_every_binding(monkeypatch, enumerate_aut, refuse)
    caches = (domain.induced_halves, domain.induced_permutations, domain.cycle_types)
    for cached in caches + (polya.closed_form_cycle_types,):
        cached.cache_clear()
    report = build_verification_report(31, "quick")
    assert not report.failed
    details = {c.name: c.details for c in report.checks}
    assert details["automorphism_count"] == "3720 automorphisms, expected 3720"


def test_verify_runs_the_closed_form_case_analysis_once_per_case(monkeypatch):
    calls = []
    original = polya.closed_form_cycle_type

    def counted(f):
        calls.append(f)
        return original(f)

    _patch_every_binding(monkeypatch, original, counted)
    polya.closed_form_cycle_types.cache_clear()
    report = build_verification_report(31, "quick")
    # once per (family, order of alpha, beta case): p - 1 = 30 has 8 divisors,
    # the order 1 has four beta cases and each of the other 7 orders two
    assert len(calls) == 2 * (4 + 2 * 7) == 36
    # 4p(p-1-m) mismatches, m = 15 the odd part of p - 1 (acceptance criterion 4)
    details = {c.name: c.details for c in report.checks}
    assert details["cycle_types_closed_vs_brute"] == "1860 mismatches over 3720 automorphisms"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--p", "31"], ["verify", "--p", "5", "--level", "full"], ["cycle-index", "--p", "31"]],
)
def test_genuine_counts_never_build_the_whole_permutation_array(argv, capsys, monkeypatch):
    """Cycle types, Burnside and the sweep read the half-rows; the assembled
    4p-wide array is not built on the way to any genuine number."""

    def refuse(p):
        raise AssertionError("induced_permutations called on the way to a genuine number")

    _patch_every_binding(monkeypatch, domain.induced_permutations, refuse)
    for cached in (domain.induced_halves, domain.cycle_types, cycle_index_bruteforce):
        cached.cache_clear()
    monkeypatch.setattr(oracle, "_reps_cache", {})
    monkeypatch.setattr(oracle, "_census_cache", {})
    assert main(argv) == 0
    assert capsys.readouterr().out


def _clear_every_cache(monkeypatch):
    for module in (autos, cli, domain, group, kernels, modular, oracle, polya, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(oracle, "_reps_cache", {})
    monkeypatch.setattr(oracle, "_census_cache", {})


def _count_constructions(monkeypatch, cls, method, built):
    original = getattr(cls, method, None)

    def counted(self, *args, **kwargs):
        if original is not None:
            original(self, *args, **kwargs)
        built[cls.__name__, getattr(self, "p", None)] += 1

    monkeypatch.setattr(cls, method, counted)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "5"],
        ["table", "--p-list", "3,5"],
        ["cycle-index", "--p", "5"],
        ["cycle-types", "--p", "5"],
        ["verify", "--p", "31"],
        ["verify", "--p", "5", "--level", "full"],
    ],
)
def test_no_command_builds_objects_per_element_or_per_map(argv, capsys, monkeypatch):
    """With every cache cleared, no command builds a GroupElement or a
    PairClass, and at most one Automorphism per closed-form case: 4p per p."""
    _clear_every_cache(monkeypatch)
    built = Counter()
    _count_constructions(monkeypatch, GroupElement, "__post_init__", built)
    _count_constructions(monkeypatch, Automorphism, "__post_init__", built)
    # PairClass has no __post_init__ for its generated __init__ to call
    _count_constructions(monkeypatch, PairClass, "__init__", built)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert [key for key in built if key[0] != "Automorphism"] == []
    assert all(n <= 4 * p for (_, p), n in built.items()), built


def test_full_verify_never_builds_the_multiplication_table(capsys, monkeypatch):
    """The census reads its maximal subgroups off the class layout; only the
    API's is_connected and build_cayley_graph, which no command calls, need
    group.mul_table."""
    _clear_every_cache(monkeypatch)
    assert main(["verify", "--p", "5", "--level", "full"]) == 0
    assert capsys.readouterr().out
    assert group.mul_table.cache_info().misses == 0


def test_two_main_calls_build_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert main(["count", "--p", "3"]) == 0
    first = len(built)
    assert main(["count", "--p", "5"]) == 0
    assert first and len(built) == first
    assert "p = 5" in capsys.readouterr().out
