"""Acceptance gate: the ten checks at full scale, one line of output each.

Each test runs one named check from match_ybo.selftest at level "full",
prints its PASS/FAIL line, and asserts the verdict.  Checks with a stated
time budget also assert it.
"""

import time

from match_ybo.selftest import ALL_CHECKS


def run_check(name, bound=None):
    t0 = time.perf_counter()
    ok, detail = dict(ALL_CHECKS)[name]("full")
    seconds = time.perf_counter() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({seconds:.1f}s)")
    assert ok, f"{name}: {detail}"
    if bound is not None:
        assert seconds < bound, f"{name} took {seconds:.1f}s, budget {bound}s"


def test_01_enumeration_counts():
    run_check("counts", bound=5.0)


def test_02_constructed_operators_solve():
    run_check("rec-solutions", bound=300.0)


def test_03_three_routes_agree():
    run_check("route-agreement")


def test_04_subset_reduction():
    run_check("subset-reduction")


def test_05_classification_round_trip():
    run_check("round-trip")


def test_06_signature_tables():
    run_check("signature-tables")


def test_07_orbit_table():
    run_check("orbit-table")


def test_08_fibre_oracle():
    run_check("fibre-oracle", bound=600.0)


def test_09_no_minus_representatives():
    run_check("no-minus")


def test_10_symmetry_suite():
    run_check("symmetries")
