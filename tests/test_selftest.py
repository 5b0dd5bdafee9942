import random

from match_ybo import selftest
from match_ybo.recipe import Germ, generic_point, rec
from match_ybo.diagrams import enumerate_transversal
from match_ybo.selftest import (
    ALL_CHECKS,
    CLEAN_ORBIT_ROWS,
    SIGNATURE_TABLES,
    _corrupt,
    run_selftest,
)
from match_ybo.ybe import ybe_residual_direct


def test_check_registry():
    names = [name for name, _ in ALL_CHECKS]
    assert len(names) == 10
    assert len(set(names)) == 10


def test_run_selftest_name_filter():
    results = run_selftest(level="quick", names=["counts"])
    assert len(results) == 1
    assert results[0].name == "counts"
    assert results[0].ok
    assert results[0].seconds >= 0


def test_corrupt_breaks_solutions():
    rng = random.Random(99)
    for config in enumerate_transversal(3):
        m = rec(Germ(config, generic_point(config, seed=0)))
        bad, pair = _corrupt(m, rng)
        assert pair in bad.edges
        assert ybe_residual_direct(m).zero
        assert not ybe_residual_direct(bad).zero


def test_frozen_tables_shape():
    assert len(SIGNATURE_TABLES) == 26
    seen = set()
    for config, partition in SIGNATURE_TABLES:
        assert sum(partition) == config.n * config.n
        assert partition == tuple(sorted(partition, reverse=True))
    total = 0
    for row in CLEAN_ORBIT_ROWS:
        triples = set(row)
        assert len(triples) == len(row)
        assert not (triples & seen)
        seen |= triples
        total += len(row)
    assert len(CLEAN_ORBIT_ROWS) == 9
    assert total == 34


def test_fibre_oracle_fails_on_a_wrong_count_or_family(monkeypatch):
    with monkeypatch.context() as m:
        m.setitem(selftest.FIBRE_COUNTS, "+,+,+", lambda p: (p - 1) * (4 * p - 10))
        assert selftest.check_fibre_oracle("quick") == (
            False, "fibre +,+,+ has 102 hits over F_7, want 108"
        )
    outside = {"type": "0,0,0", "prime": 7, "solutions": 6, "matches_family": False}
    monkeypatch.setattr(selftest, "fibre_report", lambda p: [outside])
    assert selftest.check_fibre_oracle("quick") == (
        False, "fibre 0,0,0 has hits outside its family over F_7"
    )
