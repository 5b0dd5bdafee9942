import random

from match_ybo import selftest
from match_ybo.cli import main
from match_ybo.matchcat import Permutation, act_perm, edge_pairs
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


def test_a_check_that_raises_fails_with_its_exception(monkeypatch, capsys):
    def check_raises(level):
        raise ValueError("no table at this level")

    monkeypatch.setattr(selftest, "ALL_CHECKS", (("raises", check_raises),))
    (result,) = run_selftest("quick")
    assert (result.name, result.ok) == ("raises", False)
    assert result.detail == "ValueError: no table at this level"
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL raises: ValueError: no table at this level (")
    assert out.count("\n") == 1


def test_corrupt_breaks_solutions():
    # Book-order configurations have no minus blocks, their relabellings do:
    # corrupt every edge of every relabelling of every T_N with N <= 3.
    rng = random.Random(99)
    minus = 0
    for n in range(1, 4):
        for config in enumerate_transversal(n):
            base = rec(Germ(config, generic_point(config, seed=0)))
            for w in Permutation.all(n):
                m = act_perm(base, w)
                assert ybe_residual_direct(m).zero
                for p in edge_pairs(n):
                    blk = m.edges[p]
                    minus += blk.a == 0 and blk.b != 0 and blk.d != 0
                    bad, pair = _corrupt(m, rng, pairs={p})
                    assert pair == p
                    assert not ybe_residual_direct(bad).zero
    assert minus > 0


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
