"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The exact work counts must repeat across runs and match their closed forms;
the output checks must reject wrong output; the same seed must give the same
input bytes; and the metric lists must agree with BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from match_ybo import matchcat, recipe  # noqa: E402
from match_ybo.diagrams import orbit  # noqa: E402


def build(name, seed, tmp_path):
    workdir = _subdir(tmp_path, f"{name}-{seed}")
    ops = workloads.build(name, seed, str(workdir))
    return ops, run.input_digest(str(workdir), ops)


def _subdir(path, name):
    path = path / name
    path.mkdir()
    return path


def traced_pass(ops):
    tracer = spans.Tracer()
    runner = run.Runner()
    with tracer.installed():
        for op in ops:
            runner.inprocess_call(op)
    assert runner.failed == 0
    return tracer


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(name, tmp_path):
    ops, digest = build(name, 7, tmp_path)
    again, digest_again = build(name, 7, _subdir(tmp_path, "again"))
    assert digest == digest_again
    assert [op.name for op in ops] == [op.name for op in again]
    assert build(name, 8, _subdir(tmp_path, "other"))[1] != digest


def test_verify_counts_repeat_and_match_closed_forms(tmp_path):
    ops, _ = build("verify-large", 3, tmp_path)
    first, second = traced_pass(ops), traced_pass(ops)
    assert first.counts == second.counts
    subsets = 2 * sum(math.comb(n, 3) for n in workloads.VERIFY_SIZES)  # two operators per n
    assert first.calls("ybe.direct", "ybe.subsets") == subsets
    assert first.counts["ybe.relation_images"] == 48 * subsets
    # at most 16 witnesses from each of the three routes, on each corrupted operator
    assert 0 < first.counts["ybe.witnesses"] <= 16 * 3 * len(workloads.VERIFY_SIZES)


def test_level3_nnz_counts_f1f2f1(tmp_path):
    ops, _ = build("verify-large", 3, tmp_path)
    want = 0
    for op in ops:
        with open(op.argv[-1], encoding="ascii") as fh:
            m = matchcat.matrix_from_json(json.load(fh))
        s, one = matchcat.to_sparse(m), matchcat.identity_op(m.n)
        f1, f2 = matchcat.kron(s, one), matchcat.kron(one, s)
        want += len(matchcat.compose(matchcat.compose(f1, f2), f1).entries)
    assert traced_pass(ops).counts["matchcat.level3_nnz"] == want


def test_census_counts_repeat(tmp_path):
    ops, _ = build("census", 0, tmp_path)
    first, second = traced_pass(ops), traced_pass(ops)
    assert first.counts == second.counts
    p7 = workloads.CENSUS[7]
    assert first.counts["oracle.hits"] == sum(v[0] for v in p7.values()) + sum(
        v[0] for t, v in workloads.CENSUS[11].items() if t not in workloads.CENSUS_SKIPPED)


def test_full_census_at_p11_counts():
    tracer = spans.Tracer()
    with tracer.installed():
        report = spans.library_module("oracle").fibre_report(11)
    assert tracer.counts["oracle.vectors_tested"] == 1_261_340
    assert tracer.counts["oracle.hits"] == 1_018_510
    assert {r["type"]: (r["solutions"], r["matches_family"]) for r in report} == workloads.CENSUS[11]


def test_every_binding_is_patched_and_restored():
    cli = spans.library_module("cli")
    selftest = spans.library_module("selftest")
    import match_ybo

    before = (cli._METHODS["direct"], match_ybo.classify, cli.classify, selftest.ALL_CHECKS)
    with spans.Tracer().installed():
        assert cli._METHODS["direct"] is not before[0]
        assert cli._METHODS["direct"].__wrapped__ is before[0]
        assert match_ybo.classify is cli.classify is not before[1]
        assert all(hasattr(fn, "__wrapped__") for _, fn in selftest.ALL_CHECKS)
    assert [name for name, _ in selftest.ALL_CHECKS] == list(spans.SELFTEST_CHECKS)
    assert (cli._METHODS["direct"], match_ybo.classify, cli.classify, selftest.ALL_CHECKS) == before


def test_checks_reject_wrong_output(tmp_path):
    ops, _ = build("classify-roundtrip", 1, tmp_path)
    runner = run.Runner()
    for op in ops:
        runner.inprocess_call(op)
    assert runner.failed == 0
    classify_op = next(op for op in ops if op.kind == "classify")
    with open(ops[0].argv[-1], encoding="ascii") as fh:
        germ = json.load(fh)
    germ["alpha"]["1"] = "999"
    assert classify_op.check(0, workloads.canonical(germ) + "\n", "")
    assert classify_op.check(1, "", "")
    assert classify_op.check(0, "{}", "Traceback (most recent call last):\n")

    vops, _ = build("verify-large", 1, _subdir(tmp_path, "v"))
    good, bad = vops[0], vops[1]
    assert good.check(1, '{"method":"all","solution":false,"witnesses":[]}\n', "")
    assert bad.check(0, '{"method":"all","solution":true,"witnesses":[]}\n', "")


def test_orbit_size_matches_library():
    rng = random.Random(4)
    for _ in range(20):
        config = workloads.random_config(rng, rng.randint(1, 5))
        for flip in (False, True):
            assert workloads.orbit_size(config, flip) == len(orbit(config, include_flip=flip))


def test_generated_germs_round_trip():
    rng = random.Random(5)
    classify = spans.library_module("classify").classify
    for _ in range(100):
        germ = workloads.random_germ(rng, rng.randint(1, 8))
        assert recipe.germ_to_json(classify(recipe.rec(germ))) == recipe.germ_to_json(germ)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_names()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
