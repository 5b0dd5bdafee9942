import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import match_ybo
from match_ybo.cli import main
from match_ybo.diagrams import configuration_to_json, enumerate_transversal
from match_ybo.matchcat import matrix_to_json
from match_ybo.oracle import default_types
from match_ybo.recipe import Germ, ParamPoint, generic_point, germ_to_json, rec

from matchcat_oracles import matrix


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# The two ways a process enters `cli.run`: `python -m match_ybo.cli`, and the
# wrapper pip writes for the `[project.scripts]` entry point `match_ybo.cli:run`.
LAUNCHERS = {
    "module": ("-m", "match_ybo.cli"),
    "console script": ("-c", "import sys; from match_ybo.cli import run; sys.exit(run())"),
}


def cli_process(*argv, env=None, launcher=LAUNCHERS["module"], **kwargs):
    """`match-ybo argv` in a fresh interpreter, started with the interpreter
    arguments `launcher`, that imports this checkout's sources; `env`
    entries override the inherited ones, and None removes one."""
    src = str(Path(match_ybo.__file__).parent.parent)
    path_entries = [src, os.environ.get("PYTHONPATH")]
    merged = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, *launcher, *argv],
        env={k: v for k, v in merged.items() if v is not None}, timeout=60, **kwargs,
    )


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(canonical(obj) + "\n", encoding="ascii")
    return str(path)


def germ_file(tmp_path, n=3, index=1, seed=0):
    config = enumerate_transversal(n)[index]
    germ = Germ(config, generic_point(config, seed=seed))
    return write(tmp_path, "germ.json", germ_to_json(germ)), germ


def test_enumerate_json(capsys):
    rc, out = run(capsys, "enumerate", "--n", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert len(data["elements"]) == 4
    # canonical form: emitting again reproduces the bytes
    assert out == canonical(data) + "\n"


def test_enumerate_text(capsys):
    rc, out = run(capsys, "enumerate", "--n", "3", "--format", "text")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert lines[-1] == "T_3 = 13"
    assert lines[0].startswith("1: ")


# sha256 of `enumerate --n 6` stdout; fixes the word order of the transversal.
ENUMERATE_6_SHA256 = {
    "text": "9a09ab56fca7eac213993e9bdc3316efb0d83e11ef8831e6dec4eff8a0ca5c97",
    "json": "c0521ac2c3f8654a32eb71e35ab79401d5577da407167a02964e32965887dff9",
}


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_6_SHA256))
def test_enumerate_bytes_are_pinned(capsys, fmt):
    rc, out = run(capsys, "enumerate", "--n", "6", "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ENUMERATE_6_SHA256[fmt]


def test_build_from_config_is_seeded(capsys, tmp_path):
    config = enumerate_transversal(3)[2]
    path = write(tmp_path, "config.json", configuration_to_json(config))
    rc, out0 = run(capsys, "build", "--germ", path)
    assert rc == 0
    rc, again = run(capsys, "build", "--germ", path, "--seed", "0")
    assert again == out0
    rc, other = run(capsys, "build", "--germ", path, "--seed", "5")
    assert other != out0


def test_build_classify_round_trip_bytes(capsys, tmp_path):
    path, germ = germ_file(tmp_path, n=4, index=7)
    rc, built = run(capsys, "build", "--germ", path)
    assert rc == 0
    assert built == canonical(matrix_to_json(rec(germ))) + "\n"
    mpath = tmp_path / "matrix.json"
    mpath.write_text(built, encoding="ascii")
    rc, classified = run(capsys, "classify", "--matrix", str(mpath))
    assert rc == 0
    assert classified == canonical(germ_to_json(germ)) + "\n"


def test_verify_solution(capsys, tmp_path):
    path, germ = germ_file(tmp_path)
    mpath = write(tmp_path, "matrix.json", matrix_to_json(rec(germ)))
    for method in ("direct", "constraints", "subsets", "all"):
        rc, out = run(capsys, "verify", "--matrix", mpath, "--method", method)
        assert rc == 0
        data = json.loads(out)
        assert data["solution"] is True
        assert data["witnesses"] == []
        assert data["method"] == method


def test_verify_failure_reports_witnesses(capsys, tmp_path):
    bad = matrix((1, 1), {(1, 2): (1, 1, 1, 1)})
    mpath = write(tmp_path, "matrix.json", matrix_to_json(bad))
    rc, out = run(capsys, "verify", "--matrix", mpath)
    assert rc == 1
    data = json.loads(out)
    assert data["solution"] is False
    assert data["witnesses"]
    first = data["witnesses"][0]
    assert set(first) == {"row", "col", "value"}
    rc, out = run(capsys, "verify", "--matrix", mpath, "--method", "constraints")
    assert rc == 1
    data = json.loads(out)
    first = data["witnesses"][0]
    assert set(first) == {"letters", "perm", "relation", "value"}


def test_classify_rejects_non_solution(capsys, tmp_path):
    bad = matrix((1, 1), {(1, 2): (1, 1, 1, 1)})
    mpath = write(tmp_path, "matrix.json", matrix_to_json(bad))
    rc, out = run(capsys, "classify", "--matrix", mpath)
    assert rc == 1
    assert "error" in json.loads(out)


def test_malformed_input_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="ascii")
    rc, out = run(capsys, "verify", "--matrix", str(path))
    assert rc == 2
    rc, out = run(capsys, "verify", "--matrix", str(tmp_path / "missing.json"))
    assert rc == 2
    path = write(tmp_path, "short.json", {"n": 2, "vertices": ["1"], "edges": []})
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == 2


def test_non_ascii_input_exits_2(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes('{"n": 1, "vertices": ["1"], "edges": [], "note": "\u00e9"}'.encode("utf-8"))
    rc, out = run(capsys, "verify", "--matrix", str(path))
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("command", ["verify --matrix", "build --germ"])
def test_deeply_nested_input_exits_2_without_traceback(tmp_path, command):
    # json.load recurses once per bracket and would raise RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="ascii")
    proc = cli_process(*command.split(), str(path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)
    assert "Traceback" not in proc.stderr


def verify_input(tmp_path, kind):
    """A matrix file: a solution, a solution with one entry changed, or not JSON."""
    config = enumerate_transversal(4)[7]
    data = matrix_to_json(rec(Germ(config, generic_point(config))))
    if kind == "corrupted":
        data["edges"][0]["b"] = str(Fraction(data["edges"][0]["b"]) + 1)
    path = write(tmp_path, "m.json", data)
    if kind == "malformed":
        Path(path).write_text("{not json", encoding="ascii")
    return path


@pytest.mark.parametrize("kind, code", [("solution", 0), ("corrupted", 1), ("malformed", 2)])
def test_process_run_matches_in_process_main(capsys, tmp_path, kind, code):
    path = verify_input(tmp_path, kind)
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == code
    for name, launcher in LAUNCHERS.items():
        proc = cli_process("verify", "--matrix", path, launcher=launcher, capture_output=True)
        assert (name, proc.returncode, proc.stdout, proc.stderr) == (
            name, rc, out.encode("ascii"), b"")


@pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS)
@pytest.mark.parametrize("unbuffered", ["1", None])
def test_process_flushes_all_of_a_long_output(capsys, launcher, unbuffered):
    # 145 KB, more than a pipe holds; the process ends at os._exit, so only
    # the flush in run writes what the buffer still holds
    rc, out = run(capsys, "enumerate", "--n", "8", "--format", "text")
    assert (rc, len(out) > 65536) == (0, True)
    proc = cli_process("enumerate", "--n", "8", "--format", "text", launcher=launcher,
                       env={"PYTHONUNBUFFERED": unbuffered}, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode("ascii"), b"")


# An atexit callback registered before the command runs, as a `.pth` hook in
# site-packages may do, still runs before the process ends; argv[1] is what
# it writes to stderr.
WITH_ATEXIT_CALLBACK = (
    "import atexit, sys; atexit.register(sys.stderr.write, sys.argv.pop(1)); "
    "from match_ybo.cli import run; sys.exit(run())"
)


# Buffered stderr is line buffered: only the flush in run writes a line with
# no end.
@pytest.mark.parametrize("line", ["callback ran\n", "callback ran"], ids=["ended", "unended"])
@pytest.mark.parametrize("kind, code", [("solution", 0), ("malformed", 2)])
def test_process_runs_atexit_callbacks(capsys, tmp_path, kind, code, line):
    path = verify_input(tmp_path, kind)
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == code
    proc = cli_process(line, "verify", "--matrix", path, env={"PYTHONUNBUFFERED": None},
                       launcher=("-c", WITH_ATEXIT_CALLBACK), capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode("ascii"),
                                                           line.encode("ascii"))


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full", "no fd 1"])
def test_unwritable_stdout_exits_120_without_stderr(target, unbuffered):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip(f"no {target} on this platform")
    # the help printer writes --help and then raises SystemExit(0); with no
    # fd 1 at start, Python sets sys.stdout to None
    for argv, launcher in product((["enumerate", "--n", "3", "--format", "text"], ["nosuch"],
                                   ["--help"]), LAUNCHERS.values()):
        if target == "no fd 1":
            proc = cli_process(*argv, env={"PYTHONUNBUFFERED": unbuffered}, launcher=launcher,
                               preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
            assert (argv, launcher, proc.returncode, proc.stderr) == (argv, launcher, 120, b"")
            continue
        if target == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
        else:
            stdout = os.open(target, os.O_WRONLY)
        try:
            proc = cli_process(*argv, env={"PYTHONUNBUFFERED": unbuffered}, launcher=launcher,
                               stdout=stdout, stderr=subprocess.PIPE)
        finally:
            os.close(stdout)
        assert (argv, launcher, proc.returncode, proc.stderr) == (argv, launcher, 120, b"")


def test_boolean_scalar_exits_2(capsys, tmp_path):
    path = write(tmp_path, "bool.json", {"n": 1, "vertices": [True], "edges": []})
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("text", [
    '{"n": 1, "vertices": ["%s"], "edges": []}' % ("1" * 5000),
    '{"n": 1, "vertices": [%s], "edges": []}' % ("1" * 5000),
    '{"n": "%s", "vertices": ["1"], "edges": []}' % ("1" * 5000),
], ids=["scalar-string", "json-integer", "integer-field"])
def test_overlong_integers_exit_2(capsys, tmp_path, text):
    # int() refuses more than sys.get_int_max_str_digits() digits with a ValueError
    path = tmp_path / "long.json"
    path.write_text(text, encoding="ascii")
    rc = main(["verify", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert (rc, set(json.loads(captured.out)), captured.err) == (2, {"error"}, "")


@pytest.mark.parametrize("data", [5, None, "alpha", [1]])
def test_build_germ_non_object_exits_2(capsys, tmp_path, data):
    path = write(tmp_path, "germ.json", data)
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("command", ["build", "signature"])
def test_germ_file_that_is_not_an_object_exits_2(capsys, tmp_path, command):
    path = write(tmp_path, "germ.json", [1, 2])
    rc, out = run(capsys, command, "--germ", path)
    assert (rc, json.loads(out)) == (2, {"error": "germ: expected a JSON object, got list"})


SWAP_EDGE = {"i": 1, "j": 2, "a": "0", "b": "1", "c": "1", "d": "0"}


@pytest.mark.parametrize("data", [
    {"n": True, "vertices": ["1"], "edges": []},
    {"n": 2.5, "vertices": ["1", "1"], "edges": [SWAP_EDGE]},
    {"n": 2, "vertices": ["1", "1"], "edges": [dict(SWAP_EDGE, i=True)]},
    {"n": 2, "vertices": ["1", "1"], "edges": [dict(SWAP_EDGE, j=2.0)]},
])
def test_matrix_integer_fields_are_strict(capsys, tmp_path, data):
    path = write(tmp_path, "matrix.json", data)
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("n, vertex", [(True, 1), (1, True), (1.0, 1), (1, 1.5)])
def test_configuration_integer_fields_are_strict(capsys, tmp_path, n, vertex):
    county = {"vertices": [vertex], "part": "first"}
    path = write(tmp_path, "config.json", {"n": n, "nations": [{"counties": [county]}]})
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("data", [
    {"n": 2, "vertices": "11", "edges": [SWAP_EDGE]},
    {"n": 2, "vertices": {"1": "1", "2": "1"}, "edges": [SWAP_EDGE]},
    {"n": 2, "vertices": ["1", "1"], "edges": {}},
])
def test_matrix_list_fields_must_be_arrays(capsys, tmp_path, data):
    # a string or object would be read one character or key at a time
    path = write(tmp_path, "matrix.json", data)
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == 2
    assert "JSON array" in json.loads(out)["error"]


@pytest.mark.parametrize("nations", [
    [{"counties": [{"vertices": "12", "part": "first"}]}],
    [{"counties": {}}],
    {},
])
def test_configuration_list_fields_must_be_arrays(capsys, tmp_path, nations):
    path = write(tmp_path, "config.json", {"n": 2, "nations": nations})
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "JSON array" in json.loads(out)["error"]


TWO_LETTER_NATIONS = {"n": 2, "nations": [
    {"counties": [{"vertices": [v], "part": "first"}]} for v in (1, 2)
]}


@pytest.mark.parametrize("table, keys", [
    ("alpha", {"0_1": "5", "2": "3"}),
    ("alpha", {"1": "5", " 2": "3"}),
    ("alpha", {"1\n": "5", "2": "3"}),
    ("alpha", {"1": "5", "01": "9", "2": "3"}),  # 01 repeats 1
    ("mu", {"1 , 2": "7"}),
    ("mu", {"1,2": "7", "1,02": "7"}),
])
def test_germ_keys_are_strict(capsys, tmp_path, table, keys):
    data = dict(TWO_LETTER_NATIONS, alpha={"1": "5", "2": "3"}, beta={}, mu={"1,2": "7"})
    assert run(capsys, "build", "--germ", write(tmp_path, "valid.json", data))[0] == 0
    data[table] = keys
    path = write(tmp_path, "germ.json", data)
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "error" in json.loads(out)


# "\u0663" (Arabic-Indic three) and "\uff12" (fullwidth two) are Unicode
# digits: int() and the regex class \d both read them as numbers.
@pytest.mark.parametrize("command, data", [
    ("verify --matrix", {"n": 2, "vertices": ["\u0663", "1"], "edges": [SWAP_EDGE]}),
    ("verify --matrix", {"n": 2, "vertices": ["1", "1"], "edges": [dict(SWAP_EDGE, j="\uff12")]}),
    ("classify --matrix", {"n": "\uff12", "vertices": ["1", "1"], "edges": [SWAP_EDGE]}),
    ("classify --matrix", {"n": 2, "vertices": ["1", "1"], "edges": [dict(SWAP_EDGE, b="1/1\u0663")]}),
    ("build --germ", {"n": 2, "nations": [{"counties": [{"vertices": [1, "\uff12"], "part": "first"}]}]}),
    ("build --germ", dict(TWO_LETTER_NATIONS, alpha={"1": "5", "\uff12": "3"}, beta={}, mu={"1,2": "7"})),
    ("build --germ", dict(TWO_LETTER_NATIONS, alpha={"1": "5", "2": "3"}, beta={}, mu={"1,\u0662": "7"})),
    ("build --germ", dict(TWO_LETTER_NATIONS, alpha={"1": "\u0665", "2": "3"}, beta={}, mu={"1,2": "7"})),
], ids=["vertex", "edge-j", "n", "scalar-denominator", "county-vertex", "alpha-key", "mu-key",
        "alpha-value"])
def test_non_ascii_digits_exit_2(capsys, tmp_path, command, data):
    rc, out = run(capsys, *command.split(), write(tmp_path, "input.json", data))
    assert rc == 2
    assert "bad integer" in out or "bad scalar" in out


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "\u0662"],
    ["enumerate", "--n", "+2"],
    ["enumerate", "--n", "2 "],
    ["fibre", "--type", "0,0,0", "--prime", "1_1"],
    ["fibre", "--type", "0,0,0", "--prime", "\uff15"],
    ["build", "--germ", "{config}", "--seed", "1_0"],
    ["build", "--germ", "{config}", "--seed", "9" * 5000],
])
def test_integer_options_follow_the_file_rule(capsys, tmp_path, argv):
    # the rule of integer fields in files: ASCII digits after an optional minus
    config = write(tmp_path, "config.json", TWO_LETTER_NATIONS)
    rc, out = run(capsys, *[arg.format(config=config) for arg in argv])
    assert (rc, set(json.loads(out))) == (2, {"error"})
    assert f"argument {argv[-2]}: invalid int value" in json.loads(out)["error"]


@pytest.mark.parametrize("table, entries", [("beta", {"1": "2"}), ("mu", {"1,2": "5"}),
                                            ("mu_sq", {"1,2": "5"})])
def test_germ_without_alpha_is_not_a_configuration(capsys, tmp_path, table, entries):
    # any parameter table makes the file a germ, so a missing alpha is an
    # error rather than a silent switch to a generic point
    path = write(tmp_path, "germ.json", dict(TWO_LETTER_NATIONS, **{table: entries}))
    for command in ("build", "signature"):
        rc, out = run(capsys, command, "--germ", path)
        assert (rc, json.loads(out)) == (2, {"error": "alpha must cover every nation"})


@pytest.mark.parametrize("command, text", [
    ("build --germ", '{"n": 2, "nations": [{"counties": [{"vertices": [1], "part": "first"}]},'
                     ' {"counties": [{"vertices": [2], "part": "first"}]}],'
                     ' "alpha": {"1": "5", "1": "9", "2": "3"}, "beta": {}, "mu": {"1,2": "7"}}'),
    ("verify --matrix", '{"n": 2, "vertices": ["1", "1"],'
                        ' "edges": [{"i": 1, "j": 2, "a": "5", "b": "1", "c": "1", "d": "0", "a": "0"}]}'),
    ("signature --config", '{"n": 2, "nations": [{"counties": [{"vertices": [1], "part": "second",'
                           ' "vertices": [1, 2], "part": "first"}]}]}'),
], ids=["germ-table", "matrix-edge", "configuration-county"])
def test_repeated_json_keys_exit_2(capsys, tmp_path, command, text):
    # json.load alone keeps the last value of a repeated key
    path = tmp_path / "input.json"
    path.write_text(text, encoding="ascii")
    rc, out = run(capsys, *command.split(), str(path))
    assert rc == 2
    assert "repeated key" in json.loads(out)["error"]


@pytest.mark.parametrize("command, data, error", [
    ("build --germ", dict(TWO_LETTER_NATIONS, Alpha={"1": "5", "2": "3"}, Mu={"1,2": "7"}),
     "germ: unknown key 'Alpha'"),
    ("verify --matrix", {"n": 2, "vertices": ["1", "1"], "colour": "red",
                         "edges": [dict(SWAP_EDGE, e="9")]}, "matrix: unknown key 'colour'"),
    ("verify --matrix", {"n": 2, "vertices": ["1", "1"], "edges": [dict(SWAP_EDGE, e="9")]},
     "matrix.edges[0]: unknown key 'e'"),
], ids=["germ-tables", "matrix-top-level", "matrix-edge"])
def test_unknown_keys_exit_2(capsys, tmp_path, command, data, error):
    # misspelt tables once built at a generic point, and stray matrix keys
    # once verified as a solution, both with exit 0
    rc, out = run(capsys, *command.split(), write(tmp_path, "input.json", data))
    assert (rc, out) == (2, canonical({"error": error}) + "\n")


def _county(vertices, part="first"):
    return {"vertices": vertices, "part": part}


TWO_LETTER_GERM = dict(TWO_LETTER_NATIONS, alpha={"1": "5", "2": "3"}, beta={}, mu={"1,2": "7"})
SWAP_MATRIX = {"n": 2, "vertices": ["1", "1"], "edges": [SWAP_EDGE]}

# One row per message a reader raises about record contents (schema errors
# are `scalars.read`'s): the input kind, the file, and its exact error.
# Rows with two faults pin which check runs first.
REJECTIONS = {
    "negative-n": ("configuration", {"n": -1, "nations": [{"counties": [_county([1])]}]},
                   "n must be nonnegative, got -1"),
    "empty-nation": ("configuration", {"n": 1, "nations": [{"counties": [_county([1])]},
                                                           {"counties": []}]},
                     "nation with no counties"),
    "bad-part-tag": ("configuration", {"n": 2, "nations": [{"counties": [
        _county([1]), _county([2], "third")]}]}, "bad part tag 'third'"),
    "unsorted-county": ("configuration", {"n": 2, "nations": [{"counties": [_county([2, 1])]}]},
                        "county vertices must be sorted, nonempty: "
                        "County(vertices=(2, 1), part='first')"),
    "empty-county": ("configuration", {"n": 1, "nations": [{"counties": [
        _county([1]), _county([], "second")]}]},
                     "county vertices must be sorted, nonempty: County(vertices=(), part='second')"),
    "not-a-partition": ("configuration", {"n": 3, "nations": [{"counties": [_county([1, 2])]}]},
                        "counties must partition 1..3"),
    "repeated-vertex": ("configuration", {"n": 2, "nations": [{"counties": [_county([1])]},
                                                              {"counties": [_county([1])]}]},
                        "counties must partition 1..2"),
    "tag-before-order": ("configuration", {"n": 2, "nations": [{"counties": [
        _county([2, 1], "third")]}]}, "bad part tag 'third'"),
    "nation-before-partition": ("configuration", {"n": 5, "nations": [{"counties": []}]},
                                "nation with no counties"),
    "repeated-edge": ("matrix", dict(SWAP_MATRIX, edges=[SWAP_EDGE, SWAP_EDGE]),
                      "matrix.edges: an edge pair is given twice"),
    "vertex-count": ("matrix", dict(SWAP_MATRIX, vertices=["1"]), "vertex count mismatch"),
    "missing-edge": ("matrix", dict(SWAP_MATRIX, edges=[]),
                     "edge set must be exactly {(i,j): i<j}"),
    "reversed-edge": ("matrix", dict(SWAP_MATRIX, edges=[dict(SWAP_EDGE, i=2, j=1)]),
                      "edge set must be exactly {(i,j): i<j}"),
    "repeat-before-count": ("matrix", dict(SWAP_MATRIX, vertices=["1"], edges=[SWAP_EDGE] * 2),
                            "matrix.edges: an edge pair is given twice"),
    "count-before-edges": ("matrix", dict(SWAP_MATRIX, vertices=["1"], edges=[]),
                           "vertex count mismatch"),
    "zero-mu": ("germ", dict(TWO_LETTER_GERM, mu={"1,2": "0"}), "mu[(1, 2)] must be nonzero"),
    "zero-alpha": ("germ", dict(TWO_LETTER_GERM, alpha={"1": "0", "2": "3"}),
                   "alpha[1] must be nonzero"),
    "zero-beta": ("germ", dict(TWO_LETTER_GERM, beta={"2": "0"}), "beta[2] must be nonzero"),
    "zero-mu-sq": ("germ", dict(TWO_LETTER_GERM, mu={}, mu_sq={"1,2": "0"}),
                   "mu_sq[(1, 2)] must be nonzero"),
    "mu-overlap": ("germ", dict(TWO_LETTER_GERM, mu_sq={"1,2": "2"}),
                   "mu and mu_sq keys must be disjoint"),
    "alpha-plus-beta": ("germ", dict(TWO_LETTER_GERM, beta={"1": "-5"}),
                        "alpha[1] + beta[1] must be nonzero"),
    "alpha-coverage": ("germ", dict(TWO_LETTER_GERM, alpha={"1": "5"}),
                       "alpha must cover every nation"),
    "beta-coverage": ("germ", dict(TWO_LETTER_GERM, beta={"1": "2"}),
                      "beta must cover exactly the nations with >= 2 counties or a second county"),
    "mu-coverage": ("germ", dict(TWO_LETTER_GERM, mu={}), "mu must cover every nation pair"),
    "config-before-params": ("germ", dict(TWO_LETTER_GERM, n=3, mu={"1,2": "0"}),
                             "counties must partition 1..3"),
    "params-before-coverage": ("germ", dict(TWO_LETTER_GERM, alpha={"1": "0"}),
                               "alpha[1] must be nonzero"),
}
REJECTING_COMMANDS = {
    "configuration": ["build --germ", "signature --config", "orbit --config"],
    "matrix": ["verify --matrix", "classify --matrix"],
    "germ": ["build --germ", "signature --germ"],
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_reader_rejections_are_pinned(capsys, tmp_path, case):
    kind, data, error = REJECTIONS[case]
    path = write(tmp_path, "input.json", data)
    for command in REJECTING_COMMANDS[kind]:
        rc = main([*command.split(), path])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, canonical({"error": error}) + "\n", "")


def _valid_inputs():
    """Valid germ, matrix and configuration files on up to three letters."""
    files = {"germ": [], "matrix": [], "configuration": []}
    for config in enumerate_transversal(3)[::2]:
        point = generic_point(config, seed=3)
        germ = Germ(config, point)
        files["germ"].append(germ_to_json(germ))
        slash = ParamPoint(mu_sq=point.mu, alpha=point.alpha, beta=point.beta)
        files["germ"].append(germ_to_json(Germ(config, slash)))
        files["matrix"].append(matrix_to_json(rec(germ)))
        files["configuration"].append(configuration_to_json(config))
    return files


VALID_INPUTS = _valid_inputs()
READERS = {
    "germ": ["build --germ", "signature --germ"],
    "matrix": ["verify --matrix", "classify --matrix"],
    "configuration": ["build --germ", "signature --config", "orbit --config"],
}


def _draw_site(data, tree):
    """A (container, key) pair of a JSON tree, drawn by a walk from the root
    that stops at each level with even odds."""
    node = tree
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            return node, key
        node = child


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_input_files_exit_2(capsys, tmp_path, data):
    kind = data.draw(st.sampled_from(sorted(READERS)))
    tree = copy.deepcopy(data.draw(st.sampled_from(VALID_INPUTS[kind])))
    container, key = _draw_site(data, tree)
    # leaving out an empty parameter table gives the same germ
    edits = ["retype", "wrap"]
    if isinstance(container, dict):
        edits += ["rename"] + (["drop"] if container[key] != {} else [])
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop":
        del container[key]
    elif edit == "rename":
        container[f"{key}_"] = container.pop(key)
    elif edit == "retype":
        container[key] = data.draw(st.sampled_from([None, True, 1.5]))
    else:
        container[key] = [container[key]]
    path = write(tmp_path, "mutated.json", tree)
    for command in READERS[kind]:
        rc = main([*command.split(), path])
        captured = capsys.readouterr()
        assert rc == 2, (command, captured.out)
        assert set(json.loads(captured.out)) == {"error"}
        assert captured.out.count("\n") == 1 and captured.err == ""


def test_enumerate_rejects_n_over_the_bound(capsys):
    # T_11 would take minutes and the word list grows as 3^(n-1)
    rc, out = run(capsys, "enumerate", "--n", "11")
    assert rc == 2
    assert "at most 10" in json.loads(out)["error"]


def test_orbit_rejects_n_over_the_bound(capsys, tmp_path):
    # the scan visits all n! relabellings; like the other limits, exit 2
    config = {"n": 9, "nations": [{"counties": [{"vertices": list(range(1, 10)), "part": "first"}]}]}
    rc, out = run(capsys, "orbit", "--config", write(tmp_path, "config.json", config))
    assert (rc, out) == (2, canonical({"error": "orbit needs n at most 8, got 9"}) + "\n")


@pytest.mark.parametrize("command", ["signature --config", "orbit --config", "build --germ"])
def test_negative_n_exits_2(capsys, tmp_path, command):
    path = write(tmp_path, "config.json", {"n": -2, "nations": []})
    rc = main([*command.split(), path])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, canonical({"error": "n must be nonnegative, got -2"}) + "\n", ""
    )


@pytest.mark.parametrize("command", ["signature --config", "orbit --config", "build --germ", "signature --germ"])
def test_huge_n_exits_2_before_allocating(capsys, tmp_path, command):
    # n is compared with the number of listed vertices before 1..n is built
    n = 10**30
    path = write(tmp_path, "config.json", {"n": n, "nations": []})
    rc = main([*command.split(), path])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, canonical({"error": f"counties must partition 1..{n}"}) + "\n", ""
    )


@pytest.mark.parametrize("argv", ["fibre --prime 23", "fibre --type /,/,/ --prime 10007"])
def test_fibre_rejects_prime_over_the_bound(capsys, argv):
    # the all-slash fibre has (p - 1)^6 vectors: 23 would take minutes
    rc, out = run(capsys, *argv.split())
    assert (rc, json.loads(out)) == (2, {"error": f"--prime must be at most 19, got {argv.split()[-1]}"})


@pytest.mark.parametrize("argv", [
    "fibre --type -,0,0",  # "-,0,0" reads as an option, so --type has no value
    "frobnicate",
    "verify",
    "fibre --prime x",
    "fibre --prime 5 --jobs 2",  # the report runs in one process; there is no --jobs
    "fibre --type= --prime 3",  # an empty type is a bad type, not a request for the full report
])
def test_usage_errors_are_json_errors(capsys, argv):
    rc = main(argv.split())
    captured = capsys.readouterr()
    assert rc == 2
    assert set(json.loads(captured.out)) == {"error"}
    assert captured.err == ""


COMMANDS = "'enumerate', 'build', 'verify', 'classify', 'signature', 'orbit', 'fibre', 'selftest'"
METHODS = "'direct', 'constraints', 'subsets', 'all'"
T_2_TEXT = "1: 12\n2: 1 2\n3: 1 2'\n4: 1 | 2\nT_2 = 4\n"
# A row whose output is the help of the command line given.
HELP_OF = "help of"

# The usage contract: each command line, split at single spaces, and its exit
# code and stdout; a string is a JSON error with exit 2. A value follows its
# option after a space or an "=", the last value given wins, and a value
# after a space may not look like an option unless it is a negative number.
# Errors are raised in the order argparse raises them: a bad option at once,
# then a missing required option, then the words left unread.
USAGE_ROWS = {
    "": "match-ybo: the following arguments are required: command",
    "-x": "match-ybo: the following arguments are required: command",
    "frobnicate": f"match-ybo: argument command: invalid choice: 'frobnicate' (choose from {COMMANDS})",
    # an option before the command is a stray word, and its value is read as the command
    "--prime 5 fibre": f"match-ybo: argument command: invalid choice: '5' (choose from {COMMANDS})",
    "-x enumerate --n 2 --y": "match-ybo: unrecognized arguments: -x --y",
    "verify": "match-ybo verify: the following arguments are required: --matrix",
    "enumerate -n 3": "match-ybo enumerate: the following arguments are required: --n",
    "enumerate -- --n 2": "match-ybo enumerate: the following arguments are required: --n",
    "enumerate --n": "match-ybo enumerate: argument --n: expected one argument",
    "enumerate --n --3": "match-ybo enumerate: argument --n: expected one argument",
    "fibre --type -,0,0": "match-ybo fibre: argument --type: expected one argument",
    "fibre --type --prime 3": "match-ybo fibre: argument --type: expected one argument",
    "fibre --prime x": "match-ybo fibre: argument --prime: invalid int value: 'x'",
    "enumerate --n= 3": "match-ybo enumerate: argument --n: invalid int value: ''",
    "enumerate --n x --n 3": "match-ybo enumerate: argument --n: invalid int value: 'x'",
    "enumerate --n -1": "n must be nonnegative",  # a negative number is a value
    "enumerate --n 3 --format xml":
        "match-ybo enumerate: argument --format: invalid choice: 'xml' (choose from 'json', 'text')",
    "verify --matrix m --method bogus":
        f"match-ybo verify: argument --method: invalid choice: 'bogus' (choose from {METHODS})",
    "verify --matrix m --method all --method bogus":
        f"match-ybo verify: argument --method: invalid choice: 'bogus' (choose from {METHODS})",
    "selftest --level slow":
        "match-ybo selftest: argument --level: invalid choice: 'slow' (choose from 'quick', 'full')",
    "fibre --prime 5 --jobs 2": "match-ybo: unrecognized arguments: --jobs 2",
    "enumerate --n 3 extra": "match-ybo: unrecognized arguments: extra",
    "enumerate --n 2 -1": "match-ybo: unrecognized arguments: -1",
    "fibre -- --type": "match-ybo: unrecognized arguments: -- --type",
    "orbit --flip=1": "match-ybo orbit: argument --flip: ignored explicit argument '1'",
    "enumerate --n 2 --help=x":
        "match-ybo enumerate: argument -h/--help: ignored explicit argument 'x'",
    "signature --germ a --config b":
        "match-ybo signature: argument --config: not allowed with argument --germ",
    "signature --config b --germ a":
        "match-ybo signature: argument --germ: not allowed with argument --config",
    "signature": "match-ybo signature: one of the arguments --germ --config is required",
    "fibre --type=": "bad fibre type ('',)",
    "signature --germ=": "[Errno 2] No such file or directory: ''",
    "enumerate --n x -h": "match-ybo enumerate: argument --n: invalid int value: 'x'",
    "enumerate --n 3 --n 4 --format text --n 2": (0, T_2_TEXT),
    "enumerate --n=2 --format=text": (0, T_2_TEXT),
    "enumerate --n 3 -h --bogus": (HELP_OF, "enumerate"),
    "--help x": (HELP_OF, ""),
    # a prefix of an option name is a stray word, not the option
    "fibre --pri 3": "match-ybo: unrecognized arguments: --pri 3",
    "verify --m x": "match-ybo verify: the following arguments are required: --matrix",
}


def _main_or_help(capsys, argv):
    """(exit code, stdout) of `main(argv)`; help gives (HELP_OF, stdout)."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 0
        rc = HELP_OF
    captured = capsys.readouterr()
    assert captured.err == ""
    return rc, captured.out


@pytest.mark.parametrize("line", USAGE_ROWS)
def test_usage_contract_is_pinned(capsys, line):
    want = USAGE_ROWS[line]
    if isinstance(want, str):
        want = (2, canonical({"error": want}) + "\n")
    elif want[0] == HELP_OF:
        want = _main_or_help(capsys, [*want[1].split(), "--help"])
    assert _main_or_help(capsys, line.split(" ") if line else []) == want


# What the help of each command, and of the CLI (""), names: every option or
# command, and the bounds of the options that have one.
HELP_NAMES = {
    "": ["-h", "enumerate", "build", "verify", "classify", "signature", "orbit", "fibre",
         "selftest"],
    "enumerate": ["-h, --help", "--n N", "0..10", "--format {json,text}"],
    "build": ["-h, --help", "--germ GERM", "--seed SEED"],
    "verify": ["-h, --help", "--matrix MATRIX", "--method {direct,constraints,subsets,all}"],
    "classify": ["-h, --help", "--matrix MATRIX"],
    "signature": ["-h, --help", "--germ GERM", "--config CONFIG"],
    "orbit": ["-h, --help", "--config CONFIG", "n <= 8", "--flip"],
    "fibre": ["-h, --help", "--type TYPE", "--type=-,+,+", "--prime PRIME", "3..19"],
    "selftest": ["-h, --help", "--level {quick,full}"],
}


@pytest.mark.parametrize("command", HELP_NAMES)
def test_help_names_every_option(capsys, command):
    argv = [*command.split(), "--help"]
    rc, out = _main_or_help(capsys, argv)
    proc = cli_process(*argv, capture_output=True, text=True)
    assert (rc, proc.returncode, proc.stdout, proc.stderr) == (HELP_OF, 0, out, "")
    assert proc.stdout.startswith(" ".join(["usage: match-ybo", *command.split(), "[-h]"]))
    assert [name for name in HELP_NAMES[command] if name not in proc.stdout] == []


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fibre", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: match-ybo fibre")
    assert "3..19" in out  # the --prime bound
    proc = cli_process("fibre", "--help", capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: match-ybo fibre")


@pytest.mark.parametrize("nations", [
    [{"counties": [{"vertices": [1], "part": "second"}]}],
    [{"counties": [{"vertices": [1, 2], "part": "first"}]},
     {"counties": [{"vertices": [3], "part": "second"}]}],
], ids=["one-nation", "two-nations"])
def test_build_draws_beta_for_a_lone_second_county(capsys, tmp_path, nations):
    # a nation whose only county is tagged "second" needs a beta too
    config = {"n": sum(len(c["vertices"]) for nat in nations for c in nat["counties"]),
              "nations": nations}
    rc, out = run(capsys, "build", "--germ", write(tmp_path, "config.json", config))
    assert rc == 0
    rc, out = run(capsys, "verify", "--matrix", write(tmp_path, "m.json", json.loads(out)))
    assert (rc, json.loads(out)["solution"]) == (0, True)


def test_signature_config(capsys, tmp_path):
    config = enumerate_transversal(3)[1]
    path = write(tmp_path, "config.json", configuration_to_json(config))
    rc, out = run(capsys, "signature", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert sum(data["formula"]) == 9
    assert data["notation"].startswith("(")


def test_signature_germ(capsys, tmp_path):
    path, _ = germ_file(tmp_path)
    rc, out = run(capsys, "signature", "--germ", path)
    assert rc == 0
    data = json.loads(out)
    assert data["matches"] is True
    assert data["sampled"] == data["formula"]


def test_orbit(capsys, tmp_path):
    config = enumerate_transversal(3)[1]
    path = write(tmp_path, "config.json", configuration_to_json(config))
    rc, out = run(capsys, "orbit", "--config", path)
    assert rc == 0
    data = json.loads(out)
    assert data["flip"] is False
    assert data["size"] == len(data["elements"]) > 0
    rc, out2 = run(capsys, "orbit", "--config", path, "--flip")
    data2 = json.loads(out2)
    assert data2["flip"] is True
    assert data2["size"] >= data["size"]


def test_fibre_single(capsys):
    rc, out = run(capsys, "fibre", "--type", "0,0,0", "--prime", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["solutions"] == 4
    assert data["matches_family"] is True


def test_fibre_type_starting_with_minus(capsys):
    # after a space "-,+,+" reads as an option; "=" attaches it
    rc, out = run(capsys, "fibre", "--type=-,+,+", "--prime", "5")
    assert rc == 0
    assert json.loads(out) == {"type": "-,+,+", "prime": 5, "solutions": 36, "matches_family": True}


# sha256 of the full report's stdout; the pinned call pool runs only single
# fibres. At p = 11 and 13 the all-slash fibre is most of the report, and
# check_vector accepts its vectors on their zero diagonals alone.
FIBRE_REPORT_SHA256 = {
    3: "e339e6445ec3f684cafbde587bb4b91ebc0e9e2f70405356bd46de931f20a975",
    5: "473bdd2421a6e6c43b4eacd64b638d18d0d24ca76634d25af6a77b8cbd51299e",
    7: "5d1490e6041e6acf5afcbcdeaaaefee11e49e3ff2882e53dc74b52a74be22b27",
    11: "b2fe0071b61f65d7b62c01da865f3bac54bc06759d914a8e1660fe9b113b5979",
    13: "bcd16a726e2116ebaa9dc30d2d99799ee16892311a2d480f73e17c8fec307297",
}


def test_fibre_report(capsys):
    for prime, digest in FIBRE_REPORT_SHA256.items():
        rc, out = run(capsys, "fibre", "--prime", str(prime))
        assert (rc, hashlib.sha256(out.encode("ascii")).hexdigest()) == (0, digest)


# sha256 of the (exit code, stdout) sequence of every single-fibre call over
# the 512 triples of the 8 type tokens, at p = 3 and then p = 5: the f/a
# refinements, which the pools below never request.
FIBRE_TYPES_SHA256 = "8638b29c080050a9ca8e936ea739e2b7542a33601f3bc83ed88a1480f05e42a6"


def test_fibre_type_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for prime in ("3", "5"):
        for ftype in product(("0", "/", "+", "-", "f+", "a+", "f-", "a-"), repeat=3):
            rc, out = run(capsys, "fibre", f"--type={','.join(ftype)}", "--prime", prime)
            digest.update(f"{rc}\n{out}".encode("ascii"))
    assert digest.hexdigest() == FIBRE_TYPES_SHA256


@pytest.mark.parametrize("prime", ["1", "4", "6", "8", "15"])
def test_fibre_rejects_composite_prime(capsys, prime):
    # an even composite is caught only if trial division starts at 2
    rc, out = run(capsys, "fibre", "--prime", prime)
    assert (rc, out) == (2, canonical({"error": f"{prime} is not prime"}) + "\n")


def test_fibre_rejects_bad_prime(capsys):
    rc, out = run(capsys, "fibre", "--type", "0,0,0", "--prime", "2")
    assert rc == 2
    rc, out = run(capsys, "fibre", "--type", "0,0,0", "--prime", "9")
    assert rc == 2
    # the full report has no check of its own: its first scan rejects the prime
    rc, out = run(capsys, "fibre", "--prime", "9")
    assert (rc, out) == (2, canonical({"error": "9 is not prime"}) + "\n")
    rc, out = run(capsys, "fibre", "--prime", "2")
    assert (rc, out) == (2, canonical({"error": "p = 2 degenerates the sign structure"}) + "\n")


def test_selftest_quick(capsys):
    rc, out = run(capsys, "selftest", "--level", "quick")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)


# sha256 of the (exit code, stdout) sequence of the pool below: every T_N
# configuration with N <= 4 through build, classify and verify (on its
# matrix and on a one-entry corruption) and signature, orbit --flip for
# N <= 3, and one fibre per default type at p = 5.
CLI_POOL_SHA256 = "bda4aed385c776bcc627607c5e55fcb2c992ecc3500dcac8d8b971395274414d"


def test_cli_pool_bytes_are_pinned(capsys, tmp_path):
    digest = hashlib.sha256()

    def call(*argv):
        rc, out = run(capsys, *argv)
        digest.update(f"{rc}\n{out}".encode("ascii"))
        return out

    configs = [c for n in range(1, 5) for c in enumerate_transversal(n)]
    for k, config in enumerate(configs):
        cpath = write(tmp_path, f"c{k}.json", configuration_to_json(config))
        built = call("build", "--germ", cpath)
        corrupt = json.loads(built)
        if corrupt["edges"]:
            corrupt["edges"][0]["b"] = str(Fraction(corrupt["edges"][0]["b"]) + 1)
        else:
            corrupt["vertices"][0] = str(Fraction(corrupt["vertices"][0]) + 1)
        for label, data in (("m", json.loads(built)), ("x", corrupt)):
            mpath = write(tmp_path, f"{label}{k}.json", data)
            call("classify", "--matrix", mpath)
            call("verify", "--method", "all", "--matrix", mpath)
        call("signature", "--config", cpath)
        if config.n <= 3:
            call("orbit", "--flip", "--config", cpath)
    for ftype in default_types():
        call("fibre", f"--type={','.join(ftype)}", "--prime", "5")
    assert digest.hexdigest() == CLI_POOL_SHA256


# sha256 of the (exit code, stdout) sequence of the pool below, which reaches
# what the pool above does not: each verify method alone, on the one-entry
# corruptions of that pool and on random rational matrices; classify on
# random matrices, many of them invertible with an inadmissible block; and
# signature --germ on germs whose mu_sq products are mostly not squares.
VERDICT_POOL_SHA256 = "9dd86eab93793aeac79ac334bac5c9a45c6f6194c8c075ca42b8df8c80a9419d"


def test_verdict_pool_bytes_are_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    outs = []

    def call(*argv):
        rc, out = run(capsys, *argv)
        digest.update(f"{rc}\n{out}".encode("ascii"))
        outs.append((rc, out))

    rng = random.Random(17)
    values = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, "1/2", "-3/2")]
    matrices = []
    for config in [c for n in range(1, 5) for c in enumerate_transversal(n)]:
        m = matrix_to_json(rec(Germ(config, generic_point(config))))
        if m["edges"]:
            m["edges"][0]["b"] = str(Fraction(m["edges"][0]["b"]) + 1)
        else:
            m["vertices"][0] = str(Fraction(m["vertices"][0]) + 1)
        matrices.append(m)
    for n in range(1, 6):
        for _ in range(6):
            vs = [rng.choice(values) for _ in range(n)]
            es = {(i, j): [rng.choice(values) for _ in range(4)]
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            matrices.append(matrix_to_json(matrix(vs, es)))
    for k, data in enumerate(matrices):
        mpath = write(tmp_path, f"m{k}.json", data)
        for method in ("direct", "constraints", "subsets", "all"):
            call("verify", "--method", method, "--matrix", mpath)
    nonzero = [v for v in values if v != 0]
    for n in range(2, 6):
        for k in range(8):
            vs = [rng.choice(nonzero) for _ in range(n)]
            es = {(i, j): [rng.choice(nonzero) if rng.random() < 0.8 else 0 for _ in range(4)]
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            mpath = write(tmp_path, f"c{n}_{k}.json", matrix_to_json(matrix(vs, es)))
            call("classify", "--matrix", mpath)
    products = [Fraction(v) for v in (2, -1, 3, "2/3", -4, 4, "9/4")]
    for config in [c for n in range(2, 5) for c in enumerate_transversal(n)]:
        pp = generic_point(config)
        if not pp.mu:
            continue
        mu_sq = {pair: rng.choice(products) for pair in pp.mu}
        germ = Germ(config, pp._replace(mu={}, mu_sq=mu_sq))
        call("signature", "--germ", write(tmp_path, "g.json", germ_to_json(germ)))
    assert sum('"relation"' in out for _, out in outs) >= 50
    assert sum("not labellable" in out for _, out in outs) >= 10
    assert sum(rc == 1 and '"sampled":null' in out for rc, out in outs) >= 10
    assert digest.hexdigest() == VERDICT_POOL_SHA256
