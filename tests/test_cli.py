import json

import pytest

from match_ybo.cli import main
from match_ybo.diagrams import configuration_to_json, enumerate_transversal
from match_ybo.matchcat import matrix_to_json
from match_ybo.recipe import Germ, generic_point, germ_to_json, rec

from matchcat_oracles import matrix


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("MATCH_YBO_SEED", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


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


def test_build_from_config_is_seeded(capsys, tmp_path, monkeypatch):
    config = enumerate_transversal(3)[2]
    path = write(tmp_path, "config.json", configuration_to_json(config))
    rc, out0 = run(capsys, "build", "--germ", path)
    assert rc == 0
    rc, again = run(capsys, "build", "--germ", path, "--seed", "0")
    assert again == out0
    rc, other = run(capsys, "build", "--germ", path, "--seed", "5")
    assert other != out0
    monkeypatch.setenv("MATCH_YBO_SEED", "5")
    rc, via_env = run(capsys, "build", "--germ", path)
    assert via_env == other
    # explicit flag beats the environment
    rc, flagged = run(capsys, "build", "--germ", path, "--seed", "0")
    assert flagged == out0


def test_build_rejects_bad_seed_env(capsys, tmp_path, monkeypatch):
    config = enumerate_transversal(2)[0]
    path = write(tmp_path, "config.json", configuration_to_json(config))
    monkeypatch.setenv("MATCH_YBO_SEED", "zebra")
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "error" in json.loads(out)


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


def test_boolean_scalar_exits_2(capsys, tmp_path):
    path = write(tmp_path, "bool.json", {"n": 1, "vertices": [True], "edges": []})
    rc, out = run(capsys, "verify", "--matrix", path)
    assert rc == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("data", [5, None, "alpha", [1]])
def test_build_germ_non_object_exits_2(capsys, tmp_path, data):
    path = write(tmp_path, "germ.json", data)
    rc, out = run(capsys, "build", "--germ", path)
    assert rc == 2
    assert "error" in json.loads(out)


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


def test_enumerate_rejects_n_over_the_bound(capsys):
    # T_11 would take minutes and the word list grows as 3^(n-1)
    rc, out = run(capsys, "enumerate", "--n", "11")
    assert rc == 2
    assert "at most 10" in json.loads(out)["error"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fibre_rejects_jobs_below_one(capsys, jobs):
    rc, out = run(capsys, "fibre", "--prime", "5", "--jobs", jobs)
    assert rc == 2
    assert "error" in json.loads(out)


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
    # argparse takes "-,+,+" after a space for an option; "=" attaches it
    rc, out = run(capsys, "fibre", "--type=-,+,+", "--prime", "5")
    assert rc == 0
    assert json.loads(out) == {"type": "-,+,+", "prime": 5, "solutions": 36, "matches_family": True}


def test_fibre_report(capsys):
    rc, out = run(capsys, "fibre", "--prime", "5")
    assert rc == 0
    data = json.loads(out)
    assert len(data) == 13
    assert all({"type", "prime", "solutions", "matches_family"} <= set(r) for r in data)


def test_fibre_rejects_bad_prime(capsys):
    rc, out = run(capsys, "fibre", "--type", "0,0,0", "--prime", "2")
    assert rc == 2
    rc, out = run(capsys, "fibre", "--type", "0,0,0", "--prime", "9")
    assert rc == 2


def test_selftest_quick(capsys):
    rc, out = run(capsys, "selftest", "--level", "quick")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)
