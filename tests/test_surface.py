"""The library surface: the modules, nothing the library itself never uses,
and nothing a CLI process loads before a command needs it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import match_ybo
from match_ybo.diagrams import configuration_to_json, enumerate_transversal
from match_ybo.matchcat import matrix_to_json
from match_ybo.recipe import Germ, generic_point, rec

SRC = Path(match_ybo.__file__).parent
TESTS = Path(__file__).parent

# The paper's stated results: kept in the library although only tests call them.
STATED_RESULTS = {"canonicalize", "six_rule_check"}


def test_package_root_binds_only_the_version_and_classify():
    names = {
        name for name, value in vars(match_ybo).items()
        if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")
    }
    assert names == {"__version__", "classify"}


def _uses(tree, skip):
    """Names read in `tree` as bare names or attributes, outside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_definition_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in STATED_RESULTS:
                continue
            if not any(node.name in _uses(t, node) for t in trees.values()):
                unused.append(f"{name}:{node.name}")
    assert unused == []


def _bound_names(node):
    """The names an import statement binds, except `from __future__` features."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def test_no_module_imports_a_private_name_of_another():
    # a name that another module needs is public: `from .m import _x` fails
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "match_ybo":
                private += [
                    f"{path.name}:{node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    assert private == []


def test_every_import_is_read():
    # perfbench reads `match_ybo.classify` off the package root (ROADMAP item 1)
    exempt = {(SRC / "__init__.py", "classify")}
    unread = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = _uses(tree, None)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _bound_names(node):
                    if name not in read and (path, name) not in exempt:
                        unread.append(f"{path.name}:{name}")
    assert unread == []


# Every library module, and stdlib modules the library never needs: the CLI
# reads its command line without argparse, and so without gettext or locale.
WATCHED = ["argparse", "dataclasses", "gettext", "inspect", "locale"] + [
    f"match_ybo.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
]
# What `import match_ybo.cli` loads, and all that every verify method needs.
CLI_CORE = [
    f"match_ybo.{name}" for name in ("classify", "cli", "errors", "matchcat", "scalars", "ybe")
]

# In one fresh interpreter: which of the modules named in argv[1] are loaded
# after importing the CLI, then after each command (a JSON list of argv lists).
LOADED_AFTER_EACH_STEP = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in watched if m in sys.modules)
import match_ybo.cli
steps = [["import", loaded()]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = match_ybo.cli.main(argv)
    steps.append([argv[0], rc, loaded()])
print(json.dumps(steps))
"""


def _loaded_after_each_step(commands):
    path_entries = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_EACH_STEP, json.dumps(WATCHED), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_cli_imports_only_what_its_command_runs(tmp_path):
    # A command sees the modules an earlier one loaded, so verify/classify,
    # fibre and the other commands each get their own interpreter.
    config = enumerate_transversal(4)[3]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(rec(Germ(config, generic_point(config))))))
    methods = ("direct", "constraints", "subsets", "all")
    assert _loaded_after_each_step([
        *(["verify", "--method", method, "--matrix", str(path)] for method in methods),
        ["classify", "--matrix", str(path)],
    ]) == [
        ["import", CLI_CORE],
        *(["verify", 0, CLI_CORE] for _ in methods),
        ["classify", 0, sorted([*CLI_CORE, "match_ybo.diagrams", "match_ybo.recipe"])],
    ]
    fibre = sorted([*CLI_CORE, "match_ybo.oracle"])
    assert _loaded_after_each_step([
        ["fibre", "--type=0,+,+", "--prime", "3"],
        ["fibre", "--prime", "3"],
    ]) == [["import", CLI_CORE], ["fibre", 0, fibre], ["fibre", 0, fibre]]
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(configuration_to_json(config)))
    diagrams = sorted([*CLI_CORE, "match_ybo.diagrams"])
    recipe = sorted([*diagrams, "match_ybo.recipe"])
    assert _loaded_after_each_step([
        ["enumerate", "--n", "2"],
        ["orbit", "--config", str(config_path)],
        ["build", "--germ", str(config_path)],
        ["signature", "--config", str(config_path)],
        ["selftest", "--level", "quick"],
    ]) == [
        ["import", CLI_CORE], ["enumerate", 0, diagrams], ["orbit", 0, diagrams],
        ["build", 0, recipe], ["signature", 0, sorted([*recipe, "match_ybo.signature"])],
        ["selftest", 0, [m for m in WATCHED if m.startswith("match_ybo.")]],
    ]


# Records are named tuples, every command runs in one process, and options
# are the only settings: the library imports none of these modules and reads
# no environment variable.
NEVER_IMPORTED = {"dataclasses", "enum", "concurrent", "multiprocessing", "subprocess", "threading"}
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_dataclasses_in_the_library():
    imported, env_reads = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
                env_reads += [f"{path.name}:{alias.name}" for alias in node.names
                              if alias.name in ENVIRONMENT_READERS]
            elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
                env_reads.append(f"{path.name}:{node.attr}")
    assert imported & NEVER_IMPORTED == set()
    assert env_reads == []


# Builtins that run code built at run time. An attribute of the same name,
# such as `re.compile`, is another function and stays allowed.
CODE_RUNNERS = {"exec", "eval", "compile"}


def test_the_library_runs_only_the_code_it_shows():
    # the census checkers are generated, but checked in as plain code: no
    # module names a builtin that runs a string, let alone calls it
    named = []
    for path in sorted(SRC.glob("*.py")):
        named += [f"{path.name}:{node.lineno}:{node.id}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and node.id in CODE_RUNNERS]
    assert named == []


def test_no_class_defines_value_dunders():
    # records are `typing.NamedTuple`s: value equality, hash and repr come
    # with them, and they check nothing, since the readers of outside input
    # hold every check
    defined, namedtuple_calls = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined += [
                    f"{path.name}:{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name in {"__eq__", "__hash__", "__repr__", "__init__", "__new__"}
                ]
            elif isinstance(node, ast.Call) and "namedtuple" in _uses(node.func, None):
                namedtuple_calls.append(f"{path.name}:{node.lineno}")
    assert defined == []
    assert namedtuple_calls == []


def test_json_readers_leave_schema_checks_to_read():
    # `scalars.read` is the one schema check: a `*_from_json` function holds
    # no `try` statement and no `isinstance` call of its own
    readers, checks = [], []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")):
                continue
            readers.append(fn.name)
            for node in ast.walk(fn):
                is_isinstance = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                 and node.func.id == "isinstance")
                if isinstance(node, ast.Try) or is_isinstance:
                    checks.append(f"{path.name}:{fn.name}:{node.lineno}")
    assert sorted(readers) == ["configuration_from_json", "germ_from_json", "matrix_from_json"]
    assert checks == []


def test_no_handler_translates_one_library_error_into_another():
    # each verdict is raised once, where it is reached: a handler may re-raise
    # the class it caught with a path added, but not turn it into another one
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}

    def named(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    translated = []
    for path in sorted(SRC.glob("*.py")):
        for handler in ast.walk(ast.parse(path.read_text())):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught = {named(t) for t in types} & errors
            for node in ast.walk(handler):
                if caught and isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if named(exc) in errors - caught:
                        translated.append(f"{path.name}:{node.lineno}")
    assert translated == []
