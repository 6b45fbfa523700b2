import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tools, and the benchmark, whose child scripts run cnx in a fresh process
SCRIPTS = sorted([*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def _programs(tree: ast.AST):
    """The tree, and every string constant in it that parses as a program:
    the scripts a tool runs in a child interpreter."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _cnx_imports(path: Path):
    """(module, name or None) for each cnx import in the script's code and in
    the child scripts it holds as strings."""
    for program in _programs(ast.parse(path.read_text())):
        for node in ast.walk(program):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cnx":
                yield from ((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "cnx")


def _exists(module: str, name: str | None) -> bool:
    """The module can be imported and, given a name, holds it or is a
    package with a submodule of that name."""
    mod = importlib.import_module(module)
    return (name is None or hasattr(mod, name) or hasattr(mod, "__path__")
            and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_cnx_import_in_the_tools_exists():
    # the files are only read: a rename in cnx that would break a tool or
    # the benchmark fails here first
    seen = set()
    for path in SCRIPTS:
        script = path.relative_to(ROOT).as_posix()
        for module, name in _cnx_imports(path):
            seen.add((script, module, name))
            assert _exists(module, name), (script, module, name)
    # the child scripts are read too: bench_schemes.py's COND_CHILD
    assert ("tools/bench_schemes.py", "cnx.harness", "thesis_instance") in seen
    assert ("tools/cli_startup.py", "cnx.harness", None) in seen
    # and the benchmark's child, whose imports sit inside its functions
    for module, name in [("cnx.search", "enumerate_models"), ("cnx.proof", "Registry"),
                         ("cnx.semantics", "check_consecution"), ("cnx", "cli")]:
        assert ("perfbench/child.py", module, name) in seen
