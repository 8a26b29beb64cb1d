"""The package's public API is the union of its modules' ``__all__`` lists."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import shellwave
from shellwave import cli, energies, gronwall, lattice, lp, modelsys

MODULES = (lattice, lp, modelsys, energies, gronwall, cli)
PACKAGE_DIR = Path(shellwave.__file__).resolve().parent


def test_package_exports_every_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert shellwave.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(shellwave, name), name


def test_public_functions_and_classes_live_in_their_module():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_cross_module_imports_use_public_names():
    # every public name one module takes from another is in that one's __all__
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = getattr(shellwave, node.module).__all__
            for alias in node.names:
                if alias.name != "*" and not alias.name.startswith("_"):
                    assert alias.name in exported, (path.name, node.module, alias.name)


# Definitions no target enters, each with the reason it stays.
UNREACHED_BY_DESIGN = {
    "modelsys._nonzero": "runs at import, to build the Python-float DOP853 tableau",
}

# A small scenario that runs all eight targets and reads a value of each kind
# (text, target list, integer, real, resolution list); lp-props then runs
# again on a constant background, the other kind of profile.
_REACH_SCENARIO = """\
[scenario]
name = reach
targets = verify-all
seed = 1
out = {out}
[lattice]
l_max = 6
[background]
kind = desitter
[partition]
k_min = -8
k_max = 12
shift = 0.0
[system]
n_regular = 1
top_order = 1
tau_seed = 1e-4
[verify]
n_draws = 2
resolutions = 4, 8
n_fields = 4
gronwall_count = 2
"""
_CONSTANT_SCENARIO = """\
[scenario]
targets = lp-props
out = {out}
[background]
kind = constant
value = 1.5
"""


def _definitions():
    """{(file, first line of the code object): dotted name} of every def under src/shellwave."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code object starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[str(path), first] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return defs


def test_every_definition_is_reached_by_a_target(tmp_path):
    # every function and method in src/shellwave runs in some target, and
    # every class a module exports is built by one; the command line and the
    # config parser each run once, under a trace of call events only
    entered, built = set(), set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        if code.co_name == "__init__" and "self" in frame.f_locals:
            built.add(type(frame.f_locals["self"]))

    cfg = tmp_path / "reach.cfg"
    cfg.write_text(_REACH_SCENARIO.format(out=tmp_path / "all"))
    constant = _CONSTANT_SCENARIO.format(out=tmp_path / "constant")
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        cli.main(["--config", str(cfg), "--quiet"])
        cli.run_scenario(cli.parse_config(constant), quiet=True)
    finally:
        sys.settrace(previous)

    entered = {(str(Path(file).resolve()), line) for file, line in entered}
    defs = _definitions()
    assert set(UNREACHED_BY_DESIGN) <= set(defs.values())
    missed = sorted(name for key, name in defs.items()
                    if key not in entered and name not in UNREACHED_BY_DESIGN)
    assert not missed, f"defined in src/shellwave but entered by no target: {missed}"
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value):
                assert value in built, f"{module.__name__}.{name} is built by no target"


def _leaf_paths(node, prefix=()):
    """Dotted key path of every leaf of a JSON value, each list index read as '*'."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from _leaf_paths(value, prefix + ("*",))
    else:
        yield ".".join(prefix)


def test_verdict_keys_match_the_committed_list(tmp_path):
    # a verdict is its report's fields, so renaming, adding or dropping a
    # report field changes the bundle; every key path of verdicts.json is
    # pinned in verdict_keys.txt, one a line, sorted
    cli.run_scenario(cli.parse_config(_REACH_SCENARIO.format(out=tmp_path)), quiet=True)
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    committed = Path(__file__).with_name("verdict_keys.txt").read_text().split()
    assert sorted(set(_leaf_paths(verdicts))) == committed


def test_targets_load_no_scipy(tmp_path):
    # the package's run path imports numpy only: a fresh process runs all
    # eight targets through the command line and loads no scipy module
    cfg = tmp_path / "reach.cfg"
    cfg.write_text(_REACH_SCENARIO.format(out=tmp_path / "all"))
    script = (
        "import sys\n"
        "from shellwave import cli\n"
        f"code = cli.main(['--config', {str(cfg)!r}, '--quiet'])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), inherited]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_readme_quickstart_runs_as_written(capsys):
    # the README's python example, executed; its comments state what it prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["(33, 4, 289)", "True", "True"]
