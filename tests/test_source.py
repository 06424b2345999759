"""Checks on the library source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import noncrossing
from noncrossing import enumeration, verify

_PACKAGE = Path(noncrossing.__file__).resolve().parent


def test_no_bare_asserts():
    # python -O strips assert statements, so integrity checks must raise
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare asserts in the library: {', '.join(found)}"


def _package_imports(path):
    """The sibling modules a library module imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("noncrossing." * bool(node.level) + (node.module or "")).rstrip(".")
            if module == "noncrossing":
                names = [f"noncrossing.{a.name}" for a in node.names]
            else:
                names = [module]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("noncrossing.")}
    return found


def test_module_layering():
    # brute force and the formula routes stay independent of each other,
    # and the checking module stays out of the layers it checks
    imports = {p.stem: _package_imports(p) for p in _PACKAGE.glob("*.py")}
    assert imports["enumeration"] == {"diagrams"}
    # the crossing statistic and a tableau's row count are two routes
    # to one number, so neither may be computed through the other
    assert imports["diagrams"] == set()
    assert imports["tableaux"] == {"diagrams"}
    assert imports["walks"] == set()
    assert {name for name, used in imports.items() if "verify" in used} == {"cli"}


def test_private_names_are_used():
    # a private module-level name that no other statement of the library
    # reads is a helper left behind by a refactor
    defined, used = [], []
    for path in sorted(_PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined += [(path.name, name, stmt) for name in own
                        if name.startswith("_") and not name.startswith("__")]
            used.append((stmt, names))
    assert len(defined) > 20
    unused = [
        f"{module}:{name}" for module, name, stmt in defined
        if not any(name in names for other, names in used if other is not stmt)
    ]
    assert not unused, f"private names nothing reads: {', '.join(unused)}"


def test_integrity_checks_fire_under_python_O():
    # the guard tests (-k guard) corrupt a route and expect its own check
    # to raise; under -O, which strips assert statements, they must pass
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")])
    )
    stripped = subprocess.run([sys.executable, "-O", "-c", "assert False"], env=env)
    assert stripped.returncode == 0, "python -O did not strip an assert"
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "guard", str(tests)],
        capture_output=True, text=True, env=env, cwd=tests.parent,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    passed = re.search(r"(\d+) passed", run.stdout)
    assert passed and int(passed.group(1)) >= 10, run.stdout[-2000:]


def _first_refused(class_tag):
    n = 0
    while True:
        try:
            enumeration.require_brute_budget(class_tag, n)
        except enumeration.RangeGuardError:
            return n
        n += 1


def test_readme_states_the_caps():
    # the README quotes every cap as the code has it: plain digits inside
    # code spans, groups of three digits split by spaces in prose
    readme = " ".join((_PACKAGE.parent.parent / "README.md").read_text().split())
    routes = {name: r.cap for name, r in verify._FORMULA_ROUTES["B_k_dagger", 3].items()}
    assert set(routes) == {"kernel", "closed", "recurrence"}

    def prose(value):
        return f"{value:,}".replace(",", " ")

    phrases = [
        f"`--route kernel` up to `n = {routes['kernel']}`",
        f"`--route closed` up to `n = {routes['closed']}`",
        f"`--route recurrence` is capped at `n = {routes['recurrence']}`",
        f"`verify --suite walks` up to `--n-max {verify._WALKS_CAP}`",
        f"`asympt` is capped at `--n {verify.ASYMPT_CAP}`",
        f"more than {prose(verify.DIAGRAM_CAP)} vertices (`verify.DIAGRAM_CAP`",
        f"`rho3 --route all` stops brute force at `n = {verify._BRUTE_CAP}`",
        f"Bell(n) above {prose(enumeration.BRUTE_FORCE_LIMIT)} (`n >= {_first_refused('P_k')}`)",
        f"charged Bell(n + 1) and refuse `n >= {_first_refused('B_k')}`",
    ]
    assert (_first_refused("P_k"), _first_refused("B_k")) == (13, 12)
    missing = [phrase for phrase in phrases if phrase not in readme]
    assert not missing, f"README does not quote: {missing}"
