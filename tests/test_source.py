"""Checks on the library source itself."""

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import noncrossing
from noncrossing import cli, enumeration, verify

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


#: each crossing scan -> the position of its shared_endpoint argument
_CROSSING_SCANS = {"_most_rows": 1, "has_k_crossing": 2, "crossing_number_of_arcs": 1}


def test_crossing_convention_is_read_from_the_diagram_types():
    # PartitionDiagram.shared_endpoint and BraidDiagram.shared_endpoint are
    # the one statement of each class's crossing convention: no library
    # call to a crossing scan passes the convention as a literal
    calls, literal = 0, []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in _CROSSING_SCANS:
                continue
            calls += 1
            position = _CROSSING_SCANS[name]
            passed = [kw.value for kw in node.keywords if kw.arg == "shared_endpoint"]
            passed += node.args[position:position + 1]
            if any(isinstance(value, ast.Constant) for value in passed):
                literal.append(f"{path.name}:{node.lineno}")
    assert calls >= 3
    assert not literal, f"crossing conventions passed as literals: {', '.join(literal)}"


def _callers(module, name):
    """The functions of a library module that call name."""
    tree = ast.parse((_PACKAGE / module).read_text())
    return [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
                for node in ast.walk(function))
    ]


def test_one_patience_sort_scan():
    # each crossing loop is written once in diagrams: the insertion sweep,
    # the only row insertion (bisect_right), in _most_rows, and the
    # stopping patience scan in has_k_crossing; the sweep's cut and the
    # patience scan are the only calls of bisect_left
    assert _callers("diagrams.py", "bisect_right") == ["_most_rows"]
    assert _callers("diagrams.py", "bisect_left") == ["_most_rows", "has_k_crossing"]


def test_diagram_crossings_sweep_the_stored_arcs():
    # a diagram's arcs are stored in the sweep's order, so only the raw
    # arc-list entry sorts before it sweeps
    sweepers = _callers("diagrams.py", "_most_rows")
    assert {"crossing_number", "is_k_noncrossing"} <= set(sweepers)
    sorters = _callers("diagrams.py", "crossing_number_of_arcs")
    assert not {"crossing_number", "is_k_noncrossing"} & set(sorters)


def test_one_tableau_scan_and_one_fill():
    # row insertion is written once, in the right-to-left scan, and the
    # upward bump once, in the fill; the duality's witness route reaches
    # both through them and bisects nothing itself
    assert _callers("tableaux.py", "bisect_right") == ["_half_steps"]
    assert _callers("tableaux.py", "bisect_left") == ["_fill"]
    assert _callers("duality.py", "bisect_right") == _callers("duality.py", "bisect_left") == []


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


def test_cli_import_leaves_out_multiprocessing():
    # the library starts no process, so nothing it imports loads them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")])
    )
    probe = "import sys, noncrossing.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "False"


def test_cli_names_no_suite():
    # which suite runs at which k and n is verify's table alone; a suite
    # name may still be a command (rho3) or the key of a report's field
    # (the "routes" of rho3 --route all)
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    strings = {node.value for node in ast.walk(tree) if id(node) not in keys
               and isinstance(node, ast.Constant) and isinstance(node.value, str)}
    named = strings & set(verify.SUITE_NAMES) - set(cli._HANDLERS)
    assert "rho3" in strings and not named, f"cli.py names suites: {sorted(named)}"


def _names_read(tree):
    """The identifiers an AST reads: names, attributes, imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _statements():
    """(file name, statement, the names it defines, the names it reads)
    for each top-level statement of the library."""
    for path in sorted(_PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            yield path.name, stmt, own, _names_read(stmt)


def test_private_names_are_used():
    # a private module-level name that no other statement of the library
    # reads is a helper left behind by a refactor
    statements = list(_statements())
    defined = [(module, name, stmt) for module, stmt, own, _ in statements
               for name in own if name.startswith("_") and not name.startswith("__")]
    assert len(defined) > 20
    unused = [
        f"{module}:{name}" for module, name, stmt in defined
        if not any(name in names for _, other, _, names in statements if other is not stmt)
    ]
    assert not unused, f"private names nothing reads: {', '.join(unused)}"


def _body_shape(func):
    """A function's body as an AST dump, with its docstring dropped and
    its parameters renamed by position."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a]
    renamed = {name: f"_{t}" for t, name in enumerate(params)}
    body = ast.Module(func.body[ast.get_docstring(func) is not None:], [])
    for node in ast.walk(body):
        if isinstance(node, ast.Name) and node.id in renamed:
            node.id = renamed[node.id]
    return ast.dump(body)


def test_no_two_library_functions_share_a_body():
    # two module-level functions that differ only in their docstrings and
    # their parameters' names are one function under two names
    first, twins = {}, []
    for module, stmt, _, _ in _statements():
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shape = _body_shape(stmt)
            if shape in first:
                twins.append(f"{first[shape]} and {module}:{stmt.name}")
            first.setdefault(shape, f"{module}:{stmt.name}")
    assert len(first) > 100
    assert not twins, f"functions with one body: {'; '.join(twins)}"


def _names_outside():
    """The names the benchmark reads and the words of the README."""
    root = _PACKAGE.parent.parent
    outside = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in (root / "bench").glob("*.py"):
        outside |= _names_read(ast.parse(path.read_text(), filename=str(path)))
    return outside


def _public_definitions():
    """(file name, name, statement) for each public module-level name the
    library defines, and the statements of the library, the package's
    re-export aside."""
    statements = [s for s in _statements() if s[0] != "__init__.py"]
    defined = [(module, name, stmt) for module, stmt, own, _ in statements
               for name in own if not name.startswith("_")]
    return defined, statements


def test_exported_names_are_used():
    # every name the package exports is a public module-level definition of
    # the library, so test_public_names_are_used's unused-name rule covers
    # every export; an export of a name the library only imports is not
    defined, _ = _public_definitions()
    exported = [
        alias.name
        for node in ast.parse((_PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exported) > 40
    foreign = set(exported) - {name for _, name, _ in defined}
    assert not foreign, f"exports that no library module defines: {', '.join(sorted(foreign))}"


def test_public_names_are_used():
    # a public module-level name is read by another library statement, the
    # package's re-export aside, or by the benchmark or the README; one that
    # only the tests read is surface the system does not use
    outside = _names_outside()
    defined, statements = _public_definitions()
    assert len(defined) > 70
    unused = [
        f"{module}:{name}" for module, name, stmt in defined
        if name not in outside
        and not any(name in names for _, other, _, names in statements if other is not stmt)
    ]
    assert not unused, f"public names only the tests read: {', '.join(unused)}"


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
    # pytest warns that -O strips asserts, which filterwarnings = error
    # would turn into a failure; that one warning is what -O is run for
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning",
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
        f"up to `--n {verify.ASYMPT_EXACT_CAP}` (`verify.ASYMPT_EXACT_CAP`)",
        f"more than {prose(verify.DIAGRAM_CAP)} vertices (`verify.DIAGRAM_CAP`",
        f"`rho3 --route all` stops brute force at `n = {verify._BRUTE_CAP}`",
        f"Bell(n) above {prose(enumeration.BRUTE_FORCE_LIMIT)} (`n >= {_first_refused('P_k')}`)",
        f"charged Bell(n + 1) and refuse `n >= {_first_refused('B_k')}`",
    ]
    assert (_first_refused("P_k"), _first_refused("B_k")) == (13, 12)
    missing = [phrase for phrase in phrases if phrase not in readme]
    assert not missing, f"README does not quote: {missing}"


def test_readme_names_only_options_the_cli_has():
    # a retired option must not linger in the docs; the pip line is pip's
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for sub in commands.choices.values() for option in sub._option_string_actions}
    readme = (_PACKAGE.parent.parent / "README.md").read_text().splitlines()
    named = {token for line in readme if not line.lstrip().startswith("pip install")
             for token in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)}
    assert len(named) >= 8
    assert not named - options, f"README names options the CLI lacks: {sorted(named - options)}"


def _readme_blocks(language):
    readme = (_PACKAGE.parent.parent / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", readme, re.M | re.S)


def test_readme_examples_run(capsys):
    # every noncrossing command of the README exits 0, and the outputs it
    # quotes in comments are what the library prints
    commands = [line for block in _readme_blocks("sh") for line in block.splitlines()
                if line.startswith("noncrossing ")]
    assert len(commands) >= 8
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        if ">" in argv:  # the shell's redirect, not an argument
            argv = argv[: argv.index(">")]
        assert cli.run(argv) == 0, line
        out = capsys.readouterr().out
        quoted = re.search(r"# -> (.*)$", line)
        if quoted:
            assert out.strip() == quoted.group(1), line

    [example] = _readme_blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert re.search(r"^print\(rho3_closed_form\(10\)\) +# (\d+)$", example, re.M).group(1) \
        == printed[1]
    assert re.search(r"^# (\{.*\});", example, re.M).group(1) == printed[2]
