"""Static checks over the library source, by AST.

Soundness guards must hold under ``python -O``, which strips ``assert``
statements, so the library raises explicitly instead; so do the test
oracles, whose asserts pytest does not rewrite.  A module-level import that
the module never reads, in the library or in the tests, is dead weight and
hides real dependencies.  Every resource cap is a row of ``errors.BUDGETS``,
and every budget error names its budget, so a run says which budget
stopped it.  No call overrides a row's cap and no module reads the
environment, so outputs depend only on declared inputs.  The fractional
part of a float has one implementation, ``torus._frac`` (bit for bit
numpy's ``% 1.0`` at a tenth of its cost), so no module takes ``% 1.0``
itself; ``tests/oracles.py`` keeps its ``% 1.0`` as the independent
reference that the Monte Carlo paths are checked against.  Threads are
started in one place, ``scan.ordered_map``, so the library has one parallel
path and one place where its results are put back in order.  Every public
function, and every public method of a public class, is read somewhere in
the package or by the benchmark's workloads, or is allowlisted with its
reason, so the library carries no surface that no command, chain,
certificate or benchmark reaches.  No module imports a private name of
another module unless it is allowlisted with its reason, so each module's
public names are its boundary.
"""

import ast
import re
from pathlib import Path

import pytest

from aplab.errors import BUDGETS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "aplab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_imports(tree):
    """Names bound by the module's top-level imports, except __future__."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES + [TESTS / "oracles.py"], ids=lambda p: p.name)
def test_no_assert_statements(path):
    hits = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert hits == [], f"{path.name}: assert at lines {hits}"


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"] + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _module_imports(tree).items() if name not in read}
    assert unused == {}, f"{path.name}: unused imports {unused}"


# errors.py holds the table and check_budget, which passes its row name on
NOT_ERRORS = [p for p in MODULES if p.name != "errors.py"]


@pytest.mark.parametrize("path", NOT_ERRORS, ids=lambda p: p.name)
def test_caps_live_in_the_budget_table(path):
    caps = [
        t.id
        for node in _tree(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for t in ast.walk(target)
        if isinstance(t, ast.Name) and re.search(r"_(CAP|BUDGET|LIMIT)$", t.id)
    ]
    assert caps == [], f"{path.name}: module-level caps {caps} belong in errors.BUDGETS"


@pytest.mark.parametrize("path", NOT_ERRORS, ids=lambda p: p.name)
def test_budget_errors_name_their_budget(path):
    """``BudgetExceededError`` and ``check_budget`` take the budget's name as
    a string literal, a row of the table."""
    bad = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "id", getattr(node.func, "attr", None))
        if called not in ("BudgetExceededError", "check_budget"):
            continue
        first = node.args[0] if node.args else None
        name = first.value if isinstance(first, ast.Constant) else None
        if name not in BUDGETS:
            bad.append(node.lineno)
    assert bad == [], f"{path.name}: budget calls without a named budget at lines {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    hits = [
        node.lineno
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names))
    ]
    assert hits == [], f"{path.name}: environment read at lines {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_check_budget_reads_only_its_row(path):
    """``check_budget(name, needed)``: no call passes a cap of its own."""
    bad = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_budget"
        and len(node.args) + len(node.keywords) != 2
    ]
    assert bad == [], f"{path.name}: check_budget calls with other than two arguments at {bad}"


def _names_read(tree):
    """(owner, identifier) for every name, attribute and imported name.  The
    owner is the top-level definition that holds it, ``Class.method`` inside
    a method of a top-level class, or None."""
    scopes = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        if isinstance(stmt, ast.ClassDef):
            scopes += [(owner, n) for n in stmt.bases + stmt.keywords + stmt.decorator_list]
            scopes += [
                (f"{owner}.{n.name}" if isinstance(n, ast.FunctionDef) else owner, n)
                for n in stmt.body
            ]
        else:
            scopes.append((owner, stmt))
    out = set()
    for owner, root in scopes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, node.attr))
            elif isinstance(node, ast.ImportFrom):
                out.update((owner, alias.name) for alias in node.names)
    return out


def _public_definitions(tree):
    """(qualified name, name) of each function in the module's ``__all__``
    and of each public method, property and classmethod of a class in it."""
    public = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in node.value.elts
    }
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and node.name in public:
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


# public functions that nothing in the package calls, each kept for a reason
UNREACHED_ALLOWED = {
    "uniformity.grid_to_text": "writer of the documented grid file format",
    "patterns.is_k_pattern": "the definition test_properties checks behrend_set against",
}


def test_every_public_function_is_reached():
    """Each function in a module's ``__all__``, and each public method,
    property and classmethod of a class in it, is read somewhere in the
    package outside its own definition (``__init__``'s re-exports do not
    count), or by the benchmark's workloads."""
    modules = [p for p in MODULES if p.name != "__init__.py"]
    workloads = TESTS.parent / "benchmark" / "workloads.py"
    reads = {p.stem: _names_read(_tree(p)) for p in modules + [workloads]}
    unreached = [
        f"{path.stem}.{qualname}"
        for path in modules
        for qualname, name in _public_definitions(_tree(path))
        if not any(
            read == name and (mod, owner) != (path.stem, qualname)
            for mod, names in reads.items()
            for owner, read in names
        )
    ]
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED), f"unreached public definitions: {unreached}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractional_part_only_through_frac(path):
    hits = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant)
        and isinstance(node.right.value, float) and node.right.value == 1.0
    ]
    assert hits == [], f"{path.name}: float remainder % 1.0 at lines {hits}, use torus._frac"


def test_threads_start_only_in_ordered_map():
    """``threading.Thread`` (or a bare ``Thread``) is constructed only inside
    ``scan.ordered_map``."""
    sites = [
        (path.stem, getattr(stmt, "name", None))
        for path in MODULES
        for stmt in _tree(path).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Thread"
    ]
    assert sites == [("scan", "ordered_map")]


def test_seeded_streams_start_only_in_the_samplers():
    """``default_rng`` and ``SeedSequence`` are constructed only by the
    seeded samplers: the Monte Carlo blocks, the draw in marked buckets and
    randomized search."""
    sites = {
        (path.stem, getattr(stmt, "name", None))
        for path in MODULES
        for stmt in _tree(path).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("default_rng", "SeedSequence")
    }
    assert sorted(sites) == [
        ("colorings", "_search_randomized"),
        ("torus", "_bucket_batches"),
        ("torus", "_sample_blocks"),
    ]


# private names one module imports from another, each shared for a reason
PRIVATE_IMPORTS_ALLOWED = {
    "uniformity <- torus._frac": "the one fractional part, shared with the Monte Carlo fields",
    "uniformity <- torus._sample_blocks": "the one seeded block stream, shared with extraction",
    "cli <- torus._rat": "the exact-rational text of reports",
    "pipelines <- torus._rat": "the exact-rational text of certificates",
}


def _private_imports(path):
    """'importer <- module.name' for every private name that the module at
    ``path`` imports, at any depth, from another module of the package."""
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "aplab" or module.startswith("aplab.")):
            continue
        source = module.removeprefix("aplab").lstrip(".")
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                yield f"{path.stem} <- {source + '.' if source else ''}{name}"


def test_private_names_stay_in_their_module():
    found = sorted(hit for path in MODULES for hit in _private_imports(path))
    assert found == sorted(PRIVATE_IMPORTS_ALLOWED), f"private imports across modules: {found}"
