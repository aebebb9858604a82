import ast
import sys
from pathlib import Path

import costbench

SRC = Path(costbench.__file__).resolve().parent


def test_src_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the one runtime dependency; scipy and
    # the other dev tools belong to the tests.
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5  # the package's modules, not an empty glob
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


# Public src names that only tests call, each kept for a stated reason.
TEST_ONLY_NAMES = {
    "diagnostics.monte_carlo_bayes_csl": "acceptance oracle: the synthetic task's Bayes cost",
    "diagnostics.optimal_boundary_slope": "acceptance oracle: the cost-optimal boundary slope",
    "diagnostics.RegretProfile.calibration_floor": "the empirical delta(eps) of calibration",
    "embedding.ViolationReport.text": "the alpha-separation lines that tests pin",
    "embedding.surrogate_subgradients":
        "traced by name in bench/tracer.py; ROADMAP item 9 deletes it",
}


def _public_definitions(path):
    """(qualified name, node, is member) of each public top-level function or
    class, and of each public method or property of those classes."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _references():
    """(path, line, name, is_member_style) of every bare name, attribute
    (.name) and string constant in src, bench/ and scripts/."""
    root = SRC.parent.parent
    users = sorted([*SRC.glob("*.py"), *(root / "bench").glob("*.py"),
                    *(root / "scripts").glob("*.py")])
    assert len(users) > len(list(SRC.glob("*.py")))  # bench/ and scripts/ were found
    refs = []
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((path, node.lineno, node.value, True))
    return refs


def test_every_public_src_name_is_used_outside_the_tests():
    # A reference is a bare name, an attribute (.name), or a string equal to
    # the name, in a file that defines the name's module or imports it;
    # __init__.py only re-exports. Methods and properties count only as .name
    # or as a string.
    refs = [ref for ref in _references() if ref[0].name != "__init__.py"]
    imports = {path: _imported_modules(path) for path in {ref[0] for ref in refs}}
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qual, node, is_member in _public_definitions(path):
            if not any(
                name == node.name and (member_style or not is_member)
                and (where == path or path.stem in imports[where])
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line, name, member_style in refs
            ):
                unused.add(f"{path.stem}.{qual}")
    assert unused == set(TEST_ONLY_NAMES)


# Dataclass fields that nothing outside the tests reads, each kept for a stated reason.
TEST_ONLY_FIELDS = {
    "data.Dataset.label_map": "the raw label value behind each code, hashed by the UCI load pin",
    "diagnostics.MonteCarloEstimate.value": "acceptance oracle: the synthetic task's Bayes cost",
    "diagnostics.MonteCarloEstimate.stderr": "acceptance oracle: its Monte Carlo error",
    "diagnostics.SlopeReport.offset": "the link offset of roadmap item 2",
    "harness.ResultRow.test_cost_se": "the per-cell trace of roadmap item 4",
    "harness.ResultRow.boundary_slope": "the per-cell trace of roadmap item 4; criterion 7",
}


def _is_dataclass(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _imported_modules(path):
    """Stems of the costbench modules a file imports or imports from."""
    stems = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from .costs import x` names the module; `from . import harness`
            # and `from costbench import harness` name it among the imports.
            package = node.module in (None, "costbench")
            names = [alias.name for alias in node.names] if package else [node.module]
        else:
            continue
        stems.update(name.removeprefix("costbench.") for name in names)
    return stems


def test_every_dataclass_field_is_read_outside_the_tests():
    # A read is an attribute (.field) or a string equal to the field name
    # (write_rows_csv and bench/ read fields through getattr), in a file that
    # defines the class's module or imports from it; __init__.py only
    # re-exports. Reads in the class's own __post_init__ only validate, so they
    # do not count; a read in another method does, since the guard above
    # checks that method is used.
    refs = [(path, line, name) for path, line, name, member in _references()
            if member and path.name != "__init__.py"]
    imports = {path: _imported_modules(path) for path in {path for path, _, _ in refs}}
    unread = set()
    n_fields = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            post_init = [(sub.lineno, sub.end_lineno) for sub in node.body
                         if isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__"]
            for sub in node.body:
                if not (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)):
                    continue
                n_fields += 1
                field = sub.target.id
                if not any(
                    name == field
                    and (where == path or path.stem in imports[where])
                    and not (where == path and any(a <= line <= b for a, b in post_init))
                    for where, line, name in refs
                ):
                    unread.add(f"{path.stem}.{node.name}.{field}")
    assert n_fields > 30  # the dataclasses were found
    assert unread == set(TEST_ONLY_FIELDS)
