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


def test_every_public_src_name_is_used_outside_the_tests():
    # A reference is a bare name, an attribute (.name), or a string equal to
    # the name (bench/tracer.py names what it traces). Methods and properties
    # count only as .name or as a string.
    root = SRC.parent.parent
    users = sorted([*SRC.glob("*.py"), *(root / "bench").glob("*.py"),
                    *(root / "scripts").glob("*.py")])
    assert len(users) > len(list(SRC.glob("*.py")))  # bench/ and scripts/ were found
    refs = []  # (path, line, name, is_member_style)
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((path, node.lineno, node.value, True))
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qual, node, is_member in _public_definitions(path):
            if not any(
                name == node.name and (member_style or not is_member)
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line, name, member_style in refs
            ):
                unused.add(f"{path.stem}.{qual}")
    assert unused == set(TEST_ONLY_NAMES)
