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
