import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ucsm"


def test_runtime_depends_on_numpy_only():
    """Every import in the package names numpy, the standard library or
    the package itself (a relative import)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "ucsm"}
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: {name}"
