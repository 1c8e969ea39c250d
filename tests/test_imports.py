import ast
import re
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


def test_readme_package_layout_names_every_module():
    """The README's "Package layout" table has one row per module of the
    package, ``__init__.py`` aside, and no row for a module that is gone."""
    readme = (SRC.parents[1] / "README.md").read_text()
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in table.splitlines()
            if line.startswith("| `")]
    modules = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sorted(rows) == modules


def test_readme_node_counts_equal_the_ci_pins():
    """The seed-1 node counts that README's Tests section gives are the ones
    the CI step "UC pins hold" checks, in the same order."""
    root = SRC.parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("name: UC pins hold", 1)[1]
    pins = {}
    for workload, args in re.findall(r"^\s*check (uc-\S+)((?:.*\\\n)*.*)$",
                                     step, re.M):
        pins[workload] = [int(label.split()[1])
                          for label in re.findall(r'"([^"]+)"', args)]
    readme = (root / "README.md").read_text()
    tests = readme.split("## Tests", 1)[1].split("\n## ", 1)[0]
    text = " ".join(tests.split())
    exact = re.search(r"uc-exact solves of `perfbench` take ([\d/]+) nodes", text)
    gap = re.search(r"two uc-gap solves take (\d+) and (\d+)", text)
    assert pins == {"uc-exact": [int(n) for n in exact[1].split("/")],
                    "uc-gap": [int(gap[1]), int(gap[2])]}
