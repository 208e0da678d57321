"""No module of the package imports a name it never uses.

``__init__`` imports to re-export, so it is exempt.  A name is used where
the module reads it: an ``ast.Name`` anywhere in its code, annotations
included.  A mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "motionfields"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` binds by an import and never reads, in order of import."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_package_has_modules():
    assert "fourier.py" in MODULES and "verifier.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_a_stale_import_is_caught():
    source = "import math\nfrom .fourier import check_path, sample_field\n\nsample_field(math.pi)\n"
    assert unused_imports(source) == ["check_path"]
