"""The package roots re-export only the public surface (AST only, no imports).

The public surface is what README's fenced ``python`` blocks and the frozen
host-time benchmark (``benchmarks/e2e/*.py``) import through a package root.
Each root's ``__all__`` re-exports exactly its share of that set, so the
surface cannot regrow silently and no root can drop a name the benchmark
still imports.  Everywhere else in the repo a name is imported from the
module that defines it: one import path per name (DESIGN §3).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = {
    ".".join(init.parent.relative_to(SRC).parts): init for init in SRC.rglob("__init__.py")
}


def _is_submodule(package: str, name: str) -> bool:
    pkg_dir = PACKAGES[package].parent
    return (pkg_dir / f"{name}.py").is_file() or (pkg_dir / name / "__init__.py").is_file()


def _root_imports(tree: ast.AST):
    """``(package, name, lineno)`` for every non-submodule name taken from a root."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in PACKAGES:
            for alias in node.names:
                if not _is_submodule(node.module, alias.name):
                    yield node.module, alias.name, node.lineno


def _public_surface() -> set[tuple[str, str]]:
    sources = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources += [p.read_text() for p in sorted((ROOT / "benchmarks" / "e2e").glob("*.py"))]
    return {(pkg, name) for src in sources for pkg, name, _ in _root_imports(ast.parse(src))}


def _defined_in(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


ROOTS = {pkg: ast.parse(init.read_text()) for pkg, init in PACKAGES.items()}
PUBLIC = _public_surface()


def test_the_public_surface_is_the_documented_one():
    assert len(PUBLIC) == 32
    assert {pkg for pkg, _ in PUBLIC} == {
        "repro", "repro.analysis", "repro.apps", "repro.bench", "repro.codec",
        "repro.faults", "repro.instrument", "repro.simt", "repro.steering",
        "repro.telemetry", "repro.vmpi",
    }


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_each_root_reexports_exactly_its_public_share(package):
    tree = ROOTS[package]
    exported = _all_of(tree)
    assert len(exported) == len(set(exported)), f"{package}.__all__ repeats a name"
    reexported = set(exported) - _defined_in(tree)
    assert reexported == {name for pkg, name in PUBLIC if pkg == package}
    bound = _defined_in(tree) | {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) <= bound, f"{package}.__all__ names something it does not bind"


def test_no_module_imports_a_name_through_a_root_that_does_not_define_it():
    files = [
        p for sub in ("src", "tests", "examples", "scripts") for p in (ROOT / sub).rglob("*.py")
    ]
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    offences = [
        f"{path.relative_to(ROOT)}:{line}: {name} via {pkg}"
        for path in files
        for pkg, name, line in _root_imports(ast.parse(path.read_text()))
        if name not in _defined_in(ROOTS[pkg])
    ]
    assert not offences, "import from the defining module instead:\n" + "\n".join(offences)
