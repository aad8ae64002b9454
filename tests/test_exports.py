"""Every exported name has a caller.

A name in an ``__all__`` list must be read by code in ``src/``,
``benchmarks/``, ``examples/`` or ``tools/`` other than its definition and
its re-export; a name only tests call is code kept alive for its own tests.
Names exported on purpose without such a caller stand in ``ALLOWED``, each
with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "tools")

ALLOWED = {
    "repro.tensor.set_default_dtype":
        "the process-wide dtype switch the README documents; inside the "
        "package every caller scopes it with default_dtype",
    "repro.analysis.replicate":
        "ROADMAP item 1(a) either runs claims over seeds with it or deletes it",
    "repro.analysis.bootstrap_paired_difference":
        "ROADMAP item 1(a) either decides claims with it or deletes it",
}


def _exports_and_reads():
    """``{"package.name": path}`` of every ``__all__`` entry, and every
    identifier read anywhere in the scanned trees. An ``__init__`` file's
    imports are re-exports, so they are not reads."""
    exports, reads = {}, set()
    for path in sorted(p for top in SCANNED for p in (ROOT / top).rglob("*.py")):
        relative = path.relative_to(ROOT)
        module = ".".join(relative.with_suffix("").parts[1:])
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                reads.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                for entry in node.value.elts:
                    exports[f"{module}.{entry.value}"] = relative
    return exports, reads


def _uncalled():
    exports, reads = _exports_and_reads()
    return {name: path for name, path in exports.items()
            if name.rsplit(".", 1)[1] not in reads}


def test_every_export_has_a_caller():
    missing = sorted(name for name in _uncalled() if name not in ALLOWED)
    assert not missing, (
        f"exported names with no caller outside tests/: {missing}; "
        "delete them with the tests that test only them, or add them to "
        "ALLOWED with a reason")


def test_allowlist_is_current():
    """An entry that gained a caller or left ``__all__`` leaves the list."""
    assert sorted(_uncalled()) == sorted(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
