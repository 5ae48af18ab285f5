"""The package's surface: every top-level function or class in src/defreg
has a caller in the pipeline, or it is a declared test oracle.

A load counts when a name bound to the definition (by its own module or by
a `from defreg.<module> import`) is read somewhere in src/defreg. Loads
inside the definition's own body, in `__init__.py` re-exports and inside
any oracle's body do not count: code reached only from an oracle is test
code too."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "defreg"

# An oracle is the plain reference a pipeline path is tested against; no
# pipeline code calls it. Module-qualified name -> the gate or test using it.
ORACLES = {
    "consistency.pairwise_consistency": "gate 4, the consistency blocks entry by entry",
    "nicp.residuals": "gate 2's finite differences and the dense reference solver loop",
    "nicp.jacobian": "gate 2 and the dense normal equations in tests/test_nicp.py",
    "scnet.model.aggregate": "the bitwise blend oracle of run_forward in tests/test_scnet.py",
    "training.label_correspondences": "the synthetic scene labels in tests/test_synth.py",
}

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _surface():
    """(definitions, loaded): every top-level def or class in src/defreg as
    "module.name", and the set of those with a load that counts."""
    definitions, loaded = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {top.name: f"{module}.{top.name}" for top in tree.body
                 if isinstance(top, _DEFINITIONS)}
        definitions.update(scope.values())
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("defreg."):
                source = node.module.removeprefix("defreg.")
                scope.update({a.asname or a.name: f"{source}.{a.name}" for a in node.names})
        for top in tree.body:
            owner = scope.get(top.name) if isinstance(top, _DEFINITIONS) else None
            if owner in ORACLES:
                continue
            loaded |= {scope[n.id] for n in ast.walk(top) if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Load) and n.id in scope} - {owner}
    return definitions, loaded


def test_every_definition_is_pipeline_code_or_an_oracle():
    definitions, loaded = _surface()
    assert sorted(definitions - loaded - set(ORACLES)) == []


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_exists_has_no_pipeline_caller_and_is_tested(oracle):
    definitions, loaded = _surface()
    assert oracle in definitions
    assert oracle not in loaded
    word = re.compile(rf"\b{oracle.rsplit('.', 1)[1]}\b")
    assert any(word.search(path.read_text(encoding="utf-8"))
               for path in TESTS.glob("*.py") if path.name != Path(__file__).name)
