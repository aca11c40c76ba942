"""Each quantity has one reference definition, in `reference.py`: no test
module imports another, and none defines a function or class of
`reference.py` again."""
from __future__ import annotations

import ast
from pathlib import Path


def test_no_test_module_is_imported_and_no_reference_is_defined_twice():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(__file__).resolve().parent.glob("*.py")}
    references = {node.name for node in trees["reference"].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"NablaR", "dense_contract", "dense_pullback", "dense_sum", "dense_product",
            "dense_permute", "dense_fix", "dense_restrict", "sorted_first_failure"} <= references
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [(module, "imports", name) for name in imported if name.startswith("test_")]
            if (module.startswith("test_") and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in references):
                found.append((module, "defines", node.name))
    assert found == []
