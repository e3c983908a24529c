"""The test oracles share no code with the reproduction but its streams."""

import ast
from pathlib import Path

import oracles


def test_oracles_import_only_the_streams_of_ditsp():
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    ours = {m for m in modules if m.split(".")[0] == "ditsp"}
    assert ours == {"ditsp.rng"}
