"""The package's runtime dependency is numpy alone: every absolute import
in ``src/weatherlpr`` names numpy or a standard-library module. Every name the
package exports resolves, and none is listed twice."""
import ast
import glob
import os
import sys

import weatherlpr

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "weatherlpr")


def test_runtime_imports_are_numpy_or_stdlib():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    foreign = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    assert not foreign, foreign


def test_every_export_resolves_once():
    missing = [name for name in weatherlpr.__all__ if not hasattr(weatherlpr, name)]
    assert not missing, missing
    assert len(set(weatherlpr.__all__)) == len(weatherlpr.__all__)
