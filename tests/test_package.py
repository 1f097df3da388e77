"""The library stands alone: importing it loads no test code, so its
empty ``dependencies`` list stays true."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# imports every submodule and prints the names loaded
PROBE = """
import importlib, json, pkgutil, sys
import hyperchrome
names = [i.name for i in pkgutil.iter_modules(hyperchrome.__path__)]
for name in names:
    importlib.import_module("hyperchrome." + name)
print(json.dumps({"file": hyperchrome.__file__, "submodules": names, "loaded": sorted(sys.modules)}))
"""


def test_library_imports_no_test_code():
    # the tests' own directory is importable too, so a library import of
    # a test module would load it rather than fail
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(out.stdout)
    assert Path(probe["file"]).resolve().parent == SRC / "hyperchrome"
    assert {"__main__", "classifier", "cli", "coloring", "connectivity", "constructions"} <= set(
        probe["submodules"]
    )
    forbidden = {p.stem for p in TESTS.glob("*.py")} | {"tests", "pytest", "_pytest", "hypothesis"}
    assert {"conftest", "oracles", "lemmas"} <= forbidden
    loaded = {name.split(".")[0] for name in probe["loaded"]}
    assert sorted(loaded & forbidden) == []
