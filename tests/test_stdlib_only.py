"""The runtime needs nothing outside the standard library.

A fresh interpreter refuses every import of the test-only packages, then
imports each dercalc module and runs one command of each main kind
through `cli.main`.  Each must exit 0."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib, importlib, io, json, pkgutil, sys

BLOCKED = ("sympy", "hypothesis", "pytest")


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())
import dercalc

modules = [info.name for info in pkgutil.iter_modules(dercalc.__path__)]
for name in modules:
    importlib.import_module(f"dercalc.{name}")
from dercalc import cli

COMMANDS = [
    ["der", "eval", "--tower", "t:trans", "--der", "d(t)=1", "--expr", "d((t^2 + 1)/(t - 1))"],
    ["feq", "solve", "--eq", "cauchy-add", "--carrier", "gf:3"],
    ["cocycle", "verify", "--f", "x^2", "--carrier", "gf:5"],
    ["run", sys.argv[1]],
]
codes = []
for argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"modules": modules, "codes": codes,
                  "loaded": sorted({m.partition(".")[0] for m in sys.modules} & set(BLOCKED))}))
"""


def test_runtime_imports_and_runs_without_the_test_packages():
    script = ROOT / "tests" / "data" / "square_root.session"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert {"cli", "cocycle", "exact", "feq", "parser", "session", "towers"} <= set(
        result["modules"])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == []
