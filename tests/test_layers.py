"""The package split: the circuit layer (parse, lower, `qassert check` and
`qassert lower`) loads neither numpy nor the simulator, and every public
name still resolves, on first access, to the object in its home module.

Each probe runs in a fresh interpreter, because this test session has
already imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qassert

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.qac"))
SIMULATOR = ("numpy", "qassert.state", "qassert.runner", "qassert.measurement")


def fresh(code: str):
    """Run `code` in a new interpreter that imports this qassert; return the
    JSON value of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(Path(qassert.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("work", [
    "import qassert\n"
    "for f in FILES: qassert.lower_assertions(qassert.parse(open(f).read()))",
    "from qassert.cli import main\n"
    "for f in FILES: assert main(['check', f]) == 0",
    "from qassert.cli import main\n"
    "for f in FILES: assert main(['lower', f]) == 0",
], ids=["parse_lower", "cli_check", "cli_lower"])
def test_circuit_layer_loads_no_simulator(work):
    code = (f"import json, sys\nFILES = {[str(f) for f in CORPUS]!r}\n{work}\n"
            f"print(json.dumps([m for m in {SIMULATOR!r} if m in sys.modules]))")
    assert fresh(code) == []


def test_public_names_resolve_to_their_home_objects():
    wrong = fresh(
        "import importlib, inspect, json, qassert\n"
        "wrong = []\n"
        "for name in qassert.__all__:\n"
        "    home = importlib.import_module('qassert.' + qassert._HOME[name])\n"
        "    obj = getattr(qassert, name)\n"
        "    defined = inspect.isclass(obj) or inspect.isfunction(obj)\n"
        "    if obj is not getattr(home, name) or defined and obj.__module__ != home.__name__:\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []
    assert set(qassert.__all__) <= set(dir(qassert))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qassert.nonexistent


def test_star_import_binds_every_public_name():
    missing = fresh(
        "import json, qassert\n"
        "from qassert import *\n"
        "print(json.dumps([n for n in qassert.__all__ if n not in globals()]))"
    )
    assert missing == []
