"""The package loads lazily: each export on first use, each CLI command only
the modules it runs.  What a fresh process loads is read in a subprocess."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padictrees
from padictrees.datum import cusp_datum, y_datum
from padictrees.polysys import cusp_system

SRC = Path(padictrees.__file__).resolve().parent.parent


def _fresh(code: str, *args: str) -> str:
    """Stdout of code run with args in a fresh interpreter that imports from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs cli.main on argv, then prints its exit code and the loaded submodules
_LOADED = """
import contextlib, io, json, sys
from padictrees.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(
    m.removeprefix("padictrees.") for m in sys.modules if m.startswith("padictrees."))]))
"""


def _loaded_by(argv):
    code, modules = json.loads(_fresh(_LOADED, json.dumps(argv)))
    assert code == 0
    return set(modules)


def test_importing_the_cli_loads_only_errors():
    out = _fresh(
        "import json, sys, padictrees.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('padictrees'))))"
    )
    assert json.loads(out) == ["padictrees", "padictrees.cli", "padictrees.errors"]


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, obj in [
        ("cusp.json", cusp_system(5)),
        ("cuspdatum.json", cusp_datum(5)),
        ("y2.json", y_datum(2, m=0)),
    ]:
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(json.dumps(obj.to_json()))
    paths["out"] = str(tmp_path / "out.json")
    return paths


@pytest.mark.parametrize("argv, runs, never", [
    (["enum", "cusp.json", "--depth", "3", "--out", "out"], "enum_trees",
     {"datum", "gamma", "ratfun", "poincare", "realize"}),
    (["naive", "cusp.json", "--depth", "3", "--format", "dot"], "enum_trees",
     {"datum", "gamma", "ratfun", "poincare", "realize"}),
    (["poincare", "--datum", "cuspdatum.json", "--p", "5", "--coeffs", "4"], "poincare",
     {"enum_trees", "realize", "trees", "padic", "polysys"}),
    (["expand", "y2.json", "--p", "3", "--depth", "4"], "trees",
     {"enum_trees", "realize", "padic", "polysys"}),
    (["realize", "y2.json", "--p", "3", "--depth", "4", "--check", "--out", "out"], "realize",
     {"enum_trees", "poincare", "polysys"}),
], ids=["enum", "naive", "poincare", "expand", "realize"])
def test_a_command_loads_only_what_it_runs(inputs, argv, runs, never):
    loaded = _loaded_by([inputs.get(a, a) for a in argv])
    assert runs in loaded
    assert not loaded & never


@pytest.mark.parametrize("code", [
    "import padictrees.realize\nfrom padictrees import realize\n",
    "from padictrees.realize import WitnessCloud\n"
    "import padictrees\nrealize = padictrees.realize\n",
    "from padictrees import realize\nimport padictrees.realize\n"
    "import padictrees\nrealize = padictrees.realize\n",
], ids=["submodule-first", "submodule-loaded-by-a-name", "export-first"])
def test_realize_is_the_function_whatever_loads_first(code):
    assert _fresh(code + "print(type(realize).__name__)").strip() == "function"


def test_only_import_module_reaches_the_realize_module():
    ns = {}
    exec("import importlib\nimport padictrees.realize as m\n"
         "mod = importlib.import_module('padictrees.realize')", ns)
    assert type(ns["m"]).__name__ == "function"
    assert type(ns["mod"]).__name__ == "module" and ns["mod"].realize is ns["m"]


def test_every_export_resolves_to_its_module_attribute():
    assert len(set(padictrees.__all__)) == len(padictrees.__all__)
    for name in padictrees.__all__:
        mod = importlib.import_module(f"padictrees.{padictrees._MODULE_OF[name]}")
        assert getattr(padictrees, name) is getattr(mod, name), name


def test_dir_lists_every_export_before_it_loads():
    out = _fresh(
        "import padictrees\n"
        "print(sorted(set(padictrees.__all__) - set(dir(padictrees))))"
    )
    assert out.strip() == "[]"


def test_star_import_binds_exactly_the_exports():
    ns = {}
    exec("from padictrees import *", ns)
    assert set(ns) - {"__builtins__"} == set(padictrees.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padictrees.no_such_name
    with pytest.raises(ImportError):
        exec("from padictrees import no_such_name", {})
