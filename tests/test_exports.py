"""The package's public names.

``adekit`` imports a layer the first time one of its names is read, so
these tests check that every exported name is still its defining
module's object, that the package lists and star-exports them, and, in a
fresh interpreter, that parsing loads only the layers parsing needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adekit

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_export_is_its_defining_modules_object():
    assert len(set(adekit.__all__)) == len(adekit.__all__)
    for name in adekit.__all__:
        obj = getattr(adekit, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("adekit."), name
        assert getattr(home, name) is obj, name


def test_dir_lists_every_export():
    assert set(adekit.__all__) <= set(dir(adekit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        adekit.no_such_name
    # a module's name that the package does not export stays private
    assert not hasattr(adekit, "Expression")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from adekit import *", namespace)
    assert set(adekit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(adekit, name) for name in adekit.__all__)


def test_parsing_loads_only_the_layers_it_needs():
    # a pass that only parses never compiles the search, rewriting or growth
    # layers; an eager import in the package would load them all here
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import adekit\n"
        "loaded = [sorted(set(sys.modules) - before)]\n"
        "adekit.parse('z')\n"
        "loaded.append(sorted(set(sys.modules) - before))\n"
        "print(json.dumps(loaded))\n"
    )
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    on_import, on_parse = json.loads(proc.stdout)
    assert [m for m in on_import if m.startswith("adekit")] == ["adekit"]
    assert [m for m in on_parse if m.startswith("adekit")] == ["adekit", "adekit.expr", "adekit.scalars", "adekit.series"]
    # expression nodes are built without the dataclass machinery
    assert "dataclasses" not in on_parse
