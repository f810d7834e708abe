"""The package namespace: what ``import nikulat`` loads, and that every exported name
is the object its submodule defines, whether it was loaded at import or on first use.

What a cold import loads can only be seen in a fresh interpreter, so those tests run
one with ``sys.executable``; the rest check the namespace in this process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nikulat
from nikulat import audit

SRC = str(Path(nikulat.__file__).resolve().parent.parent)
DEFERRED = ("nikulat.audit", "nikulat.exprs", "nikulat.serialize", "json")


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that imports nikulat from this checkout;
    the script leaves its findings in ``out``, which comes back decoded."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\nout = {{}}\n"
    epilogue = "\nimport json\nprint(json.dumps(out))\n"
    done = subprocess.run([sys.executable, "-c", prelude + script + epilogue],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_cold_start_loads_only_the_lattice_core():
    """Each deferred module loads when one of its names is first touched, and not before."""
    out = fresh(f"""
import nikulat
nikulat.build_model()
nikulat.default_generators()
out["cold"] = [m for m in {DEFERRED!r} if m in sys.modules]
out["serialize"] = nikulat.serialize is sys.modules["nikulat.serialize"]
nikulat.parse_vector
out["after_parse_vector"] = [m for m in {DEFERRED[:3]!r} if m in sys.modules]
out["audit"] = nikulat.audit is sys.modules["nikulat.audit"]
out["catalog"] = len(nikulat.audit.CATALOG)
""")
    assert out["cold"] == []
    assert out["after_parse_vector"] == ["nikulat.exprs", "nikulat.serialize"]
    assert out["audit"] and out["serialize"]
    assert out["catalog"] == len(audit.CATALOG)


def test_cli_import_loads_every_layer():
    """``import nikulat.cli`` loads audit, exprs and serialize at once.  The benchmark's
    tracer wraps its targets by reading ``sys.modules["nikulat.<layer>"]`` when it
    installs, right after importing only ``nikulat`` and ``nikulat.cli``; a CLI that
    deferred these imports would make every traced run fail with a ``KeyError``."""
    out = fresh(f"""
import nikulat.cli
out["loaded"] = [m for m in {DEFERRED[:3]!r} if m in sys.modules]
""")
    assert out["loaded"] == list(DEFERRED[:3])


def test_every_export_is_its_submodules_object():
    """Loaded at import or on first use, each exported name is the object its defining module holds."""
    owners = {name: getattr(nikulat, name).__module__ for name in nikulat.__all__}
    assert {owner.split(".")[0] for owner in owners.values()} == {"nikulat"}
    other = [name for name, owner in owners.items() if getattr(sys.modules[owner], name) is not getattr(nikulat, name)]
    assert other == []
    assert {name for name, owner in owners.items() if owner in ("nikulat.audit", "nikulat.exprs")} == {
        "MtCoefficients", "mt_coefficients", "run_all", "run_claim", "ExpressionError", "format_vector", "parse_vector"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nikulat import *", namespace)
    assert set(nikulat.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(nikulat, name) for name in nikulat.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nikulat.no_such_name  # noqa: B018
    assert not hasattr(nikulat, "no_such_name")
