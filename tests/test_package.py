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
TRACING = str(Path(SRC).parent / "perfbench" / "tracing.py")
CORE = ["nikulat", "nikulat.core", "nikulat.intmat", "nikulat.lattice"]
DEFERRED = ("nikulat.audit", "nikulat.exprs", "nikulat.isometry", "nikulat.model", "nikulat.serialize")


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that imports nikulat from this checkout;
    the script leaves its findings in ``out``, which comes back decoded."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\nout = {{}}\n"
    epilogue = "\nimport json\nprint(json.dumps(out))\n"
    done = subprocess.run([sys.executable, "-c", prelude + script + epilogue],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_cold_start_loads_only_the_lattice_core():
    """The model and its default reflections load ``intmat``, ``lattice`` and ``core`` and nothing else
    of nikulat; each deferred module loads when one of its names is first touched, and not before."""
    out = fresh("""
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "nikulat")
import nikulat
nikulat.build_model()
nikulat.default_generators()
out["cold"], out["json"] = loaded(), "json" in sys.modules
nikulat.orbit_explore
out["orbit_explore"] = loaded()
nikulat.classify_orbit
out["classify_orbit"] = loaded()
out["serialize"] = nikulat.serialize is sys.modules["nikulat.serialize"]
out["audit"] = nikulat.audit is sys.modules["nikulat.audit"]
out["catalog"] = len(nikulat.audit.CATALOG)
""")
    assert out["cold"] == CORE and not out["json"]
    assert out["orbit_explore"] == sorted(CORE + ["nikulat.isometry"])
    assert out["classify_orbit"] == sorted(CORE + ["nikulat.exprs", "nikulat.isometry", "nikulat.model"])
    assert out["audit"] and out["serialize"]
    assert out["catalog"] == len(audit.CATALOG)


def test_cli_import_loads_every_layer():
    """``import nikulat.cli`` loads every deferred module at once.  The benchmark's
    tracer wraps its targets by reading ``sys.modules["nikulat.<layer>"]`` when it
    installs, right after importing only ``nikulat`` and ``nikulat.cli``; a CLI that
    deferred these imports would make every traced run fail with a ``KeyError``."""
    out = fresh(f"""
import nikulat.cli
out["loaded"] = [m for m in {DEFERRED!r} if m in sys.modules]
""")
    assert out["loaded"] == list(DEFERRED)


def test_tracer_targets_resolve_after_the_cli_import():
    """``perfbench/tracing.py``, loaded as it is after ``import nikulat.cli``, finds each of its
    ``(layer, function)`` targets as ``nikulat.<layer>.<function>`` and ``Isometry.apply_coords``
    on ``nikulat.isometry``, and installs and restores its wrappers; the benchmark's witness
    targets read ``nikulat.model.default_generator_table``."""
    out = fresh(f"""
import importlib.util
import nikulat.cli
spec = importlib.util.spec_from_file_location("tracing", {TRACING!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
out["missing"] = [[layer, name] for layer, name, _ in tracing.TARGETS
                  if not callable(getattr(sys.modules.get("nikulat." + layer), name, None))]
out["apply_coords"] = callable(getattr(getattr(nikulat.isometry, "Isometry", None), "apply_coords", None))
out["table"] = callable(getattr(sys.modules["nikulat.model"], "default_generator_table", None))
original = nikulat.build_model
if not out["missing"] and out["apply_coords"]:  # else installing raises before the findings come back
    with tracing.Tracer().installed():
        out["wrapped"] = nikulat.model.build_model is not original
    out["restored"] = nikulat.model.build_model is original is nikulat.core.build_model
""")
    assert out == {"missing": [], "apply_coords": True, "table": True, "wrapped": True, "restored": True}


def test_every_export_is_its_submodules_object():
    """Loaded at import or on first use, each exported name is the object its defining module holds:
    ``lattice`` and ``core`` own the names bound at import, and each ``_LAZY`` name's module owns it."""
    owners = {name: getattr(nikulat, name).__module__ for name in nikulat.__all__}
    assert {owner.split(".")[0] for owner in owners.values()} == {"nikulat"}
    other = [name for name, owner in owners.items() if getattr(sys.modules[owner], name) is not getattr(nikulat, name)]
    assert other == []
    lazy = {name: f"nikulat.{module}" for name, module in nikulat._LAZY.items() if name in owners}
    assert {name: owner for name, owner in owners.items() if name in lazy} == lazy
    assert {owner for name, owner in owners.items() if name not in lazy} == {"nikulat.lattice", "nikulat.core"}
    by_owner = {owner: {name for name in owners if owners[name] == owner} for owner in owners.values()}
    assert by_owner["nikulat.audit"] | by_owner["nikulat.exprs"] == {
        "MtCoefficients", "mt_coefficients", "run_all", "run_claim", "ExpressionError", "format_vector", "parse_vector"}
    assert by_owner["nikulat.core"] == {
        "NamedModel", "NamedVectors", "build_model", "default_generators", "eta_embedding", "sigma_star"}
    assert by_owner["nikulat.isometry"] == {"OrbitBudget", "OrbitSet", "orbit_explore", "same_orbit_witness"}
    assert by_owner["nikulat.model"] == {
        "EnumerationWindow", "FibrationType", "OrbitClass", "VectorProfile", "classify_isotropic_type",
        "classify_orbit", "enumerate_primitive_isotropic", "vector_profile"}
    assert {"Isometry", "reflection"} <= by_owner["nikulat.lattice"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nikulat import *", namespace)
    assert set(nikulat.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(nikulat, name) for name in nikulat.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nikulat.no_such_name  # noqa: B018
    assert not hasattr(nikulat, "no_such_name")
