"""Exact-arithmetic lattice toolkit for Nikulin-type orbifold period lattices.

``import nikulat`` loads the lattice core (``intmat``, ``lattice``, ``core``).  ``_EXPORTS`` lists each
public name once, under the submodule that defines it; ``__getattr__`` imports that owner on first touch,
so ``isometry``, ``model``, ``audit``, ``exprs`` and ``serialize`` load only when used."""

from importlib import import_module

from . import core, lattice  # noqa: F401  (the lattice core, loaded at import)

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": ("EmbeddingMap", "EmbeddingReport", "Isometry", "Lattice", "LatticeError", "LatticeVector",
                "SublatticeReport", "check_embedding", "direct_sum", "discriminant_group", "divisibility",
                "is_primitive", "pair", "reflection", "rescale", "saturate", "square", "standard_lattice"),
    "core": ("NamedModel", "NamedVectors", "build_model", "default_generators", "eta_embedding", "sigma_star"),
    "isometry": ("OrbitBudget", "OrbitSet", "orbit_explore", "same_orbit_witness"),
    "model": ("EnumerationWindow", "FibrationType", "OrbitClass", "VectorProfile", "classify_isotropic_type",
              "classify_orbit", "enumerate_primitive_isotropic", "vector_profile"),
    "exprs": ("ExpressionError", "format_vector", "parse_vector"),
    "audit": ("MtCoefficients", "mt_coefficients", "run_all", "run_claim"),
    "serialize": (),
}
_OWNER = {name: owner for owner, names in _EXPORTS.items() for name in (owner, *names)}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """PEP 562: import the submodule that owns ``name``, or is ``name``; unbound, so each access sees its current value."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_OWNER[name]}", __name__)
    return module if name == _OWNER[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
