"""Exact-arithmetic lattice toolkit for Nikulin-type orbifold period lattices.

``import nikulat`` loads the lattice core (``intmat``, ``lattice``, ``isometry``, ``model``); ``audit``,
``exprs`` and ``serialize``, and names such as ``run_all`` and ``parse_vector``, load on first use."""

from importlib import import_module

from .isometry import (
    Isometry,
    OrbitBudget,
    OrbitSet,
    orbit_explore,
    reflection,
    same_orbit_witness,
)
from .lattice import (
    EmbeddingMap,
    EmbeddingReport,
    Lattice,
    LatticeError,
    LatticeVector,
    SublatticeReport,
    check_embedding,
    direct_sum,
    discriminant_group,
    divisibility,
    is_primitive,
    pair,
    rescale,
    saturate,
    square,
    standard_lattice,
)
from .model import (
    EnumerationWindow,
    FibrationType,
    NamedModel,
    NamedVectors,
    OrbitClass,
    VectorProfile,
    build_model,
    classify_isotropic_type,
    classify_orbit,
    default_generators,
    enumerate_primitive_isotropic,
    eta_embedding,
    sigma_star,
    vector_profile,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingMap",
    "EmbeddingReport",
    "EnumerationWindow",
    "ExpressionError",
    "FibrationType",
    "Isometry",
    "Lattice",
    "LatticeError",
    "LatticeVector",
    "MtCoefficients",
    "NamedModel",
    "NamedVectors",
    "OrbitBudget",
    "OrbitClass",
    "OrbitSet",
    "SublatticeReport",
    "VectorProfile",
    "build_model",
    "check_embedding",
    "classify_isotropic_type",
    "classify_orbit",
    "default_generators",
    "direct_sum",
    "discriminant_group",
    "divisibility",
    "enumerate_primitive_isotropic",
    "eta_embedding",
    "format_vector",
    "is_primitive",
    "mt_coefficients",
    "orbit_explore",
    "pair",
    "parse_vector",
    "reflection",
    "rescale",
    "run_all",
    "run_claim",
    "same_orbit_witness",
    "saturate",
    "sigma_star",
    "square",
    "standard_lattice",
    "vector_profile",
]

_LAZY = dict.fromkeys(("MtCoefficients", "mt_coefficients", "run_all", "run_claim", "audit"), "audit")
_LAZY |= dict.fromkeys(("ExpressionError", "format_vector", "parse_vector", "exprs"), "exprs")
_LAZY["serialize"] = "serialize"


def __getattr__(name: str):
    """PEP 562: import the submodule a ``_LAZY`` name maps to; unbound, so each access sees its current value."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
