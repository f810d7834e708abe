"""Every compiled kernel and trusted builder of the package, and their one compiler.

``lattice.compile_kernel`` holds the only ``exec`` and ``compile`` in ``src/nikulat``.
Each kernel's source text is pinned by sha256, so a change to how kernels are written
or compiled shows here byte for byte, and the readers of G.x are checked to read it
from the lattice's compiled ``gram_product``.
"""

import ast
import hashlib
from pathlib import Path

import pytest

import nikulat
from nikulat import intmat, isometry, lattice, model
from nikulat.isometry import Isometry
from nikulat.lattice import EmbeddingMap, Lattice, LatticeVector, check_embedding, direct_sum, pair, standard_lattice
from nikulat.model import (OrbitClass, VectorProfile, build_model, default_generators, enumerate_with_square,
                           eta_as_written_matrix, eta_from_matrix)

LY = build_model()[0].lambda_Y


def generation(shape):
    def run():
        isometry._kernel.cache_clear()
        isometry._kernel(LY.sparse_rows, tuple(g._supports[1] for g in default_generators()), 4, shape)
    return run


def enumeration(*blocks):
    def run():
        model._generator.cache_clear()
        next(enumerate_with_square(LY, blocks, 2, 0))
    return run


def embedding():
    return eta_from_matrix(eta_as_written_matrix()).image_kernel  # a new map: compiled afresh


def invariants():
    return Lattice(LY.label, LY.gram, LY.blocks).invariant_kernels  # a new lattice: compiled afresh


def builder(cls):
    return lambda: lattice.trusted_builder.__wrapped__(cls)  # past the per-class cache: compiled afresh


@pytest.mark.parametrize("compile_it,length,digest", [
    pytest.param(generation("generation"), 8087,
                 "42c7507b44684422e24d6f069c8181375e2e0d1c71582eadf2a4414123d0f030",
                 id="generation-default-supports-bound-4"),
    pytest.param(generation("guarded"), 13355, "90d65c79ac5cdbd11af3df88e6c57fad48abda5ca3f823a4598cf69eaab6f5cb",
                 id="generation-guarded-default-supports-bound-4"),
    pytest.param(generation("closure"), 6495, "4e1a1472efb97230244e9899728387780fef8b21e9d4473ed732a8138e16132f",
                 id="generation-closure-default-supports-bound-4"),
    pytest.param(enumeration("U1", "E8"), 2445, "256b3aecc8b0356b64d658286f574bfa794413264737c309a36c50a4e8a2ccfb",
                 id="enumeration-U1-E8"),
    pytest.param(enumeration("U1", "E8", "G1", "G2"), 2856,
                 "2989ab7bd6824c0c1e386916cc0bf08e7735e3f0da9b5476a56decbee0303253", id="enumeration-U1-E8-G1-G2"),
    pytest.param(embedding, 199, "e17a360c5810790df79ec0b414b1a0656e70373ce6b938a294bd0334ec056f92",
                 id="embedding-eta-as-written"),
    pytest.param(invariants, 927, "603acfcbb52b39594c6f550aea5525c76f0f4c4347462541615a08f49b314d03",
                 id="invariants-LY"),
    pytest.param(builder(LatticeVector), 107, "af6e28f1e75be3315dd2191e30731dd41fa2e8234d697703fd9e3c6a9603fbc8",
                 id="builder-LatticeVector"),
    pytest.param(builder(VectorProfile), 524, "1f409be660349bc4ccc52369827054b2b6aaa6bdd375bf50a53a856a86d93a1e",
                 id="builder-VectorProfile"),
    pytest.param(builder(OrbitClass), 275, "8e85b35801436c8233457a3052e6f4529a9d8e375adc8ef959f8b48f5418f78e",
                 id="builder-OrbitClass"),
])
def test_kernel_source_is_pinned(compiled_sources, compile_it, length, digest):
    """What is compiled, one source per kernel, byte for byte."""
    default_generators()  # LY's own kernels, which the searches and the enumerator read, compiled first
    compiled_sources.clear()
    compile_it()
    (source,) = compiled_sources
    assert (len(source), hashlib.sha256(source.encode()).hexdigest()) == (length, digest)


def test_invariant_source_before_the_gram_product_is_pinned(compiled_sources):
    """``square`` and ``divisibility`` come first, the divisibility as one ``gcd`` per content of
    LY's unimodular components."""
    invariants()
    (source,) = compiled_sources
    head, _, _ = source.partition("\ndef gram_product(x):")
    assert (len(head), hashlib.sha256(head.encode()).hexdigest()) == (
        603, "8ccfbf5963f4850bc6f395b9ce3602c0fda805559ebcdfd99919cd868e19b209")


def test_source_text_is_compiled_in_one_place():
    """One ``exec`` and one ``compile`` call in ``src/nikulat``, both in ``compile_kernel``;
    and no dense matrix product is left in ``intmat``."""
    sites = []
    for path in sorted(Path(nikulat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "compile"):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                sites.append((path.name, getattr(scope, "name", None), node.func.id))
    assert sorted(sites) == [("lattice.py", "compile_kernel", "compile"), ("lattice.py", "compile_kernel", "exec")]
    assert not hasattr(intmat, "matmul") and not hasattr(intmat, "transpose")


def test_gram_readers_read_the_compiled_kernels():
    """The pairing, a reflection's G.r and the embedding check call the lattice's compiled
    ``gram_product``, and the enumerator its ``square`` for a plane's box."""
    lat = direct_sum([standard_lattice("U"), standard_lattice("rank1", -2)], label="spied")
    square, divisibility, product = lat.invariant_kernels
    calls = []

    def spy(name, kernel):
        return lambda x: calls.append(name) or kernel(x)

    lat.__dict__["invariant_kernels"] = (spy("square", square), divisibility, spy("product", product))
    u, v = lat.vector((1, 2, 0)), lat.vector((0, 1, 1))
    assert pair(u, v) == 1 and calls == ["product"]
    assert Isometry(lat, (0, 0, 1)).apply_coords((0, 1, 1)) == (0, 1, -1) and calls == ["product"] * 2
    identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    # the six pairs i <= j: both forms are symmetric
    assert check_embedding(EmbeddingMap(lat, lat, identity)).isometric and calls == ["product"] * 8
    calls.clear()
    assert [w.coords for w in enumerate_with_square(lat, ("U",), 1, 0)] == [(-1, 0, 0), (0, -1, 0), (0, 1, 0),
                                                                            (1, 0, 0)]
    assert calls == ["square"] * 9
