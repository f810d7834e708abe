"""Dense reference products for the tests.

The package writes every Gram product G.x through a lattice's compiled kernel; these
plain loops over every matrix entry are the oracles it is checked against, and the
products the Smith-decomposition tests verify their factors with.
"""


def transpose(m):
    return tuple(zip(*m))


def matmul(a, b):
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def pulls_back(codomain_gram, m, domain_gram):
    """M^T G M == G': the matrix M, columns the images of the domain basis, conserves the form."""
    return matmul(matmul(transpose(m), codomain_gram), m) == tuple(map(tuple, domain_gram))
