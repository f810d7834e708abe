"""Dense reference products for the tests.

The package writes every Gram product G.x through a lattice's compiled kernel; these
plain loops over every matrix entry are the oracles it is checked against.  The Smith
decomposition is checked by :func:`smith_certified`, through an exact solve and sympy's
invariant factors, never through an elimination that tracks the transforms.
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


def solve(a, b):
    """The integer matrix X with a @ X == b for a nonsingular square a, or None if X is not integral.

    Fraction-free (Bareiss) elimination of [a | b], then back substitution in integers: when X is
    integral every division of the back substitution is exact, so the first inexact one proves
    that X is not."""
    n, width = len(a), len(b[0])
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            rows[i] = [(x * rows[k][k] - rows[i][k] * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = rows[k][k]
    x = [None] * n
    for i in reversed(range(n)):
        rhs = [rows[i][n + c] - sum(rows[i][j] * x[j][c] for j in range(i + 1, n)) for c in range(width)]
        if any(r % rows[i][i] for r in rhs):
            return None
        x[i] = [r // rows[i][i] for r in rhs]
    return tuple(map(tuple, x))


def sympy_invariant_factors(m):
    """Independent oracle: sympy's nonzero invariant factors over ZZ."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors

    return [int(x) for x in invariant_factors(sympy.Matrix([list(r) for r in m])) if x != 0]


def smith_certified(m, dec):
    """True iff unimodular L and R exist with L @ m @ R == dec.diag and L^-1 == dec.left_inv.

    With D = dec.diag, P = dec.left_inv and r the number of nonzero d_i, it checks that
    D is diagonal, nonnegative and a divisor chain; that |det P| == 1; that Y = P^-1 @ m
    is integral, zero past row r, and d_i divides row i; and that the nonzero d_i are
    sympy's invariant factors of m.  The last makes the gcd of the r x r minors of the
    rows Y_i / d_i equal 1, so those rows extend to a unimodular R^-1 with Y @ R = D."""
    from nikulat.intmat import det

    if (len(dec.diag), len(dec.diag[0])) != (len(m), len(m[0])):
        return False
    if any(x for i, row in enumerate(dec.diag) for j, x in enumerate(row) if i != j):
        return False
    diag = dec.diagonal()
    if any(d < 0 for d in diag) or any(b % a if a else b for a, b in zip(diag, diag[1:])):
        return False
    if abs(det(dec.left_inv)) != 1:
        return False
    y = solve(dec.left_inv, m)
    nonzero = [d for d in diag if d]
    r = len(nonzero)
    return (
        y is not None
        and not any(x for row in y[r:] for x in row)
        and not any(x % d for d, row in zip(nonzero, y) for x in row)
        and nonzero == sympy_invariant_factors(m)
    )
