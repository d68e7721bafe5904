"""Exact linear algebra over a scalar field (GF(p) or the rationals).

Matrices are lists of row lists.  Pivoting is always "first nonzero in
column order", so every routine is deterministic.
"""

__all__ = ["echelon", "rank", "inverse", "solve", "matmul", "matvec"]


def echelon(rows, field):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    zero = field.zero
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows, field):
    if not rows:
        return 0
    _, pivots = echelon(rows, field)
    return len(pivots)


def inverse(rows, field):
    """Inverse via Gauss-Jordan on (A | I); returns None for a singular matrix."""
    n = len(rows)
    zero, one = field.zero, field.one
    aug = [list(rows[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    m, pivots = echelon(aug, field)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def solve(a_rows, b, field):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    zero = field.zero
    aug = [list(a_rows[i]) + [b[i]] for i in range(nrows)]
    m, pivots = echelon(aug, field)
    # a pivot in the last column means the system is inconsistent
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[_dot(a[i], [b[t][j] for t in range(k)]) for j in range(m)]
            for i in range(n)]


def matvec(a, x):
    return [_dot(row, x) for row in a]


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc
