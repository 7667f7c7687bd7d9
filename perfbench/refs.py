"""References that do not come from the routes the benchmark times.

Group side: textbook integral homology H_1, H_2 and the universal
coefficient theorem, H^n(G, Z_m) = Hom(H_n G, Z_m) + Ext(H_{n-1} G, Z_m),
plus an alternating-sum coboundary written here from the group table.
Lie side: Betti numbers known from the literature (and, for poincare(d),
Hochschild-Serre: H*(so(1, d-1)) tensored with the translation-invariant
forms in degrees 0 and d), a float closure with numpy ranks, and the
modular spectrum from a numpy partial trace.
"""

from __future__ import annotations

from itertools import product
from math import comb, gcd, prod

# Abelianization H_1 and Schur multiplier H_2 as cyclic orders.
HOMOLOGY = {
    "z2": ((2,), ()),
    "z4": ((4,), ()),
    "z6": ((6,), ()),
    "z8": ((8,), ()),
    "klein4": ((2, 2), (2,)),
    "s3": ((2,), ()),
    "q8": ((2, 2), ()),
    "a4": ((3,), (2,)),
}


def primary(orders) -> tuple[int, ...]:
    """Prime-power decomposition of a direct sum of cyclic groups."""
    parts = []
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                parts.append(q)
            p += 1
    return tuple(sorted(parts))


def uct(group: str, m: int, degree: int) -> tuple[int, ...]:
    """Primary parts of H^degree(group, Z_m) for degree 1 or 2."""
    h1, h2 = HOMOLOGY[group]
    if degree == 1:  # Hom(H_1, Z_m); Ext(H_0 = Z, -) vanishes
        return primary(gcd(k, m) for k in h1)
    return primary([gcd(k, m) for k in h2] + [gcd(k, m) for k in h1])


def h2_order(group: str, orders) -> int:
    return prod(prod(uct(group, m, 2)) for m in orders)


def cocycle_count(group: str, group_order: int, orders) -> int:
    """|Z^2(G, A)| = |B^2| |H^2| with |B^2| = |C^1| / |Z^1| and Z^1 = Hom(G, A)."""
    h1 = HOMOLOGY[group][0]
    homs = prod(gcd(k, m) for k in h1 for m in orders)
    return prod(orders) ** group_order // homs * h2_order(group, orders)


def coboundary_values(table, values, degree: int, orders) -> tuple:
    """d f for a cochain given as its mixed-radix value table."""
    n = len(table)

    def at(args):
        idx = 0
        for p in args:
            idx = idx * n + p
        return values[idx]

    out = []
    for args in product(range(n), repeat=degree + 1):
        terms = [(1, at(args[1:]))]
        sign = -1
        for i in range(degree):
            merged = args[:i] + (table[args[i]][args[i + 1]],) + args[i + 2:]
            terms.append((sign, at(merged)))
            sign = -sign
        terms.append((sign, at(args[:degree])))
        out.append(tuple(sum(s * v[f] for s, v in terms) % m for f, m in enumerate(orders)))
    return tuple(out)


def is_abelian_table(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))


# ---------------------------------------------------------------------------
# Lie algebras

BETTI = {
    "sl2": (1, 0, 0, 1),
    "heisenberg": (1, 2, 2, 1),
    "lorentz4": (1, 0, 0, 2, 0, 0, 1),     # so(1,3) ~ sl(2,C) as a real algebra
    "poincare3": (1, 0, 0, 2, 0, 0, 1),    # (1,0,0,1) x forms in degrees 0 and 3
    "poincare4": (1, 0, 0, 2, 1, 0, 1, 2, 0, 0, 1),  # (1,0,0,2,0,0,1) x degrees 0, 4
    "abelian4": tuple(comb(4, k) for k in range(5)),
}


def poincare_duality_holds(betti) -> bool:
    """Unimodular algebras: b_k = b_{n-k}, and here the Euler characteristic is 0."""
    return tuple(betti) == tuple(reversed(betti)) and \
        sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def float_closure_dim(constants, gens, tol: float = 1e-9) -> int:
    """Dimension of the Lie subalgebra generated by `gens`, by float spans."""
    import numpy as np

    c = np.array([[[float(x) for x in row] for row in plane] for plane in constants])

    def bracket(x, y):
        return np.einsum("i,j,ijk->k", x, y, c)

    def orth(vecs):
        mat = np.array(vecs, dtype=float)
        if not len(mat):
            return mat
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        return vt[s > tol * max(1.0, s[0])]

    basis = orth([np.array([float(x) for x in g]) for g in gens])
    while True:
        grown = orth(list(basis) + [bracket(a, b) for a in basis for b in basis])
        if len(grown) == len(basis):
            return len(basis)
        basis = grown


# ---------------------------------------------------------------------------
# modular theory


def delta_spectrum(state, k: int):
    """Spectrum of Delta for M_k x 1 and a faithful vector state: the ratios
    l_i / l_j of the eigenvalues of the reduced density matrix."""
    import numpy as np

    psi = state.reshape(k, k)
    rho = psi @ psi.conj().T  # partial trace over the second factor
    lam = np.linalg.eigvalsh(rho)
    return np.sort(np.array([a / b for a in lam for b in lam]))
