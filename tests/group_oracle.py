"""Exhaustive oracles for the group layer: every cochain, every cocycle
and a coboundary witness found by search, as the independent cross-check
of the linear algebra on Light's rows.

`grpcoh.cocycle_space` and `cohomology_group` read Z^n and H^n off the
kernels and elementary divisors of d_n on Light's rows, and
`ext._solve_coboundary` solves d_1 phi = target on the rows (p, s).  This
module writes the cocycle equations out in full and scans every cochain,
so it shares no elimination with them: `enumerate_cocycles` checks every
equation of d f = 0 on coefficient indices, and `search_coboundary`
compares `grpcoh.coboundary` of each 1-cochain with the target.  Both
refuse a search space past their bound before scanning it."""

from __future__ import annotations

from itertools import product

from cohomkit.grpcoh import ENUMERATION_LIMIT, Cochain, SizeLimitExceeded, coboundary

SEARCH_LIMIT = 2 ** 16


def _refuse_past_enumeration_limit(group, coeffs, degree: int) -> None:
    count = coeffs.size ** (group.order ** degree)
    if count > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"enumeration of {count} cochains exceeds the 2^20 bound",
            ENUMERATION_LIMIT, count)


def enumerate_cochains(group, coeffs, degree: int):
    """Every degree-n cochain on `group` with values in `coeffs`, in
    mixed-radix order of their value tables; past 2^20 refused."""
    _refuse_past_enumeration_limit(group, coeffs, degree)
    slots = group.order ** degree
    for combo in product(list(coeffs.elements()), repeat=slots):
        yield Cochain(group, coeffs, degree, combo)


def enumerate_cocycles(group, coeffs, degree: int) -> list[Cochain]:
    """All f with d f = 0, by scanning every cochain.

    The scan runs on raw coefficient-index tables with the addition table of
    `coeffs.as_group()`, refused past the 2^22-cell dense budget (the full
    search space can reach 2^20 entries); survivors are wrapped into Cochain
    values.
    """
    if degree not in (1, 2):
        raise ValueError("cocycle enumeration implemented for degrees 1 and 2")
    _refuse_past_enumeration_limit(group, coeffs, degree)
    N = group.order
    size = coeffs.size
    add = coeffs.as_group().table
    elems = [coeffs.element(i) for i in range(size)]
    mul = group.table
    survivors = []
    if degree == 1:
        # f(p) + f(q) = f(pq): the homomorphism equations
        pairs = [(p, q, mul[p][q]) for p in range(N) for q in range(N)]
        for table in product(range(size), repeat=N):
            if all(add[table[p]][table[q]] == table[pq] for p, q, pq in pairs):
                survivors.append(table)
    else:
        # w(q,r) + w(p,qr) = w(pq,r) + w(p,q) for all triples
        checks = [(q * N + r, p * N + mul[q][r], mul[p][q] * N + r, p * N + q)
                  for p in range(N) for q in range(N) for r in range(N)]
        for table in product(range(size), repeat=N * N):
            ok = True
            for a, b, c, d in checks:
                if add[table[a]][table[b]] != add[table[c]][table[d]]:
                    ok = False
                    break
            if ok:
                survivors.append(table)
    return [Cochain(group, coeffs, degree, tuple(elems[i] for i in table))
            for table in survivors]


def search_coboundary(P, A, target: Cochain) -> Cochain | None:
    """The first 1-cochain phi, in mixed-radix order, with d_1 phi equal to
    `target` value for value, or None; past 2^16 candidates refused."""
    count = A.size ** P.order
    if count > SEARCH_LIMIT:
        raise SizeLimitExceeded(
            f"exhaustive equivalence search over {count} cochains exceeds 2^16",
            SEARCH_LIMIT, count)
    for combo in product(list(A.elements()), repeat=P.order):
        phi = Cochain(P, A, 1, combo)
        if coboundary(phi).values == target.values:
            return phi
    return None
