"""The dense Z/p^e sweep for `kernel_mod` and `solve_mod` at every modulus,
the 2 in 6 or 10 included, as an oracle for the packed eliminations.

`exactmat` runs p^e = 2 on a GF(2) column echelon of packed column words
and reads kernels and solutions off the combinations it carries, and runs
p^e > 2 on lane columns, entry (i, c) mod p^e in lane i of word c, with
one multiply-add per pivot and column; this module keeps the one dense
list-of-rows elimination (every prime power, no packing, no zero-row
drops) that both routes must agree with, output for output, and that the
lane engine must match pivot for pivot and row operation for row
operation.
"""

from __future__ import annotations

from math import prod

from cohomkit.exactmat import prime_power_factors


def local_eliminate(rows, ncols: int, p: int, e: int, log: list | None = None):
    """Pivot column by column at valuation v = 0..e-1 over Z/p^e, clearing
    the column in every live row and dropping the pivot row; pivots come
    back as (c, v, inv, row, support), the rows left over as `live`.  A
    `log` list receives (pivot row, [(row, f), ...]) per pivot, rows by
    their index in `rows`: row -= f pivot row."""
    q = p ** e
    fresh = [[x % q for x in r] for r in rows]
    where = {id(row): i for i, row in enumerate(fresh)}
    live = [row for row in fresh if any(row)]
    pivots = []
    for v in range(e):
        pv, above = p ** v, p ** (v + 1)
        for c in range(ncols):
            i = next((i for i, row in enumerate(live) if row[c] % above), None)
            if i is None:
                continue
            piv = live.pop(i)
            inv = pow(piv[c] // pv, -1, q)
            if log is not None:
                log.append((where[id(piv)], [(where[id(row)], row[c] // pv * inv % q)
                                             for row in live if row[c]]))
            support = [(j, x) for j, x in enumerate(piv) if x]
            for row in live:
                if row[c]:
                    f = row[c] // pv * inv % q
                    for j, x in support:
                        row[j] = (row[j] - f * x) % q
            pivots.append((c, v, inv, piv, support))
    return pivots, live


def apply_v(pivots, y, p: int, e: int) -> list[int]:
    """V y mod p^e for the column operations the sweep recorded."""
    x = list(y)
    n = len(x)
    for c, v, inv, _, support in reversed(pivots):
        s = sum(a * x[j] for j, a in support if j != c and j < n)
        if s:
            x[c] = (x[c] - s // p ** v * inv) % p ** e
    return x


def sweep_exponents(m, p: int, e: int) -> list[int]:
    return [v for _, v, *_ in local_eliminate(m.entries, m.cols, p, e)[0]]


def sweep_solve(m, rhs, modulus: int) -> list[int] | None:
    x = [0] * m.cols
    for p, e in prime_power_factors(modulus):
        q = p ** e
        pivots, live = local_eliminate(
            [list(row) + [b] for row, b in zip(m.entries, rhs)], m.cols, p, e)
        if any(row[-1] for row in live):
            return None
        y = [0] * m.cols
        for c, v, inv, piv, _ in pivots:
            if piv[-1] % p ** v:
                return None
            y[c] = piv[-1] // p ** v * inv % q
        w = modulus // q
        crt = w * pow(w, -1, q)
        x = [(a + crt * b) % modulus for a, b in zip(x, apply_v(pivots, y, p, e))]
    return x


def sweep_kernel(m, modulus: int) -> list[tuple[tuple[int, ...], int]]:
    chains = []
    for p, e in prime_power_factors(modulus):
        pivots = local_eliminate(m.entries, m.cols, p, e)[0]
        level = {c: v for c, v, *_ in pivots}
        step = modulus // p ** e
        part = []
        for c in range(m.cols):
            a = level.get(c, e)
            if a:
                y = [p ** (e - a) if j == c else 0 for j in range(m.cols)]
                part.append((p ** a, [x * step for x in apply_v(pivots, y, p, e)]))
        chains.append(sorted(part, key=lambda g: -g[0]))
    gens = []
    for i in range(max(map(len, chains), default=0)):
        links = [chain[i] for chain in chains if i < len(chain)]
        vec = tuple(sum(col) % modulus for col in zip(*(x for _, x in links)))
        gens.append((vec, prod(order for order, _ in links)))
    return gens[::-1]
