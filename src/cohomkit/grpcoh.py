"""Cochain complex of a finite group with coefficients in a finite abelian
group acted on trivially.

The degree-n cochains are arbitrary maps P^n -> A (not normalized), and the
coboundary is, written additively,

    (d_n f)(p_1, ..., p_{n+1}) = f(p_2, ..., p_{n+1})
        + sum_{i=1..n} (-1)^i f(p_1, ..., p_i p_{i+1}, ..., p_{n+1})
        + (-1)^{n+1} f(p_1, ..., p_n),

so d_{n+1} d_n = 0 and Z^1 = H^1 is the homomorphism group.  Degrees 0..2 are
supported, which covers H^1 and H^2 (the groups classifying central
extensions).

The sum is written once, as the face columns of `_faces`: n + 2 columns,
column i holding the column index of the i-th term (sign (-1)^i) for each
argument tuple; the incidence `_incidence` holds them for every argument
tuple of P^(n+1).  Every value-level d f is one face sum, `_even_odd`: the
even and the odd columns summed over the A-indices of f (`_value_indices`)
through the addition table of A on indices.  `coboundary` returns even
minus odd on `_incidence`, refused past DENSE_CELL_LIMIT face indices,
|P|^(n+1) (n + 2), before it is built; `coboundary_matrix`, the tests'
oracle, adds the columns into a dense integer matrix (refused beyond
DENSE_CELL_LIMIT cells).  No other code builds a full incidence.
`_light_incidence` builds the same columns on Light's rows only, those
whose second argument is the identity or a generator from the irredundant
set of `_generating_set` (q8: i and j, so 192 rows of d_2 and 24 of d_1),
as an `exactmat.IncidenceMatrix`, which exactmat eliminates from the face
columns without a dense matrix (GF(2) column words, or lane columns over
Z/p^e); `_light_coboundary_matrix` hands it out, refused past
DENSE_CELL_LIMIT cells of its own (z64's d_2: 8192 x 4096), so S4,
SL(2, 3) and z32 have H^2 though their full d_2 is over that budget.
For n = 1, 2 the rows have the kernel of the full d_n over every Z/p^e, so
every elimination in the group layer runs on them: `cocycle_space`, the
H^n exponents of `_exponents`, and `ext._class_representatives` and
`ext._solve_coboundary`.  ext's identity tests ask whether the face sums
agree: d_2 omega = 0 on the rows (p, s, r), its witness and
d_1 phi = target one first argument at a time (the trivial action makes
d_0 zero).  The enumeration oracle writes its equations out separately.

Each object derived from a group table is cached by one function, least
recently used first out: the full face columns by `_incidence` (per table
and degree, 32 entries), Light's rows and their `IncidenceMatrix` by
`_light_incidence` (per table, identity and degree, 32), and the H^n
exponents over Z/p^e by `_exponents` (per table, identity, degree, p and
e, 128).  exactmat's `_factored` keeps one factorization of the cached
matrix per modulus, which the kernels of `cocycle_space` and the solves
of `ext._solve_coboundary` read alike.

Two computation routes coexist and are cross-checked in the tests:

* a linear-algebra route over Z: for each cyclic coefficient factor Z_m and
  each p^f exactly dividing m with p | |P|, H^n is read by universal
  coefficients off the elementary divisors of the integer coboundary
  matrices d_n and d_(n-1) over Z/p^e, e = min(f, v_p(|P|) + 1), and Z^n
  is the kernel of d_n mod m over Z/p^f, both on Light's rows;
* exhaustive enumeration, available whenever |A|^(|P|^n) <= 2^20, kept as an
  independent oracle.

Groups are stored by full multiplication table and validated by direct scan
(Latin square, identity) and Light's associativity test on a generating
set; everything here is desk scale.  Every closure under a product is
`_reached`: s3, a4 and q8 (`_closed_group` on permutations and integer
quaternions), generated subgroups, and the graphs of `hom_group`.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from math import gcd, prod
from operator import itemgetter
from typing import Iterable, Sequence

from .exactmat import (DENSE_CELL_LIMIT, IncidenceMatrix, IntegerMatrix, SizeLimitExceeded,
                       _as_int, _as_ints, check_dense, kernel_mod, local_smith_exponents,
                       prime_power_factors)

__all__ = [
    "FiniteGroup",
    "AbelianCoefficients",
    "Cochain",
    "GroupHom",
    "SizeLimitExceeded",
    "coboundary",
    "coboundary_matrix",
    "cocycle_space",
    "CocycleSpaceDescription",
    "cohomology_group",
    "enumerate_cocycles",
    "enumerate_cochains",
    "hom_group",
    "inflation",
    "construct_splitting",
    "group_by_name",
    "coefficients_by_name",
]

ENUMERATION_LIMIT = 2 ** 20


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FiniteGroup:
    """Group of order N as an N x N multiplication table of element indices."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    name: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.order)))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        row = self.table[a]
        return row.index(self.identity)

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.elements() for b in self.elements())

    def validate(self) -> None:
        n, t, e = self.order, self.table, self.identity
        if len(t) != n or any(len(r) != n for r in t):
            raise ValueError("multiplication table is not square of the declared order")
        full = set(range(n))
        for i, row in enumerate(t):
            if set(row) != full:
                raise ValueError(f"row {i} is not a permutation (Latin square fails)")
        columns = list(zip(*t))
        for j, col in enumerate(columns):
            if set(col) != full:
                raise ValueError(f"column {j} is not a permutation (Latin square fails)")
        if not _is_index(e, n):
            raise ValueError(f"declared identity {e!r} is not an element 0..{n - 1}")
        ident = tuple(range(n))
        if tuple(t[e]) != ident or columns[e] != ident:
            a = next(a for a in ident if t[e][a] != a or t[a][e] != a)
            raise ValueError(f"declared identity {e} does not act as identity on {a}")
        # every Latin row holds the identity, so every element has an inverse
        # Light's test: the s with (x s) y = x (s y) for all x, y contain the
        # identity and are closed under products, so checking them on a
        # generating set proves associativity in O(n^2) per generator, row
        # against row: x (s y) is row x read at the entries of row s, and
        # (x s) y is the row of x s.  Only a failure pays for the full scan,
        # which names the first triple.
        if any(any(map(operator.ne, map(itemgetter(*t[s]), t), _gather(t, columns[s])))
               for s in _generating_set(self)):
            for a, b, c in product(range(n), repeat=3):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise ValueError(f"associativity fails on triple ({a}, {b}, {c})")

    # -- constructions -------------------------------------------------------

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]], identity: int | None = None,
                   name: str = "", labels: Sequence[str] = ()) -> "FiniteGroup":
        tab = tuple(map(tuple, table))
        n = len(tab)
        for i, row in enumerate(tab):
            _check_indices(row, n, f"'table' entry [{i}]")
        if identity is None:
            identity = next((e for e in range(n)
                             if all(tab[e][a] == a and tab[a][e] == a for a in range(n))),
                            None)
            if identity is None:
                raise ValueError("table has no identity element")
        g = cls(n, tab, identity, name, tuple(labels))
        g.validate()
        return g

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError(f"cyclic group order must be at least 1, got {n}")
        check_dense(f"z{n} has a {n} x {n} multiplication table", n * n)
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(n, table, 0, f"z{n}")

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup", name: str = "") -> "FiniteGroup":
        n, m = g.order, h.order

        def idx(a, b):
            return a * m + b

        table = tuple(
            tuple(idx(g.mul(a1, a2), h.mul(b1, b2)) for a2 in range(n) for b2 in range(m))
            for a1 in range(n) for b1 in range(m)
        )
        labels = tuple(f"({g.labels[a]},{h.labels[b]})" for a in range(n) for b in range(m))
        return cls(n * m, table, idx(g.identity, h.identity),
                   name or f"{g.name}x{h.name}", labels)

    def subgroup(self, elements: Iterable[int], name: str = "") -> tuple["FiniteGroup", list[int]]:
        """Subgroup on the given (closed) element set; returns the group with
        reindexed table and the embedding new index -> old index."""
        elems = sorted(set(elements))
        pos = {e: i for i, e in enumerate(elems)}
        for a in elems:
            for b in elems:
                if self.mul(a, b) not in pos:
                    raise ValueError(f"set is not closed under multiplication ({a}, {b})")
        table = tuple(tuple(pos[self.mul(a, b)] for b in elems) for a in elems)
        labels = tuple(self.labels[e] for e in elems)
        sub = FiniteGroup(len(elems), table, pos[self.identity],
                          name or f"{self.name}-sub", labels)
        return sub, elems


def _is_index(x, n: int) -> bool:
    """x is an element index of a group of order n: an int in 0..n-1 (a
    bool, float or string is not)."""
    return type(x) is int and 0 <= x < n


def _check_indices(values: Sequence, n: int, where: str) -> None:
    """Refuse the first of `values` that is no element index of a group of
    order n, naming it by `where` and its position."""
    for i, x in enumerate(values):
        if not _is_index(x, n):
            raise ValueError(f"{where}[{i}] is {x!r}, not an integer in 0..{n - 1}")


def _reached(start, gens: Sequence, mul) -> set:
    """The elements reached from `start` by right multiplication mul(x, g)
    with `gens`: from an element of a finite group, the subgroup they generate."""
    reached, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        new = {mul(x, g) for g in gens} - reached
        reached |= new
        frontier += new
    return reached


def _closed_group(gens: Sequence, mul, name: str, key, label) -> FiniteGroup:
    """The group `gens` generate under `mul`, its elements sorted by `key`
    and labelled by `label`; the identity is the one idempotent."""
    elems = sorted(_reached(gens[0], gens, mul), key=key)
    index = {x: i for i, x in enumerate(elems)}
    table = tuple(tuple(index[mul(x, y)] for y in elems) for x in elems)
    identity = next(i for i, row in enumerate(table) if row[i] == i)
    return FiniteGroup(len(elems), table, identity, name, tuple(map(label, elems)))


def _compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(x) = p(q(x)) on permutation tuples."""
    return tuple(map(p.__getitem__, q))


def _hamilton(x: tuple, y: tuple) -> tuple:
    """The Hamilton product of quaternions (w, i, j, k)."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _unit_key(x: tuple) -> tuple[int, bool]:
    """(axis, sign) of a unit quaternion on one axis: 1, -1, i, -i, ... in order."""
    return next((axis, c < 0) for axis, c in enumerate(x) if c)


def _digits(p: tuple) -> str:
    return "".join(map(str, p))


def _unit_label(x: tuple) -> str:
    return "-" * _unit_key(x)[1] + "1ijk"[_unit_key(x)[0]]


_NAMED_GROUPS = {
    "z2": lambda: FiniteGroup.cyclic(2),
    "z3": lambda: FiniteGroup.cyclic(3),
    "z4": lambda: FiniteGroup.cyclic(4),
    "z5": lambda: FiniteGroup.cyclic(5),
    "z6": lambda: FiniteGroup.cyclic(6),
    "z8": lambda: FiniteGroup.cyclic(8),
    "klein4": lambda: FiniteGroup.direct_product(
        FiniteGroup.cyclic(2), FiniteGroup.cyclic(2), name="klein4"),
    "s3": lambda: _closed_group([(1, 0, 2), (0, 2, 1)], _compose, "s3", None, _digits),
    "q8": lambda: _closed_group([(0, 1, 0, 0), (0, 0, 1, 0)], _hamilton, "q8",
                                _unit_key, _unit_label),
    "a4": lambda: _closed_group([(1, 2, 0, 3), (1, 0, 3, 2)], _compose, "a4", None, _digits),
}


def group_by_name(name: str) -> FiniteGroup:
    key = name.strip().lower()
    if key in _NAMED_GROUPS:
        return _NAMED_GROUPS[key]()
    if key.startswith("z") and key[1:].isdigit():
        return FiniteGroup.cyclic(int(key[1:]))
    raise ValueError(f"unknown group name: {name!r} "
                     f"(named: {', '.join(sorted(_NAMED_GROUPS))})")


# ---------------------------------------------------------------------------
# coefficients


@dataclass(frozen=True)
class AbelianCoefficients:
    """Direct sum of cyclic groups Z_{m_1} + ... + Z_{m_r}, written additively;
    elements are residue tuples.  An order that `operator.index` refuses
    is a ValueError naming its factor position."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", _as_ints(self.orders, "coefficient order"))
        if any(m < 2 for m in self.orders):
            raise ValueError("every cyclic factor must have order >= 2")

    @classmethod
    def of(cls, *orders: int) -> "AbelianCoefficients":
        return cls(orders)

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.orders))

    def reduce(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(x % m for x, m in zip(a, self.orders))

    def element_order(self, a: Sequence[int]) -> int:
        result = 1
        for x, m in zip(a, self.orders):
            result = result * (m // gcd(x, m)) // gcd(result, m // gcd(x, m))
        return result

    def elements(self) -> Iterable[tuple[int, ...]]:
        return product(*(range(m) for m in self.orders))

    def index(self, a: Sequence[int]) -> int:
        idx = 0
        for x, m in zip(a, self.orders):
            idx = idx * m + (x % m)
        return idx

    def element(self, idx: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.orders):
            out.append(idx % m)
            idx //= m
        return tuple(reversed(out))

    def as_group(self, name: str = "") -> FiniteGroup:
        """The same abelian group as a multiplication table, elements in
        index order (compatible with `index`/`element`)."""
        orders = tuple(self.orders)
        return FiniteGroup(self.size, _index_addition(orders), 0,
                           name or "+".join(f"z{m}" for m in orders), _index_tables(orders)[1])


@lru_cache(maxsize=32)
def _index_tables(orders: tuple[int, ...]) -> tuple[tuple, tuple[str, ...], tuple[int, ...]]:
    """Beside `as_group`, in the same index order: the elements of
    A = Z_{m_1} + ... + Z_{m_r}, their labels as `as_group` writes them, and
    the negation column (the index of -a at the index of a)."""
    A = AbelianCoefficients(orders)
    elements = tuple(A.elements())
    return (elements, tuple("+".join(map(str, a)) for a in elements),
            tuple(A.index(A.neg(a)) for a in elements))


@lru_cache(maxsize=32)
def _index_addition(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The addition table of A = Z_{m_1} + ... + Z_{m_r} on the indices of
    `_index_tables`, built one cyclic factor at a time: index i m + x plus
    index j m + y is (i + j) m + (x + y mod m).  A table of more than
    DENSE_CELL_LIMIT cells is refused before it is built."""
    n = prod(orders)
    check_dense(f"the coefficient group of order {n} has a {n} x {n} addition table", n * n)
    table: tuple[tuple[int, ...], ...] = ((0,),)
    for m in orders:
        table = tuple(tuple(t * m + (x + y) % m for t in row for y in range(m))
                      for row in table for x in range(m))
    return table


def _value_indices(orders: Sequence[int], values) -> list[int]:
    """`AbelianCoefficients.index` of every value of a table, by Horner's
    rule one coordinate column at a time."""
    idx = [0] * len(values)
    for k, m in enumerate(orders):
        column = map(m.__rmod__, map(itemgetter(k), values))
        idx = list(map(operator.add, map(m.__mul__, idx), column) if k else column)
    return idx


_NAMED_COEFFS = {
    "z2": (2,),
    "z3": (3,),
    "z4": (4,),
    "z2xz2": (2, 2),
    "klein4": (2, 2),
    "z6": (6,),
}


def coefficients_by_name(name: str) -> AbelianCoefficients:
    key = name.strip().lower()
    if key in _NAMED_COEFFS:
        return AbelianCoefficients(_NAMED_COEFFS[key])
    if key.startswith("z") and key[1:].isdigit():
        return AbelianCoefficients((int(key[1:]),))
    try:
        orders = tuple(int(tok) for tok in key.split(","))
    except ValueError:
        raise ValueError(f"unknown coefficient group: {name!r}") from None
    return AbelianCoefficients(orders)


# ---------------------------------------------------------------------------
# cochains


def _arg_index(args: Sequence[int], order: int) -> int:
    """Mixed-radix index of an argument tuple (first argument most significant)."""
    idx = 0
    for p in args:
        idx = idx * order + p
    return idx


@dataclass(frozen=True)
class Cochain:
    """Map P^n -> A stored as a full value table, indexed by the mixed-radix
    argument tuple (degree 0 is a single element)."""

    group: FiniteGroup
    coeffs: AbelianCoefficients
    degree: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.group.order ** self.degree:
            raise ValueError("value table size does not match degree")

    def value(self, *args: int) -> tuple[int, ...]:
        if len(args) != self.degree:
            raise ValueError(f"cochain of degree {self.degree} takes {self.degree} arguments")
        return self.values[_arg_index(args, self.group.order)]

    @classmethod
    def from_function(cls, group: FiniteGroup, coeffs: AbelianCoefficients,
                      degree: int, fn) -> "Cochain":
        vals = tuple(coeffs.reduce(fn(*args))
                     for args in product(group.elements(), repeat=degree))
        return cls(group, coeffs, degree, vals)

    @classmethod
    def zero(cls, group: FiniteGroup, coeffs: AbelianCoefficients, degree: int) -> "Cochain":
        z = coeffs.zero()
        return cls(group, coeffs, degree, tuple(z for _ in range(group.order ** degree)))

    @classmethod
    def random(cls, group: FiniteGroup, coeffs: AbelianCoefficients,
               degree: int, rng) -> "Cochain":
        vals = tuple(tuple(rng.randrange(m) for m in coeffs.orders)
                     for _ in range(group.order ** degree))
        return cls(group, coeffs, degree, vals)

    def is_zero(self) -> bool:
        z = self.coeffs.zero()
        return all(v == z for v in self.values)

    def first_nonzero(self) -> tuple[int, ...] | None:
        """The arguments of the first nonzero value in mixed-radix
        (lexicographic) order, or None for the zero cochain."""
        nonzero = map(operator.ne, self.values, repeat(self.coeffs.zero()))
        return next(compress(product(range(self.group.order), repeat=self.degree), nonzero), None)

    def _same_space(self, other: "Cochain") -> None:
        if (self.group is not other.group and self.group != other.group) or \
                self.coeffs != other.coeffs or self.degree != other.degree:
            raise ValueError("cochains live on different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._same_space(other)
        return Cochain(self.group, self.coeffs, self.degree,
                       _columnwise(operator.add, self.coeffs.orders, self.values, other.values))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._same_space(other)
        return Cochain(self.group, self.coeffs, self.degree,
                       _columnwise(operator.sub, self.coeffs.orders, self.values, other.values))

    def __neg__(self) -> "Cochain":
        return Cochain(self.group, self.coeffs, self.degree,
                       tuple(self.coeffs.neg(a) for a in self.values))

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.group, self.coeffs, self.degree,
                       tuple(self.coeffs.reduce(tuple(k * x for x in v)) for v in self.values))

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "group_order": self.group.order,
            "coefficient_orders": list(self.coeffs.orders),
            "values": [
                {"args": list(args), "value": list(v)}
                for args, v in zip(product(range(self.group.order), repeat=self.degree),
                                   self.values)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, group: FiniteGroup,
                  coeffs: AbelianCoefficients | None = None) -> "Cochain":
        if coeffs is None:
            coeffs = AbelianCoefficients(
                _as_ints(obj["coefficient_orders"], "cochain JSON 'coefficient_orders' position"))
        degree = _as_int(obj["degree"], "cochain JSON 'degree'")
        order = _as_int(obj.get("group_order", group.order), "cochain JSON 'group_order'")
        if order != group.order:
            raise ValueError("cochain JSON was written for a group of different order")
        table = {}
        elements = range(group.order)
        for item in obj["values"]:
            args, value = tuple(item["args"]), item["value"]
            if len(args) != degree or not all(p in elements for p in args):
                raise ValueError(f"cochain JSON arguments {args} are not {degree} "
                                 f"elements of a group of order {group.order}")
            if args in table:
                raise ValueError(f"cochain JSON lists arguments {args} more than once")
            if not isinstance(value, (list, tuple)) or not all(isinstance(x, int) for x in value):
                raise ValueError(f"cochain JSON value at arguments {args} is not a list of "
                                 f"integers")
            table[args] = tuple(value)
        vals = []
        for args in product(range(group.order), repeat=degree):
            if args not in table:
                raise ValueError(f"cochain JSON is missing arguments {args}")
            if len(table[args]) != coeffs.rank:
                raise ValueError(f"cochain JSON value at arguments {args} has "
                                 f"{len(table[args])} coordinates, not {coeffs.rank}")
            vals.append(coeffs.reduce(table[args]))
        return cls(group, coeffs, degree, tuple(vals))


# ---------------------------------------------------------------------------
# the coboundary: one signed incidence of the alternating sum


def _faces(table: tuple[tuple[int, ...], ...], args_list, n: int) -> tuple[tuple[int, ...], ...]:
    """The n + 2 face columns of d_n on the argument tuples `args_list` of
    P^(n+1): column i holds, per tuple, the mixed-radix index of the i-th
    term of the alternating sum, whose sign is (-1)^i."""
    N = len(table)
    cols = [tuple(_arg_index(args[1:], N) for args in args_list)]
    for i in range(n):
        cols.append(tuple(_arg_index(args[:i] + (table[args[i]][args[i + 1]],) + args[i + 2:], N)
                          for args in args_list))
    cols.append(tuple(_arg_index(args[:n], N) for args in args_list))
    return tuple(cols)


@lru_cache(maxsize=32)
def _incidence(table: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """d_n of the group with multiplication table `table` as n + 2 face
    columns over every argument tuple of P^(n+1) in mixed-radix order."""
    return _faces(table, list(product(range(len(table)), repeat=n + 1)), n)


@lru_cache(maxsize=32)
def _light_incidence(table: tuple[tuple[int, ...], ...], identity: int,
                     n: int) -> tuple[tuple[int, ...], IncidenceMatrix]:
    """`_incidence` on Light's rows only, the argument tuples (p, s, ...) of
    P^(n+1) whose second argument lies in S = {1} + `_generating_set`:
    their mixed-radix indices, and d_n on them as the `IncidenceMatrix` of
    their face columns, in mixed-radix order, built without the full
    incidence and unbudgeted (ext reads the columns alone).  There are
    |P| |S| |P|^(n-1) rows, and the generating set is irredundant, so q8
    (S = {1, i, j}) has 192 rows of d_2 and 24 of d_1 out of 512 and 64.

    For n = 1 and 2 these rows of d_n have the kernel of the full d_n with
    values in any abelian group A, Z/p^e in particular:

    * a 1-cochain phi with d_1 phi = 0 on (p, s) has phi(1) = 0 (s = 1) and
      phi(p s) = phi(p) + phi(s), so phi(p w) = phi(p) + phi(w) by
      induction on the length of w as a word in the generators: phi is a
      homomorphism, i.e. d_1 phi = 0;
    * a 2-cochain omega is a cocycle iff d_2 omega vanishes on the rows
      (p, s, r): they are Light's associativity test on the carrier A x P
      of `ext.build_extension`, whose middles (0, s) and (a, 1) generate it.

    Equal kernels make equal images up to isomorphism (both are C^n / ker),
    so over Z/p^e the rows have the exponents of the full d_n.  And
    restricting cocycles to the rows (p, s) is injective: a cocycle c that
    is zero there has c(p, s r) = c(p s, r) - c(s, r) + c(p, s), which
    makes it zero everywhere by induction on word length.  So a 2-cocycle
    t is d_1 phi iff it is on the rows (p, s): c = t - d_1 phi is then a
    cocycle zero there."""
    N = len(table)
    S = sorted({identity, *_generating_set(FiniteGroup(N, table, identity))})
    args_list = [(p, s, *rest) for p in range(N) for s in S
                 for rest in product(range(N), repeat=n - 1)]
    return (tuple(_arg_index(args, N) for args in args_list),
            IncidenceMatrix(len(args_list), N ** n, _faces(table, args_list, n)))


def _gather(seq: Sequence[int], indices: Sequence[int]) -> tuple[int, ...]:
    """(seq[i] for i in indices) as a tuple by one itemgetter, even for one index."""
    return itemgetter(*indices)(seq) if len(indices) > 1 else (seq[indices[0]],)


def _columnwise(op, orders: Sequence[int], xs, ys) -> tuple[tuple[int, ...], ...]:
    """op(x, y) mod m_k on two value tables, one coordinate column at a time."""
    cols = [map(m.__rmod__, map(op, map(itemgetter(k), xs), map(itemgetter(k), ys)))
            for k, m in enumerate(orders)]
    return tuple(zip(*cols)) if cols else ((),) * len(xs)


def _even_odd(orders: tuple[int, ...], idx: Sequence[int], faces) -> list[tuple[int, ...]]:
    """The even and the odd face columns of d f summed over the A-indices
    `idx` of f (`_value_indices`), all coordinates of A at once through
    `_index_addition`: d f is even minus odd on the rows the columns
    cover, and zero there iff the two agree."""
    add = _index_addition(orders)
    sums = [_gather(idx, faces[0]), _gather(idx, faces[1])]
    for i in range(2, len(faces)):
        sums[i % 2] = tuple(map(operator.getitem, _gather(add, sums[i % 2]),
                                _gather(idx, faces[i])))
    return sums


def coboundary(f: Cochain) -> Cochain:
    """d_n f for n <= 2: even minus odd of `_even_odd` on the full
    incidence, refused past DENSE_CELL_LIMIT face indices before it is built."""
    n, N, orders = f.degree, f.group.order, f.coeffs.orders
    if n > 2:
        raise ValueError("coboundary implemented for degrees 0, 1, 2 only")
    check_dense(f"d_{n} of a group of order {N} has {n + 2} face columns of {N ** (n + 1)} "
                f"rows", N ** (n + 1) * (n + 2))
    even, odd = _even_odd(orders, _value_indices(orders, f.values), _incidence(f.group.table, n))
    elements, _, neg = _index_tables(orders)
    diff = map(operator.getitem, _gather(_index_addition(orders), even), _gather(neg, odd))
    return Cochain(f.group, f.coeffs, n + 1, _gather(elements, list(diff)))


def coboundary_matrix(group: FiniteGroup, degree: int) -> IntegerMatrix:
    """Integer matrix of d_degree acting on one cyclic coefficient factor:
    rows indexed by P^{degree+1}, columns by P^{degree}: the dense entries
    of the face columns of `_incidence`, added with their signs +-1.  A
    matrix of more than DENSE_CELL_LIMIT cells is refused before anything
    is built.  No computation here runs on it; the tests take it as their
    oracle."""
    rows, cols = group.order ** (degree + 1), group.order ** degree
    check_dense(f"d_{degree} of a group of order {group.order} is a {rows} x {cols} matrix",
                rows * cols)
    faces = IncidenceMatrix(rows, cols, _incidence(group.table, degree))
    return IntegerMatrix(rows, cols, faces.entries)


def _light_coboundary_matrix(table: tuple[tuple[int, ...], ...], identity: int,
                             degree: int) -> tuple[tuple[int, ...], IncidenceMatrix]:
    """`_light_incidence` of d_degree, degree 1 or 2, whose matrix has the
    full d_degree's kernel over every Z/p^e, refused on every call
    past DENSE_CELL_LIMIT cells.  A nontrivial group has at least
    2 |P|^degree such rows, so past 2 |P|^(2 degree) cells they are
    counted, not built."""
    N, cols = len(table), len(table) ** degree
    if 2 * cols * cols <= DENSE_CELL_LIMIT:
        light = _light_incidence(table, identity, degree)
        rows = light[1].rows
    else:  # refused below
        light, rows = None, cols * (1 + len(_generating_set(FiniteGroup(N, table, identity))))
    check_dense(f"Light's rows of d_{degree} of a group of order {N} are a {rows} x {cols} "
                f"matrix", rows * cols)
    return light


# ---------------------------------------------------------------------------
# Z^n: linear route and enumeration oracle


@dataclass
class CocycleSpaceDescription:
    """Z^n(P, A) as generators with their orders: every cocycle is a sum
    of multiples of the generators, and `order` is |Z^n|.  Elements are
    not listed; `enumerate_cocycles` is the exhaustive oracle."""

    group: FiniteGroup
    coeffs: AbelianCoefficients
    degree: int
    order: int
    generators: list[tuple[Cochain, int]]  # (generator, order in Z^n)


def cocycle_space(group: FiniteGroup, coeffs: AbelianCoefficients,
                  degree: int) -> CocycleSpaceDescription:
    """Z^n as the solution group of d_n f = 0, factor by cyclic factor Z_m:
    `kernel_mod` eliminates d_n over Z/p^e for each p^e exactly dividing m,
    so the generator orders are the invariant factors of the kernel mod m,
    in ascending order.  Factors of equal order share one elimination.

    Only Light's rows of d_n are eliminated, (p, s) or (p, s, r) with s
    the identity or a generator of P: they have the kernel of the full d_n
    over every Z/p^e (see `_light_incidence`), so they give the same Z^n in
    |S| / |P| of the rows, and only their budget applies.  Each generator's
    value table is the factor's column beside shared zero columns."""
    if degree not in (1, 2):
        raise ValueError("cocycle spaces computed for degrees 1 and 2 only")
    _, dmat = _light_coboundary_matrix(group.table, group.identity, degree)
    kernels = {m: kernel_mod(dmat, m) for m in set(coeffs.orders)}
    gens: list[tuple[Cochain, int]] = []
    total = 1
    zeros = (0,) * group.order ** degree
    for fi, m in enumerate(coeffs.orders):
        for vec, order in kernels[m]:
            cols = [zeros] * coeffs.rank
            cols[fi] = vec
            gens.append((Cochain(group, coeffs, degree, tuple(zip(*cols))), order))
            total *= order
    return CocycleSpaceDescription(group, coeffs, degree, total, gens)


def enumerate_cochains(group: FiniteGroup, coeffs: AbelianCoefficients,
                       degree: int) -> Iterable[Cochain]:
    count = coeffs.size ** (group.order ** degree)
    if count > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"enumeration of {count} cochains exceeds the 2^20 bound",
            ENUMERATION_LIMIT, count)
    slots = group.order ** degree
    for combo in product(list(coeffs.elements()), repeat=slots):
        yield Cochain(group, coeffs, degree, combo)


def enumerate_cocycles(group: FiniteGroup, coeffs: AbelianCoefficients,
                       degree: int) -> list[Cochain]:
    """Exhaustive oracle: all f with d f = 0, by scanning every cochain.

    The scan runs on raw coefficient-index tables with the addition table of
    `coeffs.as_group()`, refused past the 2^22-cell dense budget (the full
    search space can reach 2^20 entries); survivors are wrapped into Cochain
    values.
    """
    if degree not in (1, 2):
        raise ValueError("cocycle enumeration implemented for degrees 1 and 2")
    count = coeffs.size ** (group.order ** degree)
    if count > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"enumeration of {count} cochains exceeds the 2^20 bound",
            ENUMERATION_LIMIT, count)
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


# ---------------------------------------------------------------------------
# H^n as invariant factors


def _divisor_chain(primary: dict[int, list[int]]) -> list[int]:
    """Canonical divisor chain of a direct sum of cyclic groups whose orders,
    powers of p, are listed in primary[p]: the i-th factor from the top is
    the product of the i-th largest powers of each p."""
    chains = [sorted(powers, reverse=True) for powers in primary.values()]
    factors = [1] * max(map(len, chains), default=0)
    for chain in chains:
        for i, q in enumerate(chain):
            factors[i] *= q
    return factors[::-1]


@lru_cache(maxsize=128)
def _exponents(table: tuple[tuple[int, ...], ...], identity: int, degree: int,
               p: int, e: int) -> tuple[int, tuple[int, ...]]:
    """How many exponents below e the elementary divisors of d_degree have
    over Z/p^e, and the nonzero ones among them, eliminated on the matrix
    of `_light_coboundary_matrix`, which `_light_incidence` builds once per
    group and degree; one over its budget is refused on every call.

    For degree 1 or 2 the exponents are read off Light's rows of d_degree:
    they have its kernel over Z/p^e (see `_light_incidence`), so their
    image is isomorphic to the full image (both are C^n / ker), and the
    exponents a < e of a matrix over Z/p^e are those of its image, one
    summand Z/p^(e-a) each."""
    exps = local_smith_exponents(_light_coboundary_matrix(table, identity, degree)[1], p, e)
    return len(exps), tuple(x for x in exps if x > 0)


def cohomology_group(group: FiniteGroup, coeffs: AbelianCoefficients,
                     degree: int) -> list[int]:
    """Invariant factors of H^degree(P, A); [] means the trivial group.

    By universal coefficients, one cyclic factor Z_m at a time: the integer
    cochain complex is free, so it splits into summands Z and Z --(x s)--> Z;
    |P| kills its torsion, so every nonzero elementary divisor of d_n divides
    |P|.  For p^f exactly dividing m with p | |P| (other p add nothing), a
    and b are the exponents below e = min(f, v_p(|P|) + 1) of the divisors of
    d_degree and d_(degree-1), read from `_exponents` (one elimination per
    group, degree, p and e, on Light's rows: they give the full d_n's
    exponents); d_0 = 0, as (d_0 a)(p) = a - a under the trivial action,
    so for degree 1 b is empty; the p-part of H^degree(P, Z_m) is
    (Z/p^f)^(k - |a| - |b|) plus Z/p^x for each x > 0 in a and b,
    k = |P|^degree.
    """
    if degree not in (1, 2):
        raise ValueError("cohomology computed for degrees 1 and 2 only")
    valuation = dict(prime_power_factors(group.order))
    parts = [(p, f, min(f, valuation[p] + 1)) for m in coeffs.orders
             for p, f in prime_power_factors(m) if p in valuation]
    k = group.order ** degree
    primary: dict[int, list[int]] = {}
    table, identity = group.table, group.identity
    for p, f, e in parts:
        # d_1 first: its Light's rows are the smaller, so its refusal is named
        len_b, b = _exponents(table, identity, 1, p, e) if degree == 2 else (0, ())
        len_a, a = _exponents(table, identity, degree, p, e)
        powers = primary.setdefault(p, [])
        powers += [p ** f] * (k - len_a - len_b)
        powers += [p ** x for x in a + b]
    return _divisor_chain(primary)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source.order:
            raise ValueError("value table length does not match source order")

    def __call__(self, a: int) -> int:
        return self.values[a]

    def validate(self) -> None:
        if self.values[self.source.identity] != self.target.identity:
            raise ValueError("map does not send identity to identity")
        # v(a b) = v(a) v(b) on row a at once; a failing row is rescanned
        v, target = self.values, self.target.table
        for a, row in enumerate(self.source.table):
            image_row = target[v[a]]
            if _gather(v, row) != _gather(image_row, v):
                b = next(b for b, ab in enumerate(row) if v[ab] != image_row[v[b]])
                raise ValueError(f"multiplicativity fails on pair ({a}, {b})")

    def is_surjective(self) -> bool:
        return set(self.values) == set(self.target.elements())

    def kernel_elements(self) -> list[int]:
        return [a for a in self.source.elements()
                if self.values[a] == self.target.identity]

    @classmethod
    def identity_map(cls, group: FiniteGroup) -> "GroupHom":
        return cls(group, group, tuple(group.elements()))


def _generated(group: FiniteGroup, gens: Sequence[int]) -> set[int]:
    """The subgroup `gens` generate."""
    return _reached(group.identity, gens, lambda x, g: group.table[x][g])


def _generating_set(group: FiniteGroup) -> list[int]:
    """An irredundant generating set of P: the greedy pass picks, in index
    order, each element the picks so far do not generate; then each pick
    that the others already generate is dropped, in order.  One pass
    suffices: a pick kept against a larger set of others is not generated
    by a smaller one.  For q8 the greedy pass picks [-1, i, j] and -1 = i^2
    is dropped."""
    gens: list[int] = []
    generated = {group.identity}
    for e in group.elements():
        if e in generated:
            continue
        gens.append(e)
        generated = _generated(group, gens)
        if len(generated) == group.order:
            break
    for g in list(gens):
        others = [h for h in gens if h != g]
        if len(_generated(group, others)) == group.order:
            gens = others
    return gens


def hom_group(group: FiniteGroup, coeffs: AbelianCoefficients) -> list[GroupHom]:
    """All homomorphisms P -> A, enumerated on the irredundant generating
    set S of `_generating_set`; the independent oracle for H^1.  Images a_s
    extend to one iff the pairs (s, a_s) generate a subgroup of P x A of
    order |P|, its graph.  The |A|^|S| assignments are refused past
    ENUMERATION_LIMIT before anything is built (q8: |S| = 2)."""
    gens = _generating_set(group)
    count = coeffs.size ** len(gens)
    if count > ENUMERATION_LIMIT:
        raise SizeLimitExceeded(
            f"{count} generator assignments exceed the enumeration bound",
            ENUMERATION_LIMIT, count)
    target = coeffs.as_group()
    table, add = group.table, target.table
    homs = []
    for images in product(range(target.order), repeat=len(gens)):
        graph = _reached((group.identity, target.identity), tuple(zip(gens, images)),
                         lambda x, g: (table[x[0]][g[0]], add[x[1]][g[1]]))
        if len(graph) == group.order:
            homs.append(GroupHom(group, target, tuple(a for _, a in sorted(graph))))
    return homs


# ---------------------------------------------------------------------------
# inflation and the splitting construction


def inflation(sigma: GroupHom, f: Cochain) -> Cochain:
    """Pullback of f along sigma: (inflated f)(g_1, ..., g_n) =
    f(sigma g_1, ..., sigma g_n).  Cocycles pull back to cocycles."""
    if sigma.target.order != f.group.order or sigma.target.table != f.group.table:
        raise ValueError("cochain is not defined on the target of sigma")
    if not sigma.is_surjective():
        warnings.warn("inflating along a non-surjective map; the pullback is "
                      "still computed", RuntimeWarning)
    E, image = sigma.source, sigma.values
    values = tuple(f.values[_arg_index([image[g] for g in args], f.group.order)]
                   for args in product(E.elements(), repeat=f.degree))
    return Cochain(E, f.coeffs, f.degree, values)


def construct_splitting(E: FiniteGroup, sigma: GroupHom, extension, phi: Cochain) -> GroupHom:
    """Lift sigma: E -> P through a central extension G of P.

    `extension` is a built CentralExtensionTable over P; `phi` must satisfy
    d_1 phi = omega~, the extension's cocycle inflated along sigma.  The
    returned map U(g) = s(sigma(g)) * i(phi(g)) is a homomorphism E -> G
    with projection o U = sigma.  U is a homomorphism iff d_1 phi = omega~,
    so `U.validate()` decides that once, on the table the caller receives:
    a wrong phi raises its ValueError, "multiplicativity fails on pair
    (a, b)", or "map does not send identity to identity" when phi(1) is not
    u = omega(1, 1).
    """
    if sigma.source.table != E.table:
        raise ValueError("sigma is not defined on E")
    if sigma.target.table != extension.base.table:
        raise ValueError("sigma does not land in the extension's base group")
    G = extension.carrier
    values = []
    for g in E.elements():
        s_idx = extension.section_index(sigma(g))
        i_idx = extension.embed(phi.value(g))
        values.append(G.mul(s_idx, i_idx))
    U = GroupHom(E, G, tuple(values))
    U.validate()
    if _gather(extension.projection.values, values) != tuple(sigma.values):
        raise RuntimeError("lift does not cover sigma")  # unreachable if phi valid
    return U
