"""Central extensions of finite groups as concrete multiplication tables.

From a 2-cocycle omega on P with values in A (additive), the carrier group
lives on the set A x P with

    (a, p) * (b, q) = (a + b - omega(p, q), p q),

the additive reading of the multiplicative rule (a,p)(b,q) = (ab w(p,q)^{-1}, pq).
Associativity of this table is literally the cocycle condition, and the
constructor of `CentralExtensionTable` refuses a non-cocycle with a triple
witnessing the failure, so every table is an extension of a cocycle.  The
condition is decided on Light's rows (p, s, r) of d_2, s the identity or a
generator from the irredundant set of `grpcoh._generating_set`, and d_2
omega is scanned, one first argument p at a time, only to name the
triple.  A cocycle is a coboundary d_1 phi iff it is one on the rows
(p, s), so `_solve_coboundary` solves only those, and
`_class_representatives` keys the classes of H^2 by annihilators of d_1
on those rows (see `grpcoh._light_incidence`).  The solves read the
matrix of the rows (p, s) that grpcoh caches per group, and exactmat
factors it once per modulus, so each target costs one reduction against
its pivot columns.  The carrier's index shifts and labels depend on A and
P's labels alone and are built once per pair.

The cocycle test asks whether grpcoh's even and odd face sums
(`grpcoh._even_odd`) agree on A-indices, read mod m by
`grpcoh._value_indices`.  It builds no full incidence: Light's rows
decide the condition, and the witness scan runs one first argument p at
a time.

Each fact is decided once, where its data come in: the cocycle condition
by the `CentralExtensionTable` constructor, so the table, built on first
read of `carrier`, is an extension by construction; d_1 phi = target by
`_solve_coboundary`, whose targets are cocycles; a lift's d_1 phi =
inflated omega by `U.validate()` in `construct_splitting`.  The tests
re-verify every table and witness with `CentralExtensionTable.validate`.

The carrier element (a, p) is encoded as index(a) * |P| + p, fixed so exported
tables are reproducible.  The identity of the carrier is (u, 1) with
u = omega(1, 1), and the kernel embedding is i(a) = (a + u, 1); both collapse
to the obvious ones for normalized cocycles, and nothing here assumes
normalization.

A section s of the projection recovers a cocycle through the group element
s(q) s(pq)^{-1} s(p), which lies in i(A) and works out to (-omega(p, q), 1)
in these coordinates for the canonical section s(p) = (0, p); the sign is
pinned by the round-trip requirement that rebuilding from the recovered
cocycle reproduces omega exactly.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Sequence

from .grpcoh import (
    AbelianCoefficients,
    Cochain,
    CocycleSpaceDescription,
    FiniteGroup,
    GroupHom,
    _even_odd,
    _faces,
    _gather,
    _index_addition,
    _index_tables,
    _light_coboundary_matrix,
    _light_incidence,
    _value_indices,
    cocycle_space,
    construct_splitting,
    inflation,
)
from .exactmat import IntegerMatrix, check_dense, kernel_mod, solve_mod

__all__ = [
    "CentralExtensionTable",
    "Section",
    "NotACocycleError",
    "build_extension",
    "extract_section",
    "cocycle_of_section",
    "are_equivalent",
    "is_split",
    "h1_h2_correspondence_check",
    "CorrespondenceReport",
]

@lru_cache(maxsize=32)
def _carrier_frame(orders: tuple[int, ...], n: int,
                   labels: tuple[str, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """What `CentralExtensionTable.carrier` takes from A and P alone, cached
    per (A's orders, |P|, P's labels): the index shifts T[a], c |P| + r ->
    add[a][c] |P| + r, and the carrier labels "(a,p)" in index order."""
    T = tuple(tuple(c * n + r for c in add_a for r in range(n))
              for add_a in _index_addition(orders))
    return T, tuple(f"({a},{p})" for a in _index_tables(orders)[1] for p in labels)


def _is_cocycle(P: FiniteGroup, orders: tuple[int, ...], idx: Sequence[int]) -> bool:
    """d_2 omega = 0 for the 2-cochain on P whose values have the A-indices
    `idx`, decided on Light's rows (p, s, r) of `_light_incidence` alone
    (|S| / |P| of the full d_2): their even and odd face sums agree."""
    even, odd = _even_odd(orders, idx, _light_incidence(P.table, P.identity, 2)[1].columns)
    return even == odd


def _first_failure(P: FiniteGroup, orders: tuple[int, ...],
                   idx: Sequence[int]) -> tuple[int, int, int]:
    """The first (p, q, r) in mixed-radix order where d_2 omega is nonzero,
    for the 2-cochain on P with A-indices `idx` that is no cocycle, scanned
    one first argument p at a time: |P|^2 rows of d_2 at once, not |P|^3."""
    N = P.order
    for p in range(N):
        args = [(p, q, r) for q in range(N) for r in range(N)]
        even, odd = _even_odd(orders, idx, _faces(P.table, args, 2))
        bad = next(compress(args, map(operator.ne, even, odd)), None)
        if bad is not None:
            return bad
    raise RuntimeError("a cochain that fails Light's test has no failing triple")  # impossible


class NotACocycleError(ValueError):
    """The 2-cochain fails the cocycle condition; `triple` is a witness
    (p, q, r) where associativity of the would-be table breaks."""

    def __init__(self, message: str, triple: tuple[int, int, int]):
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class CentralExtensionTable:
    """The central extension 1 -> A -> G -> P -> 1 of the 2-cocycle omega.

    The fields are the data: the base P, the kernel A and omega.  The
    carrier G and the projection G -> P are derived from them on first read
    of `carrier` and `projection`, and kept on the instance, so a question
    about the class of omega alone (`is_split` without a splitting,
    `are_equivalent`) never builds the |A||P| x |A||P| table.  Equality and
    hashing compare (base, kernel, cocycle).

    Every instance is an extension of a cocycle: the constructor refuses a
    cochain that is not of degree 2 on P with values in A, then a carrier
    table of more than DENSE_CELL_LIMIT cells (though the table itself is
    built only on first read of `carrier`), then a non-cocycle, with the
    violating triple, the arguments of the first nonzero value of d_2
    omega; the cocycle condition is exactly associativity of the table.
    It is decided on Light's rows (p, s, r) of d_2 alone, s the identity or
    a generator of P (the middles (0, s) and (a, 1) generate the carrier),
    by `_is_cocycle` on the A-indices of omega that the table is built
    from; only a failure pays for d_2 omega, scanned by `_first_failure` up
    to the triple it names.  For a cocycle, all that `validate` checks
    holds by construction, so the table is not validated again:
    d_2 omega (1, 1, q) = d_2 omega (p, 1, 1) = 0 give
    omega(1, q) = omega(p, 1) = u, so (u, 1) is a two-sided identity and
    i(a) = (a + u, 1) commutes with every (b, q); every row (b, q) ->
    (a + b - omega(p, q), pq), and every column, is a permutation;
    pi(a, p) = p is a surjective homomorphism with kernel i(A);
    associativity is d_2 omega = 0.
    """

    base: FiniteGroup            # P
    kernel: AbelianCoefficients  # A
    cocycle: Cochain             # omega, degree 2

    def __post_init__(self):
        P, A, omega = self.base, self.kernel, self.cocycle
        if omega.degree != 2 or omega.group.table != P.table or omega.coeffs != A:
            raise ValueError("omega must be a degree-2 cochain on P with values in A")
        n, K = P.order, A.size
        size = K * n
        check_dense(f"an extension of a group of order {n} by one of order {K} has a "
                    f"{size} x {size} multiplication table", size * size)
        if not _is_cocycle(P, A.orders, self._omega_indices):
            bad = _first_failure(P, A.orders, self._omega_indices)
            raise NotACocycleError(
                f"cochain is not a 2-cocycle: associativity of the extension "
                f"table fails on triple {bad}", bad)

    @cached_property
    def _omega_indices(self) -> list[int]:
        """omega's values as A-indices, read mod m: what the cocycle test of
        the constructor and the `carrier` table are both computed from."""
        return _value_indices(self.kernel.orders, self.cocycle.values)

    @cached_property
    def carrier(self) -> FiniteGroup:
        """G on A x P with (a, p)(b, q) = (a + b - omega(p, q), pq).

        The table is built in whole blocks.  The products (0, p)(0, q) =
        (-omega(p, q), pq) come as one list over all (p, q); row (a, p) is
        row (0, p) under T[a], which adds a to the A-coordinate (c |P| + r ->
        add[a][c] |P| + r, with `add` the addition table of A on indices),
        i.e. multiplies by the central i(a).  So K = |A| gathers of T[b] over
        that list give the |P| base rows (0, p), and K gathers of T[a] over
        the concatenated base rows (|P| K |P| entries each) give the whole
        table, sliced into its K |P| rows.  T and the carrier labels come
        from `_carrier_frame`, built once per (A's orders, P's labels).
        """
        P, A, idx = self.base, self.kernel, self._omega_indices
        n, K = P.order, A.size
        size = K * n
        T, labels = _carrier_frame(A.orders, n, P.labels)
        # (0, p)(0, q) = (-omega(p, q), pq) for all (p, q); T[b] of it is (0, p)(b, q)
        first = list(map(operator.add, map(n.__mul__, _gather(_index_tables(A.orders)[2], idx)),
                         chain.from_iterable(P.table)))
        by_b = [_gather(T_b, first) for T_b in T]
        # the base rows (0, p) concatenated, entries (0, p)(b, q) in (p, b, q) order
        base = list(chain.from_iterable(products[i:i + n] for i in range(0, n * n, n)
                                        for products in by_b))
        # rows (a, p) in (a, p) order: the block T[a] of base, sliced
        table = [block[i:i + size] for block in (_gather(T_a, base) for T_a in T)
                 for i in range(0, n * size, size)]
        identity = idx[P.identity * n + P.identity] * n + P.identity
        return FiniteGroup(size, tuple(table), identity,
                           f"ext({P.name};{','.join(map(str, A.orders))})", labels)

    @cached_property
    def projection(self) -> GroupHom:
        """pi(a, p) = p, the projection G -> P."""
        return GroupHom(self.carrier, self.base, tuple(range(self.base.order)) * self.kernel.size)

    @property
    def normalizer(self) -> tuple[int, ...]:
        """u = omega(1, 1); the carrier identity is (u, 1)."""
        e = self.base.identity
        return self.cocycle.value(e, e)

    def index_of(self, a: Sequence[int], p: int) -> int:
        return self.kernel.index(a) * self.base.order + p

    def decompose(self, g: int) -> tuple[tuple[int, ...], int]:
        a_idx, p = divmod(g, self.base.order)
        return self.kernel.element(a_idx), p

    def embed(self, a: Sequence[int]) -> int:
        """The kernel embedding i: A -> G, i(a) = (a + u, 1)."""
        return self.index_of(self.kernel.add(a, self.normalizer), self.base.identity)

    def section_index(self, p: int) -> int:
        """Canonical section value s(p) = (0, p) as a carrier index."""
        return self.index_of(self.kernel.zero(), p)

    def kernel_image(self) -> list[int]:
        """i(a) for every a of A in index order, read off the addition table."""
        N, e = self.base.order, self.base.identity
        u = self.kernel.index(self.normalizer)
        return [row[u] * N + e for row in _index_addition(self.kernel.orders)]

    def validate(self) -> None:
        """Exactness of 1 -> A -> G -> P -> 1 with central i(A), by scan on
        carrier indices."""
        G, N, K = self.carrier, self.base.order, self.kernel.size
        add = _index_addition(self.kernel.orders)
        G.validate()
        if G.order != K * N:
            raise ValueError("carrier order is not |A| * |P|")
        img = self.kernel_image()
        if len(set(img)) != K:
            raise ValueError("kernel embedding is not injective")
        for x, add_a in zip(img, add):
            if _gather(G.table[x], img) != _gather(img, add_a):
                raise ValueError("kernel embedding is not a homomorphism")
        self.projection.validate()
        if not self.projection.is_surjective():
            raise ValueError("projection is not surjective")
        if sorted(self.projection.kernel_elements()) != sorted(img):
            raise ValueError("kernel of the projection is not the embedded A")
        for x in img:
            if any(map(operator.ne, G.table[x], map(itemgetter(x), G.table))):
                raise ValueError(f"embedded kernel element {x} is not central")

    def to_json(self) -> str:
        return json.dumps({
            "base": {"order": self.base.order, "table": [list(r) for r in self.base.table],
                     "identity": self.base.identity},
            "kernel": list(self.kernel.orders),
            "cocycle": self.cocycle.to_json(),
            "carrier": {"order": self.carrier.order,
                        "table": [list(r) for r in self.carrier.table],
                        "identity": self.carrier.identity},
            "projection": list(self.projection.values),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CentralExtensionTable":
        """The extension a `to_json` document describes, rebuilt from its
        base table, kernel and cocycle.  The document must be the one the
        rebuilt extension writes, key for key (orders, identities, tables
        and the projection); a ValueError names the first key path where it
        is not."""
        obj = json.loads(text)
        base = FiniteGroup.from_table(obj["base"]["table"], obj["base"]["identity"])
        kernel = AbelianCoefficients(tuple(obj["kernel"]))
        omega = Cochain.from_json(obj["cocycle"], base, kernel)
        ext = build_extension(base, kernel, omega)
        rebuilt = ext.to_json()
        if json.dumps(obj, sort_keys=True) != rebuilt:
            path = _first_difference(obj, json.loads(rebuilt), "")
            raise ValueError(f"stored {path} does not match the extension its cocycle builds")
        return ext


def _first_difference(stored, rebuilt, path: str) -> str | None:
    """The key path of the first place, keys in sorted order, where two
    JSON documents differ, types included (1.0 is not 1), or None."""
    if type(stored) is not type(rebuilt):
        return path
    if isinstance(rebuilt, dict):
        for key in sorted(stored.keys() | rebuilt.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in stored or key not in rebuilt:
                return sub
            found = _first_difference(stored[key], rebuilt[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(rebuilt, list):
        for i, (a, b) in enumerate(zip(stored, rebuilt)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        shorter = min(len(stored), len(rebuilt))
        return None if len(stored) == len(rebuilt) else f"{path}[{shorter}]"
    return None if stored == rebuilt else path


@dataclass(frozen=True)
class Section:
    """Right inverse of the projection: carrier indices s(p) with pi(s(p)) = p."""

    extension: CentralExtensionTable
    values: tuple[int, ...]

    def __post_init__(self):
        for p in self.extension.base.elements():
            if self.extension.projection(self.values[p]) != p:
                raise ValueError(f"section fails pi(s({p})) = {p}")

    def __call__(self, p: int) -> int:
        return self.values[p]


def build_extension(P: FiniteGroup, A: AbelianCoefficients,
                    omega: Cochain) -> CentralExtensionTable:
    """The group on A x P with multiplication (a+b-omega(p,q), pq):
    `CentralExtensionTable(P, A, omega)`, which refuses an oversized
    carrier and a non-cocycle (`NotACocycleError`, with the violating
    triple) before anything is read."""
    return CentralExtensionTable(P, A, omega)


def extract_section(ext: CentralExtensionTable, convention: str = "canonical",
                    seed: int | None = None) -> Section:
    """`canonical` picks s(p) = (0, p); `random` lifts each p to a uniformly
    random preimage (seeded), still a section by construction."""
    if convention == "canonical":
        values = tuple(ext.section_index(p) for p in ext.base.elements())
    elif convention == "random":
        if seed is None:
            raise ValueError("random sections require a seed")
        rng = random.Random(seed)
        a_list = list(ext.kernel.elements())
        values = tuple(ext.index_of(rng.choice(a_list), p) for p in ext.base.elements())
    else:
        raise ValueError(f"unknown section convention: {convention!r}")
    return Section(ext, values)


def cocycle_of_section(ext: CentralExtensionTable, s: Section) -> Cochain:
    """The cocycle of a section, from the group element s(q) s(pq)^{-1} s(p).

    That product lies in the embedded kernel; read through the embedding
    i(a) = (a + u, 1) it equals -omega(p, q) plus the coboundary of the
    section's A-coordinate, so negating gives back a cocycle in the class of
    omega.  For the canonical section the round trip
    cocycle_of_section(build_extension(P, A, w), canonical) == w holds
    exactly, normalized or not.

    The products are read for all pairs (p, q) at once, by whole-row
    gathers: s(pq)^{-1} from the inverses of the |P| section values, then
    two lookups in the carrier table per pair.
    """
    G, N, A = ext.carrier.table, ext.base.order, ext.kernel
    sec = s.values
    inv = [G[x].index(ext.carrier.identity) for x in sec]
    left = map(operator.getitem, _gather(G, sec * N),
               _gather(inv, list(chain.from_iterable(ext.base.table))))
    g = list(map(operator.getitem, _gather(G, list(left)),
                 chain.from_iterable(map(repeat, sec, repeat(N)))))
    if set(map(N.__rmod__, g)) != {ext.base.identity}:
        raise RuntimeError("section product escaped the kernel")  # impossible
    # g = (a, 1) and the value is u - a: -a through the negation column,
    # then u added through the addition table, on indices
    elements, _, neg = _index_tables(A.orders)
    add_u = _index_addition(A.orders)[A.index(ext.normalizer)]
    values = _gather(elements, _gather(add_u, _gather(neg, list(map(N.__rfloordiv__, g)))))
    return Cochain(ext.base, A, 2, values)


def _solve_coboundary(P: FiniteGroup, A: AbelianCoefficients,
                      target: Cochain) -> Cochain | None:
    """phi with d_1 phi = target, solved factor by factor mod each cyclic
    order; None when target is not a coboundary.

    The target must be a cocycle, as every caller's is: the cocycle of a
    `CentralExtensionTable`, a difference of two, or the inflation of one.
    For a cocycle, Light's rows (p, s) of d_1 decide, s the identity or a
    generator of P (|P| |S| rows instead of |P|^2): restriction to them is
    injective on cocycles (see `grpcoh._light_incidence`), so a phi that
    solves them solves all of d_1, the target read mod m.  The matrix is
    the one grpcoh caches per group, so it is eliminated once per modulus
    and each target is reduced against its pivot columns.  Only the rows'
    budget applies: z320 (640 x 320) is solved though its full d_1 is over
    DENSE_CELL_LIMIT, and z1450 (2900 x 1450) is refused on every call
    before its rows are built.
    """
    rows, dmat = _light_coboundary_matrix(P.table, P.identity, 1)
    rhs = _gather(target.values, rows)
    per_factor: list[list[int]] = []
    for fi, m in enumerate(A.orders):
        sol = solve_mod(dmat, list(map(itemgetter(fi), rhs)), m)
        if sol is None:
            return None
        per_factor.append(sol)
    vals = tuple(tuple(per_factor[fi][p] for fi in range(A.rank))
                 for p in range(P.order))
    return Cochain(P, A, 1, vals)


def are_equivalent(ext1: CentralExtensionTable,
                   ext2: CentralExtensionTable) -> Cochain | None:
    """Equivalence witness phi with omega1 - omega2 = d_1 phi, or None.

    omega1 - omega2 is a cocycle, so `_solve_coboundary` decides it on
    Light's rows (p, s).  The coordinate map F(a, p) = (a + phi(p), p) from
    ext2's carrier to ext1's is then an isomorphism: it is a homomorphism
    iff d_1 phi = omega1 - omega2, and its form makes it bijective, commuting
    with both projections and fixing the embedded kernel (phi(1) = u1 - u2).
    The direction is fixed by the sign convention of the multiplication rule.
    """
    if ext1.base.table != ext2.base.table:
        raise ValueError("extensions have different base groups")
    if ext1.kernel != ext2.kernel:
        raise ValueError("extensions have different kernels")
    return _solve_coboundary(ext1.base, ext1.kernel, ext1.cocycle - ext2.cocycle)


def is_split(ext: CentralExtensionTable) -> GroupHom | None:
    """A section that is a homomorphism, or None; exists iff the cocycle is a
    coboundary.  The splitting is the lift of id_P through the extension,
    s(p) = (phi(p), p) for the phi of `_solve_coboundary` (d_1 phi = omega
    on all of d_1); `construct_splitting` validates it as a homomorphism."""
    phi = _solve_coboundary(ext.base, ext.kernel, ext.cocycle)
    if phi is None:
        return None
    return construct_splitting(ext.base, GroupHom.identity_map(ext.base), ext, phi)


# ---------------------------------------------------------------------------
# the H^1(S, A) ~ H^2(P, A) correspondence check


@dataclass
class CorrespondenceReport:
    cover_name: str
    base_name: str
    kernel_order: int
    h1_order: int                     # |Hom(S, A)|
    h2_order: int                     # number of H^2(P, A) classes
    applicable: bool
    failing_class: int | None
    class_to_hom: list[dict]          # one entry per class when applicable
    injective: bool

    def to_json(self) -> dict:
        return {
            "cover": self.cover_name,
            "base": self.base_name,
            "kernel_order": self.kernel_order,
            "h1_S_order": self.h1_order,
            "h2_P_order": self.h2_order,
            "applicable": self.applicable,
            "failing_class": self.failing_class,
            "orders_match": self.h1_order == self.h2_order,
            "map_injective": self.injective,
            "class_to_hom": self.class_to_hom,
        }


def _class_representatives(space: CocycleSpaceDescription) -> list[Cochain]:
    """One cocycle per class of H^2, told apart by linear keys.

    A cocycle z is a coboundary iff its restriction R z to Light's rows
    (p, s) lies in the image of R d_1: if R z = R d_1 phi, then
    z - d_1 phi is a cocycle zero on those rows, hence zero (restriction
    is injective on cocycles, see `grpcoh._light_incidence`).  Over Z/m,
    R z is in that image exactly when every y with (R d_1)^T y = 0
    (mod m) annihilates it (the dot product on (Z/m)^r is a perfect
    pairing), so the key y . R z_k mod m_k, over each factor k and each
    `kernel_mod` generator y, decides the class.  The keys are linear, so
    they split the cocycles into the classes the full d_1 would.  From
    the zero cocycle the walk adds the generators to each representative,
    first in first out, and keeps the first cocycle that reaches each new
    key."""
    P, A = space.group, space.coeffs
    if space.degree != 2:
        raise ValueError("class representatives are computed for H^2 only")
    rows, d = _light_coboundary_matrix(P.table, P.identity, 1)
    d_t = IntegerMatrix(d.cols, d.rows, tuple(zip(*d.entries)))
    annihilators = {m: [y for y, _ in kernel_mod(d_t, m)] for m in set(A.orders)}
    moduli = [m for m in A.orders for _ in annihilators[m]]
    restricted = [(g, _gather(g.values, rows)) for g, _ in space.generators]
    steps = [(g, tuple(sum(yc * v[k] for yc, v in zip(y, z)) % m
                       for k, m in enumerate(A.orders) for y in annihilators[m]))
             for g, z in restricted]
    reps = {(0,) * len(moduli): Cochain.zero(P, A, space.degree)}
    keys = list(reps)
    for zk in keys:
        for g, gk in steps:
            nk = tuple((a + b) % m for a, b, m in zip(zk, gk, moduli))
            if nk not in reps:
                reps[nk] = reps[zk] + g
                keys.append(nk)
    return list(reps.values())


def h1_h2_correspondence_check(E: FiniteGroup, sigma: GroupHom,
                               A: AbelianCoefficients) -> CorrespondenceReport:
    """Compare |H^1(S, A)| with |H^2(P, A)| for S = ker sigma, and exhibit the
    class-to-homomorphism map whenever every class of H^2(P, A) splits after
    inflation to E.

    The map sends the class of omega to the restriction to S of the lift
    U: E -> G(omega); that restriction lands in the embedded kernel, hence
    reads as a homomorphism S -> A.  Failure of inflation-splitting for some
    class is reported as non-applicability (the cover is not algebraically
    simply connected enough), not as an error.

    Nothing is enumerated: |H^1(S, A)| = |Z^1(S, A)| = |Hom(S, A)| comes from
    `cocycle_space`, and the classes of H^2(P, A) from `_class_representatives`.
    """
    if sigma.source.table != E.table:
        raise ValueError("sigma is not defined on E")
    sigma.validate()
    if not sigma.is_surjective():
        raise ValueError("sigma must be surjective onto the base group")
    P = sigma.target
    s_group, s_embedding = E.subgroup(sigma.kernel_elements(), name="ker(sigma)")
    for s_old in s_embedding:
        if any(map(operator.ne, E.table[s_old], map(itemgetter(s_old), E.table))):
            raise ValueError("kernel of sigma is not central; "
                             "(E, sigma) is not a central extension")
    h1_order = cocycle_space(s_group, A, 1).order  # Z^1 = Hom(S, A)

    space = cocycle_space(P, A, 2)
    reps = _class_representatives(space)
    h2_order = len(reps)

    class_to_hom: list[dict] = []
    psi_tables: list[tuple] = []
    for ci, omega in enumerate(reps):
        ext = build_extension(P, A, omega)
        omega_tilde = inflation(sigma, omega)
        phi = _solve_coboundary(E, A, omega_tilde)
        if phi is None:
            return CorrespondenceReport(
                E.name, P.name, s_group.order, h1_order, h2_order,
                applicable=False, failing_class=ci, class_to_hom=[], injective=False)
        U = construct_splitting(E, sigma, ext, phi)
        # U covers sigma, so U(s) = (a, 1) for s in ker sigma; psi(s) = a - u
        psi_t = tuple(A.sub(ext.decompose(U(s))[0], ext.normalizer) for s in s_embedding)
        psi_tables.append(psi_t)
        class_to_hom.append({
            "class_index": ci,
            "cocycle_values": [list(v) for v in omega.values],
            "hom_on_kernel": [list(v) for v in psi_t],
        })
    injective = len(set(psi_tables)) == len(psi_tables)
    return CorrespondenceReport(
        E.name, P.name, s_group.order, h1_order, h2_order,
        applicable=True, failing_class=None,
        class_to_hom=class_to_hom, injective=injective)
