import random
import time
import tracemalloc
import warnings
from itertools import permutations, product
from math import gcd, prod

import pytest

from cohomkit.grpcoh import (
    AbelianCoefficients,
    Cochain,
    FiniteGroup,
    GroupHom,
    SizeLimitExceeded,
    coboundary,
    coboundary_matrix,
    cocycle_space,
    coefficients_by_name,
    cohomology_group,
    enumerate_cochains,
    enumerate_cocycles,
    group_by_name,
    hom_group,
    inflation,
)
from cohomkit import grpcoh
from cohomkit.ext import build_extension
from cohomkit.exactmat import kernel_mod, local_smith_exponents, prime_power_factors
from cohomkit.grpcoh import _incidence
from scan_oracle import assert_validate_matches_full_scan

GROUPS = ["z2", "z3", "z4", "klein4", "s3", "q8"]
COEFFS = ["z2", "z3", "z4", "z2xz2"]


def enumeration_feasible(P, A, degree=2):
    return A.size ** (P.order ** degree) <= 2 ** 20


# ---------------------------------------------------------------------------
# groups


@pytest.mark.parametrize("name", GROUPS + ["a4", "z6", "z5", "z8"])
def test_builtin_groups_validate(name):
    # Light's test reaches the verdict of the full O(N^3) scan
    assert assert_validate_matches_full_scan(group_by_name(name)) is None


def test_q8_element_order_profile():
    q8 = group_by_name("q8")
    orders = sorted(q8.element_order(g) for g in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_s3_not_abelian_z6_abelian():
    assert not group_by_name("s3").is_abelian()
    assert group_by_name("z6").is_abelian()


def test_latin_square_violation_detected():
    with pytest.raises(ValueError):
        FiniteGroup.from_table([[0, 0], [1, 1]])


def _intercalate_swaps(P):
    """Tables of P with one 2 x 2 subsquare t[a][c] = t[b][d], t[a][d] = t[b][c]
    (a, b, c, d away from the identity) swapped: Latin squares with the
    same identity, most of them no longer associative."""
    t, e = P.table, P.identity
    rest = [x for x in P.elements() if x != e]
    for a, b in product(rest, repeat=2):
        for c, d in product(rest, repeat=2):
            if a < b and c < d and t[a][c] == t[b][d] and t[a][d] == t[b][c]:
                table = [list(row) for row in t]
                table[a][c], table[a][d] = table[a][d], table[a][c]
                table[b][c], table[b][d] = table[b][d], table[b][c]
                yield FiniteGroup(P.order, tuple(map(tuple, table)), e, f"{P.name}-swap")


def test_light_test_matches_full_scan_on_latin_squares():
    verdicts = []
    for name in ("z4", "klein4", "z6", "s3", "z8", "q8"):
        for swapped in _intercalate_swaps(group_by_name(name)):
            verdicts.append(assert_validate_matches_full_scan(swapped))
    assert sum(v is not None and v.startswith("associativity") for v in verdicts) >= 20
    # one row with two entries swapped is no longer a Latin square
    t = [list(row) for row in group_by_name("s3").table]
    t[1][2], t[1][3] = t[1][3], t[1][2]
    assert "Latin" in assert_validate_matches_full_scan(
        FiniteGroup(6, tuple(map(tuple, t)), 0, "s3-row-swap"))


@pytest.mark.parametrize("identity", [-1, 3, True, 0.0, "0", None])
def test_identity_outside_the_elements_is_refused_by_name(identity):
    # z3 relabelled so that its identity is the last element, 2: -1 would
    # index it, and True would pass as 1
    z3 = FiniteGroup(3, ((1, 2, 0), (2, 0, 1), (0, 1, 2)), identity, "z3-last")
    message = assert_validate_matches_full_scan(z3)
    assert message == f"declared identity {identity!r} is not an element 0..2"
    assert assert_validate_matches_full_scan(
        FiniteGroup(3, z3.table, 2, "z3-last")) is None


@pytest.mark.parametrize("entry", [1.0, True, "1", -1, 2, None])
def test_from_table_refuses_an_entry_that_is_no_element_index(entry):
    with pytest.raises(ValueError) as err:
        FiniteGroup.from_table([[0, 1], [1, entry]])
    assert str(err.value) == f"'table' entry [1][1] is {entry!r}, not an integer in 0..1"


def test_associativity_violation_detected():
    # a Latin square that is not a group table (order-5 quasigroup)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup.from_table(table, identity=0)
    # a loop: Light's test fails, and the fallback scan names the oracle's triple
    loop = FiniteGroup(5, tuple(map(tuple, table)), 0, "loop5")
    assert assert_validate_matches_full_scan(loop) == "associativity fails on triple (1, 1, 2)"


def _permutation_oracle(n, even_only=False):
    """Order, table, identity and labels of S_n (A_n when even_only),
    written out independently of the closure under generators:
    itertools.permutations in lexicographic order, filtered by parity,
    composed as (p o q)(x) = p(q(x))."""
    def parity(p):
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) % 2

    perms = [p for p in permutations(range(n)) if not even_only or parity(p) == 0]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms)
    return len(perms), table, index[tuple(range(n))], tuple("".join(map(str, p)) for p in perms)


def _q8_oracle():
    """The same for Q8 from the multiplication of the units 1, i, j, k:
    element 2 axis + (1 if negative), labelled 1, -1, i, -i, j, -j, k, -k."""
    unit = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = []
    for x in range(8):
        row = []
        for y in range(8):
            sign, axis = unit[(x // 2, y // 2)]
            sign *= (-1) ** (x % 2 + y % 2)
            row.append(2 * axis + (sign < 0))
        table.append(tuple(row))
    return 8, tuple(table), 0, ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


@pytest.mark.parametrize("name, oracle", [
    ("s3", lambda: _permutation_oracle(3)),
    ("a4", lambda: _permutation_oracle(4, even_only=True)),
    ("q8", _q8_oracle),
])
def test_named_groups_closed_from_generators_match_their_tables(name, oracle):
    P = group_by_name(name)
    assert (P.order, P.table, P.identity, P.labels) == oracle()
    assert P.name == name


def test_subgroup_extraction():
    z4 = group_by_name("z4")
    sub, embedding = z4.subgroup([0, 2])
    sub.validate()
    assert sub.order == 2
    assert embedding == [0, 2]
    with pytest.raises(ValueError):
        z4.subgroup([0, 1, 2])  # not closed


def test_direct_product_structure():
    k4 = group_by_name("klein4")
    assert k4.order == 4
    assert all(k4.element_order(g) in (1, 2) for g in k4.elements())


# ---------------------------------------------------------------------------
# coefficients


def test_coefficient_arithmetic():
    A = AbelianCoefficients((2, 3))
    assert A.size == 6
    assert A.add((1, 2), (1, 2)) == (0, 1)
    assert A.neg((1, 1)) == (1, 2)
    assert A.element(A.index((1, 2))) == (1, 2)
    assert A.element_order((1, 2)) == 6
    assert A.element_order((0, 0)) == 1


def test_coefficients_as_group_consistent_indexing():
    A = coefficients_by_name("z2xz2")
    G = A.as_group()
    G.validate()
    for a in A.elements():
        for b in A.elements():
            assert G.mul(A.index(a), A.index(b)) == A.index(A.add(a, b))


@pytest.mark.parametrize("orders", [(2,), (6,), (2, 4), (4, 2), (3, 2, 2)])
def test_as_group_reads_the_one_index_addition_table(orders):
    A = AbelianCoefficients(orders)
    G = A.as_group()
    G.validate()
    assert G.table is grpcoh._index_addition(orders)
    assert G.table == tuple(tuple(A.index(A.add(a, b)) for b in A.elements())
                            for a in A.elements())


def test_coefficient_orders_must_be_nontrivial():
    with pytest.raises(ValueError):
        AbelianCoefficients((1, 2))


@pytest.mark.parametrize("orders, where", [((4.0,), "0: 4.0"), (("4",), "0: '4'"),
                                           ((2, 4.5), "1: 4.5")])
def test_coefficient_orders_that_are_no_integer_are_refused(orders, where):
    # (4.0,) once gave Z^1(Z2, Z4.0) with the values ((0.0,), (2.0,))
    with pytest.raises(ValueError, match=rf"^coefficient order {where} is not an integer$"):
        AbelianCoefficients(orders)
    with pytest.raises(ValueError, match=rf"^coefficient order {where} is not an integer$"):
        AbelianCoefficients.of(*orders)  # once truncated 4.5 to 4
    assert AbelianCoefficients([True + 1, 4]).orders == (2, 4)


@pytest.mark.parametrize("key, value", [("degree", 2.9), ("degree", 2.0), ("group_order", 2.0),
                                        ("coefficient_orders", [2.0])])
def test_cochain_json_fields_that_are_no_integer_are_refused(key, value):
    z2, A = group_by_name("z2"), coefficients_by_name("z2")
    obj = Cochain.zero(z2, A, 2).to_json()
    assert Cochain.from_json(obj, z2) == Cochain.zero(z2, A, 2)
    obj[key] = value
    with pytest.raises(ValueError, match=rf"^cochain JSON '{key}'.*: .* is not an integer$"):
        Cochain.from_json(obj, z2)


# ---------------------------------------------------------------------------
# coboundaries


def test_identity_cochain_on_z2_is_cocycle():
    z2 = group_by_name("z2")
    A = coefficients_by_name("z2")
    ident = Cochain.from_function(z2, A, 1, lambda p: (p,))
    assert coboundary(ident).is_zero()


@pytest.mark.parametrize("orders", [(), (2,), (6,), (2, 3, 4), (5, 2, 9)])
def test_cochain_sum_and_difference_match_coefficient_arithmetic(orders):
    # + and - run one coordinate column at a time
    rng = random.Random(sum(orders) + len(orders))
    A = AbelianCoefficients(orders)
    for gname, degree in (("z3", 0), ("s3", 1), ("klein4", 2)):
        P = group_by_name(gname)
        f, g = Cochain.random(P, A, degree, rng), Cochain.random(P, A, degree, rng)
        assert (f + g).values == tuple(map(A.add, f.values, g.values))
        assert (f - g).values == tuple(map(A.sub, f.values, g.values))


@pytest.mark.parametrize("gname", ["z1", "z2", "z5", "klein4", "s3", "q8", "a4"])
def test_light_incidence_is_the_incidence_on_lights_rows(gname):
    # built on the kept rows directly; the full incidence gathered there is
    # the reference, on the named table and on one whose identity is not 0
    P = group_by_name(gname)
    perm = list(range(P.order))
    random.Random(P.order).shuffle(perm)
    inv = {v: i for i, v in enumerate(perm)}
    relabelled = tuple(tuple(perm[P.table[inv[a]][inv[b]]] for b in range(P.order))
                       for a in range(P.order))
    for table, identity in ((P.table, P.identity), (relabelled, perm[P.identity])):
        gens = grpcoh._generating_set(FiniteGroup(P.order, table, identity))
        S = sorted({identity, *gens})
        for n in (1, 2):
            rows, d = grpcoh._light_incidence(table, identity, n)
            assert rows == tuple(i for i, args in enumerate(product(range(P.order),
                                                                    repeat=n + 1))
                                 if args[1] in S)
            assert d.columns == tuple(tuple(col[i] for i in rows) for col in _incidence(table, n))


# ---------------------------------------------------------------------------
# Light's rows in every elimination, against the full d_n

LIGHT_MODULI = (2, 3, 4, 8, 9)


def _relabelled_copy(P, seed):
    """P with its elements renamed by a seeded permutation that moves the
    identity off 0."""
    rng = random.Random(seed)
    perm = list(range(P.order))
    while perm[P.identity] == 0:
        rng.shuffle(perm)
    inv = {v: i for i, v in enumerate(perm)}
    table = tuple(tuple(perm[P.table[inv[a]][inv[b]]] for b in range(P.order))
                  for a in range(P.order))
    return FiniteGroup(P.order, table, perm[P.identity], f"{P.name}-relabelled")


@pytest.mark.parametrize("gname", sorted(grpcoh._NAMED_GROUPS))
def test_lights_rows_have_the_exponents_and_kernel_of_the_full_coboundary(gname):
    # relabelling permutes the rows and columns of the full d_n, which
    # changes neither its exponents nor its kernel orders: the named
    # table's full d_n is the oracle for both copies
    named = group_by_name(gname)
    for n in (1, 2):
        full = coboundary_matrix(named, n)
        exponents = {q: local_smith_exponents(full, *prime_power_factors(q)[0])
                     for q in LIGHT_MODULI}
        orders = {q: [o for _, o in kernel_mod(full, q)] for q in LIGHT_MODULI}
        for P in (named, _relabelled_copy(named, 7)):
            _, light = grpcoh._light_coboundary_matrix(P.table, P.identity, n)
            for q in LIGHT_MODULI:
                assert local_smith_exponents(light, *prime_power_factors(q)[0]) == exponents[q]
                space = cocycle_space(P, AbelianCoefficients.of(q), n)
                assert [o for _, o in space.generators] == orders[q], (P.name, n, q)
                assert all(coboundary(g).is_zero() for g, _ in space.generators), (P.name, n, q)
            # several factors, each with its own generators
            space = cocycle_space(P, AbelianCoefficients.of(2, 4), n)
            assert space.order == prod(orders[2]) * prod(orders[4])
            assert all(coboundary(g).is_zero() for g, _ in space.generators)


def _subgroup_generated(P, gens):
    """Test-local closure: products of elements with generators until
    nothing new appears."""
    elements = {P.identity}
    while True:
        grown = elements | {P.mul(x, g) for x in elements for g in gens}
        if grown == elements:
            return elements
        elements = grown


@pytest.mark.parametrize("gname", sorted(grpcoh._NAMED_GROUPS))
def test_generating_set_is_irredundant(gname):
    # on the named table and on relabelled copies whose identity is not 0:
    # S generates P, no set left by dropping one generator does, and
    # Light's rows number |P| |S + {1}| |P|^(n - 1)
    named = group_by_name(gname)
    for P in (named, *(_relabelled_copy(named, seed) for seed in (1, 2, 3, 7))):
        gens = grpcoh._generating_set(P)
        assert len(set(gens)) == len(gens) and P.identity not in gens
        assert len(_subgroup_generated(P, gens)) == P.order, P.name
        for g in gens:
            others = [h for h in gens if h != g]
            assert len(_subgroup_generated(P, others)) < P.order, (P.name, gens, g)
        S = {P.identity, *gens}
        for n in (1, 2):
            rows, _ = grpcoh._light_incidence(P.table, P.identity, n)
            assert len(rows) == P.order * len(S) * P.order ** (n - 1), (P.name, n)
    if gname == "q8":
        # the greedy pass picks -1, i, j; -1 = i^2 is dropped
        assert [named.labels[g] for g in grpcoh._generating_set(named)] == ["i", "j"]
        assert [len(grpcoh._light_incidence(named.table, named.identity, n)[0])
                for n in (1, 2)] == [24, 192]


def test_degree_zero_coboundary_vanishes():
    rng = random.Random(0)
    s3 = group_by_name("s3")
    A = coefficients_by_name("z4")
    for _ in range(5):
        f = Cochain.random(s3, A, 0, rng)
        assert coboundary(f).is_zero()


def test_degree_cap():
    z2 = group_by_name("z2")
    A = coefficients_by_name("z2")
    f3 = Cochain.zero(z2, A, 3)
    with pytest.raises(ValueError):
        coboundary(f3)


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("aname", COEFFS)
def test_delta_delta_zero_sampled(gname, aname):
    P, A = group_by_name(gname), coefficients_by_name(aname)
    rng = random.Random(hash((gname, aname)) & 0xFFFF)
    for n in (0, 1):
        for _ in range(5):
            f = Cochain.random(P, A, n, rng)
            assert coboundary(coboundary(f)).is_zero()


NAMED_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "s3", "q8", "a4"]


def reference_terms(P, args):
    """The signed terms (sign, arguments of f) of (d f)(args), transcribed
    degree by degree from the alternating sum."""
    mul = P.mul
    if len(args) == 1:  # (d f)(p) = f() - f()
        return [(1, ()), (-1, ())]
    if len(args) == 2:  # (d f)(p, q) = f(q) - f(pq) + f(p)
        p, q = args
        return [(1, (q,)), (-1, (mul(p, q),)), (1, (p,))]
    p, q, r = args  # (d f)(p, q, r) = f(q, r) - f(pq, r) + f(p, qr) - f(p, q)
    return [(1, (q, r)), (-1, (mul(p, q), r)), (1, (p, mul(q, r))), (-1, (p, q))]


def test_coboundary_matrix_matches_pointwise_coboundary():
    # the face columns and both routes against the transcription, on every
    # named group in degrees 0-2: column i of the incidence holds the i-th
    # term (sign (-1)^i) and is cached per table, the matrix is checked row
    # by row, the values with Z4, Z2xZ2 and Z2xZ4 coefficients
    rng = random.Random(55)
    for gname, n in product(NAMED_GROUPS, (0, 1, 2)):
        P = group_by_name(gname)
        N = P.order
        faces = _incidence(P.table, n)
        assert len(faces) == n + 2 and all(len(col) == N ** (n + 1) for col in faces)
        assert _incidence(group_by_name(gname).table, n) is faces
        dmat = coboundary_matrix(P, n)
        assert (dmat.rows, dmat.cols) == (N ** (n + 1), N ** n)
        args_list = list(product(range(N), repeat=n + 1))
        for r, (args, row) in enumerate(zip(args_list, dmat.entries)):
            terms = reference_terms(P, args)
            term_cols = [sum(x * N ** (n - 1 - i) for i, x in enumerate(term))
                         for _, term in terms]
            assert [sign for sign, _ in terms] == [(-1) ** i for i in range(n + 2)]
            assert [col[r] for col in faces] == term_cols, (gname, n, args)
            expected = {}
            for (sign, _), col in zip(terms, term_cols):
                expected[col] = expected.get(col, 0) + sign
            assert {c: x for c, x in enumerate(row) if x} == \
                {c: x for c, x in expected.items() if x}, (gname, n, args)
        sparse = [[(c, x) for c, x in enumerate(row) if x] for row in dmat.entries]
        for aname in ("z4", "z2xz2", "2,4"):
            A = coefficients_by_name(aname)
            for _ in range(3):
                f = Cochain.random(P, A, n, rng)
                direct = coboundary(f)
                for args, row, got in zip(args_list, sparse, direct.values):
                    expected = A.zero()
                    for sign, term in reference_terms(P, args):
                        value = f.value(*term)
                        expected = A.add(expected, value if sign > 0 else A.neg(value))
                    assert got == expected, (gname, aname, n, args)
                    assert A.reduce([sum(x * f.values[c][k] for c, x in row)
                                     for k in range(A.rank)]) == expected


# ---------------------------------------------------------------------------
# cocycle spaces: linear route vs exhaustive oracle


def test_z1_z2_z2_is_hom_set():
    z2 = group_by_name("z2")
    A = coefficients_by_name("z2")
    cocycles = enumerate_cocycles(z2, A, 1)
    tables = sorted(c.values for c in cocycles)
    assert tables == [(((0,), (0,))), ((0,), (1,))]  # zero map and identity


def test_z1_coprime_trivial():
    cocycles = enumerate_cocycles(group_by_name("z3"), coefficients_by_name("z2"), 1)
    assert len(cocycles) == 1 and cocycles[0].is_zero()


def test_z2_of_z2_with_z2_coefficients_exhaustive():
    # all 16 two-cochains scanned; the oracle count is frozen from this run
    z2 = group_by_name("z2")
    A = coefficients_by_name("z2")
    cocycles = enumerate_cocycles(z2, A, 2)
    assert len(list(enumerate_cochains(z2, A, 2))) == 16
    assert len(cocycles) == 4


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("aname", COEFFS)
def test_linear_cocycle_count_matches_enumeration(gname, aname):
    P, A = group_by_name(gname), coefficients_by_name(aname)
    for degree in (1, 2):
        space = cocycle_space(P, A, degree)
        if A.size ** (P.order ** degree) <= 2 ** 16:
            assert space.order == len(enumerate_cocycles(P, A, degree))
        # generators really are cocycles and multiply out to the right count
        for gen, order in space.generators:
            assert coboundary(gen).is_zero()
            assert order >= 2
        assert prod([o for _, o in space.generators], start=1) == space.order


def test_enumeration_bound_enforced():
    with pytest.raises(SizeLimitExceeded) as err:
        list(enumerate_cochains(group_by_name("s3"), coefficients_by_name("z2"), 2))
    assert err.value.requested > err.value.bound


BIG = 10 ** 6
Z2_BIG = AbelianCoefficients((BIG,))
TABLE_BUDGET = "cells exceed the dense bound of 4194304 (2^22)"


@pytest.mark.parametrize("build, message", [
    (lambda: FiniteGroup.cyclic(BIG),
     f"z{BIG} has a {BIG} x {BIG} multiplication table: {BIG ** 2} {TABLE_BUDGET}"),
    (lambda: group_by_name("z2049"),
     f"z2049 has a 2049 x 2049 multiplication table: {2049 ** 2} {TABLE_BUDGET}"),
    (lambda: Z2_BIG.as_group(),
     f"the coefficient group of order {BIG} has a {BIG} x {BIG} addition table: "
     f"{BIG ** 2} {TABLE_BUDGET}"),
    # 10^6 generator assignments pass hom_group's own count bound
    (lambda: hom_group(group_by_name("z2"), Z2_BIG),
     f"the coefficient group of order {BIG} has a {BIG} x {BIG} addition table: "
     f"{BIG ** 2} {TABLE_BUDGET}"),
    (lambda: build_extension(group_by_name("z2"), Z2_BIG,
                             Cochain.zero(group_by_name("z2"), Z2_BIG, 2)),
     f"an extension of a group of order 2 by one of order {BIG} has a "
     f"{2 * BIG} x {2 * BIG} multiplication table: {4 * BIG ** 2} {TABLE_BUDGET}"),
    # the face sums of coboundary add on the indices of A
    (lambda: coboundary(Cochain.zero(group_by_name("z2"), Z2_BIG, 1)),
     f"the coefficient group of order {BIG} has a {BIG} x {BIG} addition table: "
     f"{BIG ** 2} {TABLE_BUDGET}"),
], ids=["cyclic", "by-name", "as_group", "hom_group", "build_extension", "coboundary"])
def test_input_sized_tables_refused_before_allocation(build, message):
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded) as err:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 2 ** 16  # one table row of 10^6 indices alone takes 8 MB


def test_cocycle_enumeration_refuses_an_oversized_addition_table():
    # 4096 degree-1 cochains of z1 pass the 2^20 count bound; the 4096 x 4096
    # addition table of the coefficients does not pass the dense one
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as err:
        enumerate_cocycles(group_by_name("z1"), AbelianCoefficients((4096,)), 1)
    assert time.perf_counter() - start < 1
    assert str(err.value) == (f"the coefficient group of order 4096 has a 4096 x 4096 "
                              f"addition table: {4096 ** 2} {TABLE_BUDGET}")


@pytest.mark.parametrize("n, degree", [(102, 2), (1183, 1)])
def test_coboundary_refuses_its_face_indices_before_the_incidence(n, degree):
    # |P|^(n+1) (n+2) face indices: 4 * 102^3 and 3 * 1183^2 are just past 2^22
    P, A = FiniteGroup.cyclic(n), coefficients_by_name("z2")
    f = Cochain.zero(P, A, degree)
    before = _incidence.cache_info()
    with pytest.raises(SizeLimitExceeded) as err:
        coboundary(f)
    assert _incidence.cache_info() == before
    rows = n ** (degree + 1)
    assert str(err.value) == (f"d_{degree} of a group of order {n} has {degree + 2} face "
                              f"columns of {rows} rows: {rows * (degree + 2)} {TABLE_BUDGET}")


@pytest.mark.parametrize("n, degree", [(101, 2), (1182, 1)])
def test_coboundary_answers_up_to_its_face_budget(n, degree):
    # the carry cocycle [p + q >= n] and the homomorphism p mod 2 (n even)
    P, A = FiniteGroup.cyclic(n), coefficients_by_name("z2")
    fn = (lambda p: (p % 2,)) if degree == 1 else (lambda p, q: (int(p + q >= n),))
    try:
        d = coboundary(Cochain.from_function(P, A, degree, fn))
        assert len(d.values) == n ** (degree + 1) and d.is_zero()
    finally:
        _incidence.cache_clear()  # hand back the large incidence


def test_hom_group_count_bound_comes_before_the_table():
    with pytest.raises(SizeLimitExceeded) as err:
        hom_group(group_by_name("z2"), AbelianCoefficients((2 ** 21,)))
    assert str(err.value) == f"{2 ** 21} generator assignments exceed the enumeration bound"
    # q8 is enumerated on its two generators i, j: |A|^2 assignments, not |A|^3
    with pytest.raises(SizeLimitExceeded) as err:
        hom_group(group_by_name("q8"), AbelianCoefficients((1025,)))
    assert str(err.value) == f"{1025 ** 2} generator assignments exceed the enumeration bound"


def test_hom_group_on_q8_matches_the_cocycle_space():
    # 16 assignments of i, j in Z4, of which |Hom(Q8, Z4)| = |Z^1| = 4 extend
    P, A = group_by_name("q8"), coefficients_by_name("z4")
    homs = hom_group(P, A)
    assert len(homs) == cocycle_space(P, A, 1).order == 4
    for h in homs:
        h.validate()


# ---------------------------------------------------------------------------
# H^1 and H^2


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("aname", COEFFS)
def test_h1_matches_hom_count(gname, aname):
    P, A = group_by_name(gname), coefficients_by_name(aname)
    factors = cohomology_group(P, A, 1)
    assert prod(factors, start=1) == len(hom_group(P, A))


def test_hom_counts_small():
    assert len(hom_group(group_by_name("z2"), coefficients_by_name("z2"))) == 2
    assert len(hom_group(group_by_name("s3"), coefficients_by_name("z3"))) == 1
    assert len(hom_group(group_by_name("klein4"), coefficients_by_name("z2"))) == 4


def hom_to_cochain(h, coeffs):
    """View a homomorphism into A (as_group indexing) as a degree-1 cochain."""
    vals = tuple(coeffs.element(h(a)) for a in h.source.elements())
    return Cochain(h.source, coeffs, 1, vals)


def test_homs_validate_and_match_z1():
    for gname, aname in (("z4", "z2"), ("s3", "z2"), ("q8", "z2xz2")):
        P, A = group_by_name(gname), coefficients_by_name(aname)
        homs = hom_group(P, A)
        for h in homs:
            h.validate()
        # f in Z^1 <=> f is a homomorphism, both directions
        hom_tables = {hom_to_cochain(h, A).values for h in homs}
        space = cocycle_space(P, A, 1)
        assert space.order == len(hom_tables)
        if A.size ** P.order <= 2 ** 16:
            z1_tables = {c.values for c in enumerate_cocycles(P, A, 1)}
            assert z1_tables == hom_tables


def test_h2_values_cross_checked_against_enumeration():
    cases = {
        ("z2", "z2"): [2],
        ("z3", "z2"): [],
        ("z4", "z2"): [2],
        ("klein4", "z2"): [2, 2, 2],
        ("z3", "z3"): [3],
        ("z2", "z4"): [2],
        ("z2", "z8"): [2],
    }
    for (gname, aname), expected in cases.items():
        P, A = group_by_name(gname), coefficients_by_name(aname)
        factors = cohomology_group(P, A, 2)
        assert factors == expected
        if enumeration_feasible(P, A):
            z = enumerate_cocycles(P, A, 2)
            b = {coboundary(f).values for f in enumerate_cochains(P, A, 1)}
            assert prod(factors, start=1) == len(z) // len(b)


def test_h2_via_element_orders_oracle():
    # the quotient's isomorphism class from element orders, independent of SNF
    P, A = group_by_name("z3"), coefficients_by_name("z3")
    factors = cohomology_group(P, A, 2)
    assert factors == [3]
    z = enumerate_cocycles(P, A, 2)
    b_tables = {coboundary(f).values for f in enumerate_cochains(P, A, 1)}
    assert len(z) // len(b_tables) == 3

    def class_order(w):
        acc = w
        for k in range(1, 10):
            if acc.values in b_tables:
                return k
            acc = acc + w
        raise AssertionError("coset order exceeded the group exponent")

    assert max(class_order(w) for w in z) == 3


def test_cohomology_degree_cap():
    with pytest.raises(ValueError):
        cohomology_group(group_by_name("z2"), coefficients_by_name("z2"), 3)


# ---------------------------------------------------------------------------
# inflation


def test_inflation_identity_map_is_identity():
    z4 = group_by_name("z4")
    A = coefficients_by_name("z2")
    rng = random.Random(1)
    f = Cochain.random(z4, A, 2, rng)
    back = inflation(GroupHom.identity_map(z4), f)
    assert back.values == f.values


def test_inflation_of_zero_is_zero():
    z4, z2 = group_by_name("z4"), group_by_name("z2")
    A = coefficients_by_name("z2")
    sigma = GroupHom(z4, z2, (0, 1, 0, 1))
    assert inflation(sigma, Cochain.zero(z2, A, 2)).is_zero()


def test_inflation_maps_cocycles_to_cocycles():
    z4, z2 = group_by_name("z4"), group_by_name("z2")
    A = coefficients_by_name("z2")
    sigma = GroupHom(z4, z2, (0, 1, 0, 1))
    for w in enumerate_cocycles(z2, A, 2):
        assert coboundary(inflation(sigma, w)).is_zero()


def _quotient_map(name):
    """A surjection from a named group: q8 onto klein4 with the centre as
    kernel, or z4 onto z2 by reduction mod 2."""
    if name == "z4->z2":
        return GroupHom(group_by_name("z4"), group_by_name("z2"), (0, 1, 0, 1))
    q8, k4 = group_by_name("q8"), group_by_name("klein4")
    centre = [z for z in q8.elements()
              if all(q8.mul(z, g) == q8.mul(g, z) for g in q8.elements())]
    assert len(centre) == 2
    cosets = sorted({frozenset(q8.mul(g, z) for z in centre) for g in q8.elements()},
                    key=lambda c: (q8.identity not in c, min(c)))
    others = [a for a in k4.elements() if a != k4.identity]
    for images in permutations(others):
        coset_image = dict(zip(cosets, (k4.identity,) + images))
        sigma = GroupHom(q8, k4, tuple(coset_image[next(c for c in cosets if g in c)]
                                       for g in q8.elements()))
        try:
            sigma.validate()
        except ValueError:
            continue
        return sigma
    raise AssertionError("no isomorphism q8 / Z(q8) -> klein4")


@pytest.mark.parametrize("name", ["q8->klein4", "z4->z2"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_inflation_matches_pointwise_pullback(name, degree):
    sigma = _quotient_map(name)
    assert sigma.is_surjective()
    E, P = sigma.source, sigma.target
    rng = random.Random(degree)
    for coeff in ("z2", "z4", "z2xz2"):
        A = coefficients_by_name(coeff)
        for _ in range(4):
            f = Cochain.random(P, A, degree, rng)
            got = inflation(sigma, f)
            assert (got.group, got.coeffs, got.degree) == (E, A, degree)
            for args in product(E.elements(), repeat=degree):
                assert got.value(*args) == f.value(*(sigma(g) for g in args))


def test_inflation_rejects_cochain_off_the_target():
    sigma = _quotient_map("z4->z2")
    f = Cochain.zero(group_by_name("z4"), coefficients_by_name("z2"), 1)
    with pytest.raises(ValueError, match="not defined on the target"):
        inflation(sigma, f)


def test_inflation_nonsurjective_warns():
    z2, z4 = group_by_name("z2"), group_by_name("z4")
    A = coefficients_by_name("z2")
    emb = GroupHom(z2, z4, (0, 2))
    emb.validate()
    f = Cochain.zero(z4, A, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inflation(emb, f)
    assert any("non-surjective" in str(w.message) for w in caught)


def _hom_verdict(h):
    """Test-local oracle for `GroupHom.validate`: the same checks by a plain
    double loop over (a, b) in lexicographic order."""
    if h.values[h.source.identity] != h.target.identity:
        return "map does not send identity to identity"
    for a in h.source.elements():
        for b in h.source.elements():
            if h.values[h.source.mul(a, b)] != h.target.mul(h.values[a], h.values[b]):
                return f"multiplicativity fails on pair ({a}, {b})"
    return None


def _hom_message(h):
    try:
        h.validate()
    except ValueError as exc:
        return str(exc)
    return None


def test_hom_validation_rejects_bad_table():
    z4, z2 = group_by_name("z4"), group_by_name("z2")
    with pytest.raises(ValueError, match=r"^multiplicativity fails on pair \(1, 1\)$"):
        GroupHom(z4, z2, (0, 1, 1, 0)).validate()
    # seeded value tables that fix the identity: uniformly random ones,
    # homomorphisms with one or two values changed, and maps constant on the
    # four cosets of a normal subgroup that holds element 1, whose rows then
    # pass, so the first failure lies in a later row; the message names the
    # oracle's first pair
    rng = random.Random(2020)
    Q8, A2 = group_by_name("q8"), AbelianCoefficients((2,))
    w = cocycle_space(Q8, A2, 2).generators[-1][0]
    sources = [z4, Q8, group_by_name("s3"), build_extension(Q8, A2, w).carrier]
    cosets = {"q8": lambda x: x // 2, "ext(q8;2)": lambda x: x % 8 // 2}
    rejected = 0
    for source in sources:
        homs = [GroupHom.identity_map(source)]
        for orders in ((2,), (2, 2), (4,)):
            homs += hom_group(source, AbelianCoefficients(orders))
        for trial in range(24):
            h = homs[trial % len(homs)] if trial % 3 else rng.choice(homs)
            values = list(h.values)
            if trial % 4 == 0:
                values = [rng.randrange(h.target.order) for _ in values]
            elif trial % 4 == 1 and source.name in cosets:
                f = [h.target.identity] + [rng.randrange(h.target.order) for _ in range(3)]
                values = [f[cosets[source.name](x)] for x in source.elements()]
            else:
                for _ in range(1 + trial % 2):
                    values[rng.choice(range(1, source.order))] = rng.randrange(h.target.order)
            values[source.identity] = h.target.identity
            bad = GroupHom(source, h.target, tuple(values))
            expected = _hom_verdict(bad)
            assert _hom_message(bad) == expected, (source.name, trial)
            rejected += expected is not None
        for h in homs:
            assert _hom_message(h) is None and _hom_verdict(h) is None
    assert rejected >= 50


def test_delta_delta_zero_s3_z6_fifty_cochains():
    P = group_by_name("s3")
    A = coefficients_by_name("z6")
    rng = random.Random(66)
    for _ in range(50):
        f = Cochain.random(P, A, 1, rng)
        assert coboundary(coboundary(f)).is_zero()


def test_h2_of_cyclic_groups_is_gcd_cyclic():
    # classical: central extensions of Z_n by Z_m form a cyclic group of
    # order gcd(n, m); exercises prime moduli and prime powers p^e with e >= 2
    from math import gcd

    for n, m in ((2, 2), (2, 4), (4, 2), (4, 4), (3, 6), (6, 4), (8, 4), (4, 6),
                 (8, 8), (4, 8), (6, 9), (12, 8)):
        P = group_by_name(f"z{n}")
        A = coefficients_by_name(f"z{m}")
        factors = cohomology_group(P, A, 2)
        g = gcd(n, m)
        assert factors == ([] if g == 1 else [g]), (n, m, factors)


def _sl23_table():
    """SL(2, 3): the 2 x 2 matrices over GF(3) of determinant 1, in
    lexicographic order of their entries (a, b, c, d), multiplied mod 3."""
    mats = [m for m in product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    return [[index[mul(x, y)] for y in mats] for x in mats]


def _s4_table():
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]


# by universal coefficients, H^2(P, A) = Hom(H_2(P), A) + Ext(H_1(P), A):
# S4 has H_1 = Z2 and H_2 = Z2, SL(2, 3) has H_1 = Z3 and H_2 = 0
ORDER_24_H2 = [
    ("s4", "z2", [2, 2]), ("s4", "z3", []), ("s4", "z4", [2, 2]), ("s4", "z2xz2", [2, 2, 2, 2]),
    ("sl23", "z2", []), ("sl23", "z3", [3]), ("sl23", "z4", []),
]


@pytest.mark.parametrize("gname, aname, expected", ORDER_24_H2,
                         ids=[f"{g}-{a}" for g, a, _ in ORDER_24_H2])
def test_h2_of_groups_of_order_24_on_lights_rows(gname, aname, expected):
    # their full d_2 is 13824 x 576, over the dense budget; Light's rows
    # are 576 (1 + |S|) x 576
    P = FiniteGroup.from_table({"s4": _s4_table, "sl23": _sl23_table}[gname](), name=gname)
    with pytest.raises(SizeLimitExceeded):
        coboundary_matrix(P, 2)
    assert cohomology_group(P, coefficients_by_name(aname), 2) == expected


def test_cocycles_of_s4_count_through_h2():
    # |Z^2| = |C^1| |H^2| / |Z^1| = 2^24 * 4 / |Hom(S4, Z2)|, Hom(S4, Z2) = {1, sign}
    P, A = FiniteGroup.from_table(_s4_table(), name="s4"), coefficients_by_name("z2")
    assert len(hom_group(P, A)) == 2
    assert cocycle_space(P, A, 2).order == 2 ** 25


@pytest.mark.parametrize("n, m", [(32, 4), (32, 8), (36, 9), (38, 4)])
def test_h2_of_cyclic_groups_past_the_full_d2_budget(n, m):
    # H^2(Z_n, Z_m) = Z_gcd(n, m), where the full d_2 (n^5 cells) is over
    # budget and Light's rows (2 n^2 x n^2) are not
    P = group_by_name(f"z{n}")
    with pytest.raises(SizeLimitExceeded):
        coboundary_matrix(P, 2)
    assert cohomology_group(P, coefficients_by_name(f"z{m}"), 2) == [gcd(n, m)]


def test_coboundary_matrices_compose_to_zero_over_z():
    # d_{n+1} d_n = 0 already at the integer-matrix level, which the
    # universal-coefficient reading of H^n from the elementary divisors of
    # d_n and d_{n-1} relies on
    for name in ("z2", "z4", "s3"):
        P = group_by_name(name)
        d1 = coboundary_matrix(P, 1)
        d2 = coboundary_matrix(P, 2)
        for j in range(d1.cols):
            col = [d1.entries[k][j] for k in range(d1.rows)]
            assert all(v == 0 for v in d2.apply(col))


def test_a4_cohomology_large_matrices():
    # a4's degree-2 coboundary matrix is 1728 x 144: exercises the packed
    # GF(2) eliminator and the elimination over Z/p^e (e = 1, 2, 3) at real
    # size.  Cross-checked against universal coefficients with H_1(A4) = Z3
    # and H_2(A4) = Z2: H^2(A4, M) = Ext(Z3, M) + Hom(Z2, M).
    a4 = group_by_name("a4")
    assert cohomology_group(a4, coefficients_by_name("z2"), 1) == []
    assert cohomology_group(a4, coefficients_by_name("z2"), 2) == [2]
    assert cohomology_group(a4, coefficients_by_name("z3"), 1) == [3]
    assert cohomology_group(a4, coefficients_by_name("z3"), 2) == [3]
    assert cohomology_group(a4, coefficients_by_name("z4"), 2) == [2]
    # Z2 + Z3 merges into the canonical divisor chain [6]
    assert cohomology_group(a4, coefficients_by_name("z6"), 2) == [6]
    assert cohomology_group(a4, coefficients_by_name("z8"), 2) == [2]
    assert cohomology_group(a4, coefficients_by_name("z9"), 2) == [3]
    assert cohomology_group(a4, coefficients_by_name("z12"), 2) == [6]


def test_q8_composite_coefficients():
    # Schur multiplier of Q8 is trivial, so H^2(Q8, Z4) = Ext(Z2 x Z2, Z4)
    q8 = group_by_name("q8")
    assert cohomology_group(q8, coefficients_by_name("z4"), 2) == [2, 2]
    assert cohomology_group(q8, coefficients_by_name("z8"), 2) == [2, 2]


# ---------------------------------------------------------------------------
# the memoized local exponents behind H^n

MEMO_GROUPS = ["z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "klein4", "s3", "q8", "a4"]
MEMO_COEFFS = [(m,) for m in (2, 3, 4, 5, 6, 8, 9, 12, 16, 27)] + [(2, 2), (2, 4), (3, 6)]


def _invariant_factors_merge(cyclic_orders):
    """Canonical divisor chain of a direct sum of cyclic groups, written
    apart from `cohomology_group`'s own."""
    primary = {}
    for m in cyclic_orders:
        for p, e in prime_power_factors(m):
            primary.setdefault(p, []).append(p ** e)
    chains = [sorted(powers, reverse=True) for powers in primary.values()]
    depth = max(map(len, chains), default=0)
    return sorted(prod(c[i] for c in chains if i < len(c)) for i in range(depth))


def _per_modulus_oracle(d, n, orders, seen):
    """H^n by universal coefficients, eliminating d_n and d_(n-1) over Z/p^f
    for every p^f exactly dividing every modulus: no skip and no cap.
    `seen` holds this group's exponents by (degree, p, f)."""
    def exponents(k, p, f):
        if (k, p, f) not in seen:
            seen[k, p, f] = local_smith_exponents(d[k], p, f)
        return seen[k, p, f]

    factors = []
    for m in orders:
        for p, f in prime_power_factors(m):
            a, b = exponents(n, p, f), exponents(n - 1, p, f)
            factors += [p ** f] * (d[n].cols - len(a) - len(b))
            factors += [p ** x for x in a + b if x > 0]
    return _invariant_factors_merge(factors)


@pytest.mark.parametrize("gname", MEMO_GROUPS)
def test_memoized_cohomology_matches_per_modulus_oracle(gname):
    P = group_by_name(gname)
    d, seen = [coboundary_matrix(P, n) for n in (0, 1, 2)], {}
    for orders in MEMO_COEFFS:
        for n in (1, 2):
            expected = _per_modulus_oracle(d, n, orders, seen)
            assert cohomology_group(P, AbelianCoefficients(orders), n) == expected, \
                (gname, orders, n)


def test_repeated_cohomology_builds_no_coboundary_matrix(monkeypatch):
    # each d_n is built at most once per process, on Light's rows (a miss
    # of `_light_incidence`), and the full d_n, which no route takes, never
    full_builds = []
    full = grpcoh.coboundary_matrix

    def counting_full(group, degree):
        full_builds.append(degree)
        return full(group, degree)

    monkeypatch.setattr(grpcoh, "coboundary_matrix", counting_full)
    grpcoh._exponents.cache_clear()
    grpcoh._light_incidence.cache_clear()

    def builds():
        return grpcoh._light_incidence.cache_info().misses

    a4, z6 = group_by_name("a4"), coefficients_by_name("z6")
    assert cohomology_group(a4, z6, 2) == [6]
    assert builds() == 2  # d_2 and d_1, each shared by the primes 2 and 3
    assert cohomology_group(group_by_name("a4"), z6, 2) == [6]
    # H^1 shares the d_1 exponents, and d_0 = 0 needs no build
    assert cohomology_group(a4, z6, 1) == [3]
    assert grpcoh._exponents.cache_info().misses == 4
    # two factors with the same prime but new exponents reuse both builds
    assert cohomology_group(a4, AbelianCoefficients((4, 8)), 2) == [2, 2]
    assert builds() == 2 and full_builds == []


# H^2(P, Z) = P^ab and H^3(P, Z) = the Schur multiplier, as divisor chains
INTEGRAL_COHOMOLOGY = {
    "z2": ([2], []), "z3": ([3], []), "z4": ([4], []), "z5": ([5], []),
    "z6": ([6], []), "z7": ([7], []), "z8": ([8], []),
    "klein4": ([2, 2], [2]), "s3": ([2], []), "q8": ([2, 2], []), "a4": ([3], [2]),
}


@pytest.mark.parametrize("gname", sorted(INTEGRAL_COHOMOLOGY))
def test_integral_cohomology_from_memoized_exponents(gname):
    # the torsion of coker d_n is H^(n+1)(P, Z), killed by |P|: at
    # e = v_p(|P|) + 1 every nonzero elementary divisor of d_n shows, and
    # raising e changes nothing
    P = group_by_name(gname)
    for n, expected in zip((1, 2), INTEGRAL_COHOMOLOGY[gname]):
        torsion = []
        for p, v in prime_power_factors(P.order):
            exps, higher = (grpcoh._exponents(P.table, P.identity, n, p, e)
                            for e in (v + 1, v + 2))
            assert exps == higher
            torsion += [p ** x for x in exps[1]]
        assert _invariant_factors_merge(torsion) == expected, (gname, n)


def test_exponent_and_light_row_caches_are_bounded():
    grpcoh._exponents.cache_clear()
    grpcoh._light_incidence.cache_clear()
    # 33 groups' d_1 over four prime powers each: 132 exponent entries
    for k in range(1, 34):
        P = group_by_name(f"z{k}")
        for p, e in ((2, 1), (2, 2), (3, 1), (5, 1)):
            grpcoh._exponents(P.table, P.identity, 1, p, e)
    exponents, light = grpcoh._exponents.cache_info(), grpcoh._light_incidence.cache_info()
    assert (exponents.misses, exponents.currsize) == (132, 128)
    assert (light.misses, light.currsize) == (33, 32)
    # a group whose Light's rows of d_2 are over budget, 8192 x 4096 for
    # z64, is refused on every call, before either cache holds them
    z64 = group_by_name("z64")
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded, match="Light's rows of d_2 of a group of order 64 "
                                                    "are a 8192 x 4096 matrix"):
            grpcoh._exponents(z64.table, z64.identity, 2, 2, 1)
    assert grpcoh._exponents.cache_info().currsize == 128
    assert grpcoh._exponents.cache_info().misses == 134
    assert grpcoh._light_incidence.cache_info() == light
