import hashlib
import json
import random
import time
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from cohomkit import ext as ext_module
from cohomkit import grpcoh
from cohomkit.ext import (
    CentralExtensionTable,
    NotACocycleError,
    cocycle_of_section,
    extract_section,
    h1_h2_correspondence_check,
    is_split,
)
from cohomkit.grpcoh import (
    _NAMED_GROUPS,
    _light_coboundary_matrix,
    _value_indices,
    AbelianCoefficients,
    Cochain,
    FiniteGroup,
    GroupHom,
    coboundary,
    coboundary_matrix,
    cocycle_space,
    coefficients_by_name,
    cohomology_group,
    construct_splitting,
    enumerate_cochains,
    enumerate_cocycles,
    group_by_name,
    inflation,
)
from cohomkit.exactmat import SizeLimitExceeded, solve_mod
from scan_oracle import assert_validate_matches_full_scan

Z2 = group_by_name("z2")
A2 = coefficients_by_name("z2")


def build_extension(P, A, omega, validate=True):
    """`ext.build_extension`, re-verified: with `validate` every table this
    module builds from a cocycle also passes `CentralExtensionTable.validate`,
    which the build does not run, and every carrier is validated against the
    full-scan associativity oracle, so Light's test must reach the same
    verdict and witness on each."""
    built = ext_module.build_extension(P, A, omega, validate)
    if validate:
        built.validate()
    assert_validate_matches_full_scan(built.carrier)
    return built


def check_equivalence_map(ext1, ext2, phi):
    """Test-local transcription of the map check: F(a, p) = (a + phi(p), p)
    is a bijection ext2.carrier -> ext1.carrier, a homomorphism, commutes
    with both projections and fixes the embedded kernel pointwise."""
    A, N = ext1.kernel, ext1.base.order
    images = [ext1.index_of(A.add(a, phi.value(p)), p) for a in A.elements() for p in range(N)]
    assert sorted(images) == list(ext1.carrier.elements()), "not a bijection"
    G1, G2 = ext1.carrier, ext2.carrier
    for g, h in product(G2.elements(), repeat=2):
        assert images[G2.mul(g, h)] == G1.mul(images[g], images[h]), ("not a hom", g, h)
    for g in G2.elements():
        assert ext1.projection(images[g]) == ext2.projection(g), ("projection", g)
    for a in A.elements():
        assert images[ext2.embed(a)] == ext1.embed(a), ("moves the kernel", a)


def are_equivalent(ext1, ext2, strategy="solve"):
    """`ext.are_equivalent`; every witness it returns in this module passes
    `check_equivalence_map`, which the function itself does not run."""
    phi = ext_module.are_equivalent(ext1, ext2, strategy)
    if phi is not None:
        check_equivalence_map(ext1, ext2, phi)
    return phi


def nontrivial_z2_cocycle() -> Cochain:
    return Cochain.from_function(Z2, A2, 2,
                                 lambda p, q: (1,) if p == 1 and q == 1 else (0,))


# ---------------------------------------------------------------------------
# building


def test_trivial_cocycle_gives_direct_product():
    ext = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    ext.validate()
    orders = sorted(ext.carrier.element_order(g) for g in ext.carrier.elements())
    assert orders == [1, 2, 2, 2]  # Klein four


def test_nontrivial_cocycle_gives_cyclic_4():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    ext.validate()
    assert ext.carrier.element_order(ext.index_of((0,), 1)) == 4
    orders = sorted(ext.carrier.element_order(g) for g in ext.carrier.elements())
    assert orders == [1, 2, 4, 4]


def test_coboundary_twist_gives_klein_four():
    phi = Cochain.from_function(Z2, A2, 1, lambda p: (p,))
    ext = build_extension(Z2, A2, coboundary(phi))
    assert all(ext.carrier.element_order(g) in (1, 2) for g in ext.carrier.elements())


def test_exactness_invariants():
    for gname, aname in (("z2", "z2"), ("z3", "z2"), ("klein4", "z2"), ("s3", "z3")):
        P, A = group_by_name(gname), coefficients_by_name(aname)
        ext = build_extension(P, A, Cochain.zero(P, A, 2))
        ext.validate()  # |G| = |A||P|, ker pi = i(A), i(A) central
        assert ext.carrier.order == A.size * P.order


def _first_violating_triple(w: Cochain):
    """Lexicographic scan of w(q,r) + w(p,qr) = w(pq,r) + w(p,q)."""
    P, A = w.group, w.coeffs
    for p, q, r in product(P.elements(), repeat=3):
        if A.add(w.value(q, r), w.value(p, P.mul(q, r))) != \
                A.add(w.value(P.mul(p, q), r), w.value(p, q)):
            return (p, q, r)
    return None


def test_noncocycle_rejected_with_violating_triple():
    bad_vals = list(nontrivial_z2_cocycle().values)
    bad_vals[1] = (1,)  # corrupt one value
    bad = Cochain(Z2, A2, 2, tuple(bad_vals))
    with pytest.raises(NotACocycleError) as err:
        build_extension(Z2, A2, bad)
    p, q, r = err.value.triple
    # the reported triple really witnesses an associativity failure
    forced = build_extension(Z2, A2, bad, validate=False)
    g = forced.carrier
    a = forced.index_of((0,), p)
    b = forced.index_of((0,), q)
    c = forced.index_of((0,), r)
    assert g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c))

    # on seeded non-cocycles the witness is the lexicographically first
    # violating triple: random cochains, and coboundaries with one value
    # changed, which fail first wherever that value enters the equations
    rng = random.Random(41)
    rejected = 0
    for gname, aname in (("z2", "z4"), ("z3", "z2"), ("klein4", "z2xz2"),
                         ("s3", "z3"), ("q8", "z2"), ("z6", "z4")):
        P, A = group_by_name(gname), coefficients_by_name(aname)
        for trial in range(8):
            if trial % 2:
                w = Cochain.random(P, A, 2, rng)
            else:
                vals = list(coboundary(Cochain.random(P, A, 1, rng)).values)
                i = rng.randrange(len(vals))
                vals[i] = A.add(vals[i], tuple(1 + rng.randrange(m - 1) for m in A.orders))
                w = Cochain(P, A, 2, tuple(vals))
            expected = _first_violating_triple(w)
            if expected is None:  # a random draw can be a cocycle
                build_extension(P, A, w)
                continue
            with pytest.raises(NotACocycleError) as err:
                build_extension(P, A, w)
            assert err.value.triple == expected, (gname, aname, trial)
            rejected += 1
    assert rejected >= 40


@pytest.mark.parametrize("gname", sorted(_NAMED_GROUPS))
def test_a_non_cocycle_is_named_without_the_full_d2_incidence(gname, monkeypatch):
    # the witness scan builds d_2 omega one first argument p at a time and
    # still names the first failing triple of the lexicographic scan; with
    # omega(1, .) constant the rows (1, q, r) vanish, so the scan also has to
    # pass a first argument with no failure.  Splitting and equivalence
    # build no full incidence of any degree.
    rng = random.Random(f"witness:{gname}")
    named = group_by_name(gname)
    cases, cocycles = [], []
    for P in (named, _relabelled_group(named, rng)):
        for aname in ("z2", "z4", "z2xz2", "z6"):
            A = coefficients_by_name(aname)
            for trial in range(4):
                w = Cochain.random(P, A, 2, rng)
                if trial % 2:
                    u, N = A.element(rng.randrange(A.size)), P.order
                    w = Cochain(P, A, 2, tuple(u if k // N == P.identity else v
                                               for k, v in enumerate(w.values)))
                bad = _first_violating_triple(w)
                if bad is not None:
                    cases.append((P, A, w, bad))
            z = sum((g.scale(rng.randrange(order)) for g, order in
                     cocycle_space(P, A, 2).generators), Cochain.zero(P, A, 2))
            d = coboundary(Cochain.random(P, A, 1, rng))
            cocycles.append((P, A, z, d))
    assert len(cases) >= 24
    assert any(bad[0] != 0 for *_, bad in cases)
    full = grpcoh._incidence

    def without_d2(table, n):
        assert n != 2, "the full d_2 incidence was built"
        return full(table, n)

    monkeypatch.setattr(grpcoh, "_incidence", without_d2)
    for P, A, w, bad in cases:
        with pytest.raises(NotACocycleError) as err:
            ext_module.build_extension(P, A, w)
        assert err.value.triple == bad, (gname, A.orders)

    # counted on the cached function itself, whatever name a caller holds
    calls = full.cache_info()[:2]
    for P, A, z, d in cocycles:
        shifted = ext_module.build_extension(P, A, z + d)
        assert ext_module.is_split(ext_module.build_extension(P, A, d)) is not None
        assert ext_module.are_equivalent(shifted, ext_module.build_extension(P, A, z)) is not None
        split = ext_module.is_split(shifted) is not None
        assert split == (ext_module.are_equivalent(
            shifted, ext_module.build_extension(P, A, Cochain.zero(P, A, 2))) is not None)
    assert full.cache_info()[:2] == calls, "a full incidence was built"


def test_normalized_noncocycles_give_loops_light_test_rejects():
    # with w(1, q) = w(p, 1) = 0 the table is a Latin square with identity
    # (0, 1), so only associativity can fail; Light's test on a generating
    # set and the full scan name the same first failing triple
    rng = random.Random(43)
    failures = 0
    for gname, aname in (("z4", "z4"), ("z3", "z3"), ("klein4", "z2"), ("s3", "z2"),
                         ("q8", "z2"), ("z6", "z2xz2")):
        P, A = group_by_name(gname), coefficients_by_name(aname)
        e = P.identity
        for _ in range(4):
            w = Cochain.from_function(P, A, 2, lambda p, q: (
                A.zero() if e in (p, q) else tuple(rng.randrange(m) for m in A.orders)))
            message = assert_validate_matches_full_scan(
                build_extension(P, A, w, validate=False).carrier)
            if _first_violating_triple(w) is not None:
                assert message.startswith("associativity fails on triple"), message
                failures += 1
    assert failures >= 20


def _tuple_carrier(P, A, w):
    """Test-local transcription of (a, p)(b, q) = (a + b - w(p, q), pq) on
    residue tuples: the carrier table and identity index."""
    elems = list(product(*(range(m) for m in A.orders)))
    pos = {a: i for i, a in enumerate(elems)}
    N = P.order

    def times(a, p, b, q):
        c = tuple((x + y - z) % m for x, y, z, m in zip(a, b, w.value(p, q), A.orders))
        return pos[c] * N + P.mul(p, q)

    table = tuple(tuple(times(a, p, b, q) for b in elems for q in range(N))
                  for a in elems for p in range(N))
    return table, pos[A.reduce(w.value(P.identity, P.identity))] * N + P.identity


def _with_carrier(P, A, w, carrier, projection_values):
    """The extension record of w with a hand-set carrier and projection:
    written into the instance before the first read, they stand in for the
    ones `carrier` and `projection` would derive from w."""
    ext = CentralExtensionTable(P, A, w)
    projection = GroupHom(carrier, P, projection_values)
    vars(ext).update(carrier=carrier, projection=projection)
    assert ext.carrier is carrier and ext.projection is projection
    return ext


_INDEX_COEFFS = ["z2", "z3", "z4", "z2xz2", "2,4"]


def _index_build_cases(P, A, rng):
    """(label, cochain) pairs: a normalized cocycle (w(1, q) = w(p, 1) = 0),
    a non-normalized one, the same with values shifted by multiples of m
    (unreduced and negative), and two non-cocycles."""
    w = coboundary(Cochain.random(P, A, 1, rng))
    for g, order in cocycle_space(P, A, 2).generators:
        w = w + g.scale(rng.randrange(order))
    u = w.value(P.identity, P.identity)
    normalized = Cochain(P, A, 2, tuple(A.sub(v, u) for v in w.values))
    shifted = Cochain(P, A, 2, tuple(tuple(x + m * (i % 5 - 2) for x, m in zip(v, A.orders))
                                     for i, v in enumerate(w.values)))
    vals = list(w.values)
    i = rng.randrange(len(vals))
    vals[i] = A.add(vals[i], tuple(1 + rng.randrange(m - 1) for m in A.orders))
    return [("normalized", normalized), ("non-normalized", w), ("unreduced", shifted),
            ("changed", Cochain(P, A, 2, tuple(vals))),
            ("random", Cochain.random(P, A, 2, rng))]


@pytest.mark.parametrize("gname", ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "s3",
                                   "q8", "a4"])
def test_index_table_build_matches_tuple_transcription(gname):
    # the cocycle test on A-indices and the block-gathered table against the
    # transcription, on the named table and a relabelled one whose identity
    # is not 0: table, identity and to_json() are equal, cocycles pass
    # `validate`, and a non-cocycle is refused with the first nonzero value
    # of the full d_2 omega, then built with validate=False
    rng = random.Random(f"flat:{gname}")
    named = group_by_name(gname)
    seen = set()
    for P in (named, _relabelled_group(named, rng)):
        e = P.identity
        for aname in _INDEX_COEFFS:
            A = coefficients_by_name(aname)
            for label, w in _index_build_cases(P, A, rng):
                if label == "normalized":
                    assert all(w.value(e, q) == A.zero() == w.value(q, e) for q in range(P.order))
                elif label == "unreduced":
                    assert any(x < 0 for v in w.values for x in v)
                    assert any(x >= m for v in w.values for x, m in zip(v, A.orders))
                is_cocycle = coboundary(w).is_zero()
                if not is_cocycle:
                    with pytest.raises(NotACocycleError) as err:
                        ext_module.build_extension(P, A, w)
                    assert err.value.triple == coboundary(w).first_nonzero()
                built = ext_module.build_extension(P, A, w, validate=is_cocycle)
                table, identity = _tuple_carrier(P, A, w)
                assert built.carrier.table == table and built.carrier.identity == identity
                carrier = FiniteGroup(len(table), table, identity)
                expected = _with_carrier(P, A, w, carrier,
                                         tuple(g % P.order for g in carrier.elements()))
                assert built.to_json() == expected.to_json(), (P.name, aname, label)
                # equality compares (base, kernel, cocycle), not the derived tables
                assert built == expected
                if is_cocycle:
                    built.validate()
                seen.add(label if is_cocycle else "rejected")
    # on small groups a changed or random draw can happen to be a cocycle
    assert seen >= {"normalized", "non-normalized", "unreduced", "rejected"}


def test_carrier_frames_are_keyed_by_kernel_orders_and_base_labels():
    # Z4 and Z2xZ2 have the same size but other index shifts T
    ext_module._carrier_frame.cache_clear()
    P = group_by_name("z2")
    T4 = ext_module._carrier_frame((4,), 2, P.labels)[0]
    T22 = ext_module._carrier_frame((2, 2), 2, P.labels)[0]
    assert T4 != T22
    for orders in ((4,), (2, 2), (4,)):
        A = AbelianCoefficients(orders)
        w = cocycle_space(P, A, 2).generators[0][0]
        table, identity = _tuple_carrier(P, A, w)
        built = build_extension(P, A, w)
        assert built.carrier.table == table and built.carrier.identity == identity
    # two bases of order 4 with their own labels: each carrier names its base
    A = AbelianCoefficients((2,))
    for P in (group_by_name("z4"), group_by_name("klein4"),
              FiniteGroup.from_table(group_by_name("z4").table, 0, labels="eabc")):
        built = build_extension(P, A, Cochain.zero(P, A, 2))
        assert built.carrier.labels == tuple(f"({a},{p})" for a in "01" for p in P.labels)
    assert ext_module._carrier_frame.cache_info().currsize == 5


@pytest.mark.parametrize("gname", [g for g in sorted(_NAMED_GROUPS)
                                   if group_by_name(g).order <= 8])
def test_class_questions_build_no_carrier_and_the_first_read_is_the_table(gname):
    # are_equivalent and is_split read (base, kernel, cocycle) alone: neither
    # an equivalence check nor a split check that finds no splitting builds
    # the carrier or the projection; their first read is the transcribed
    # table and pi(a, p) = p
    P = group_by_name(gname)
    rng = random.Random(f"lazy:{gname}")
    nonsplit_seen = 0
    for orders in ((2,), (4,), (2, 2)):
        A = AbelianCoefficients(orders)
        reps = ext_module._class_representatives(cocycle_space(P, A, 2))

        def build(w):
            return ext_module.build_extension(P, A, w + coboundary(Cochain.random(P, A, 1, rng)))

        first, shifted, trivial = build(reps[-1]), build(reps[-1]), build(reps[0])
        assert ext_module.are_equivalent(first, shifted) is not None
        assert (ext_module.are_equivalent(first, trivial) is None) == (len(reps) > 1)
        nonsplit = [build(rep) for rep in reps[1:]]
        for e in nonsplit:
            assert is_split(e) is None
        nonsplit_seen += len(nonsplit)
        for e in [first, shifted, trivial, *nonsplit]:
            assert "carrier" not in vars(e) and "projection" not in vars(e)
            table, identity = _tuple_carrier(P, A, e.cocycle)
            assert e.carrier.table == table and e.carrier.identity == identity
            assert e.projection == GroupHom(e.carrier, P,
                                            tuple(g % P.order for g in e.carrier.elements()))
            assert vars(e)["carrier"] is e.carrier and vars(e)["projection"] is e.projection
    # every group here but z3 and z5 has a nontrivial class over one of the kernels
    assert (nonsplit_seen > 0) == (gname not in ("z3", "z5"))


# sha256 of the concatenated `to_json` of one seeded cocycle per named group
# and kernel Z2, Z4, Z2xZ2: a golden value, so any change to the exported
# bytes of these extensions shows here
_EXTENSIONS_JSON_SHA256 = "763daeb0a2d95689bdbda8a07b1ab86b2f5f75bc02d98edb3106f4648fa7a1a7"


def test_extension_json_of_a_fixed_set_is_unchanged():
    h = hashlib.sha256()
    for gname in sorted(_NAMED_GROUPS):
        P = group_by_name(gname)
        for orders in ((2,), (4,), (2, 2)):
            A = AbelianCoefficients(orders)
            rng = random.Random(f"json:{gname}:{orders}")
            w = coboundary(Cochain.random(P, A, 1, rng))
            for gen, order in cocycle_space(P, A, 2).generators:
                w = w + gen.scale(rng.randrange(order))
            h.update(ext_module.build_extension(P, A, w).to_json().encode())
    assert h.hexdigest() == _EXTENSIONS_JSON_SHA256


def test_unnormalized_cocycles_still_build_valid_extensions():
    for w in enumerate_cocycles(Z2, A2, 2):
        build_extension(Z2, A2, w).validate()


# ---------------------------------------------------------------------------
# sections and the round trip


def test_canonical_section_shape():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    s = extract_section(ext)
    for p in Z2.elements():
        assert ext.decompose(s(p)) == ((0,), p)
        assert ext.projection(s(p)) == p


def test_random_section_is_section():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    s = extract_section(ext, "random", seed=41)
    for p in Z2.elements():
        assert ext.projection(s(p)) == p
    with pytest.raises(ValueError):
        extract_section(ext, "random")  # seed required


def test_round_trip_on_all_z2_cocycles():
    for w in enumerate_cocycles(Z2, A2, 2):
        ext = build_extension(Z2, A2, w)
        assert cocycle_of_section(ext, extract_section(ext)).values == w.values


def test_round_trip_on_all_klein4_cocycles():
    k4 = group_by_name("klein4")
    for w in enumerate_cocycles(k4, A2, 2):
        ext = build_extension(k4, A2, w)
        assert cocycle_of_section(ext, extract_section(ext)).values == w.values


def section_difference(ext, s1, s2):
    """Degree-1 cochain c with s1(p) = s2(p) * i-part, read off coordinates:
    c(p) = A-part of s1(p) minus A-part of s2(p)."""
    def diff(p):
        a1, _ = ext.decompose(s1(p))
        a2, _ = ext.decompose(s2(p))
        return ext.kernel.sub(a1, a2)

    return Cochain.from_function(ext.base, ext.kernel, 1, diff)


def test_section_cocycles_differ_by_difference_coboundary():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    s_canon = extract_section(ext)
    for seed in (1, 2, 3):
        s_rand = extract_section(ext, "random", seed=seed)
        w_rand = cocycle_of_section(ext, s_rand)
        diff = section_difference(ext, s_rand, s_canon)
        assert ((ext.cocycle - w_rand) - coboundary(diff)).is_zero()
        # and the recovered cocycle rebuilds an equivalent extension
        assert are_equivalent(ext, build_extension(Z2, A2, w_rand)) is not None


# ---------------------------------------------------------------------------
# equivalence


def test_equivalence_partition_of_z2_cocycles():
    cocycles = enumerate_cocycles(Z2, A2, 2)
    exts = [build_extension(Z2, A2, w) for w in cocycles]
    classes: list[list] = []
    for e in exts:
        for cls in classes:
            if are_equivalent(cls[0], e) is not None:
                cls.append(e)
                break
        else:
            classes.append([e])
    # honest oracle values: |Z^2| = 4 splits as |H^2| = 2 classes of |B^2| = 2
    assert sorted(len(c) for c in classes) == [2, 2]


def test_inequivalent_pair():
    e_cyclic = build_extension(Z2, A2, nontrivial_z2_cocycle())
    e_direct = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    assert are_equivalent(e_cyclic, e_direct) is None


def test_self_equivalence_zero_witness():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    phi = are_equivalent(ext, ext)
    assert phi is not None and phi.is_zero()


def test_equivalence_after_explicit_coboundary_shift():
    rng = random.Random(10)
    k4 = group_by_name("klein4")
    w = enumerate_cocycles(k4, A2, 2)[7]
    phi0 = Cochain.random(k4, A2, 1, rng)
    shifted = w + coboundary(phi0)
    e1 = build_extension(k4, A2, w)
    e2 = build_extension(k4, A2, shifted)
    phi = are_equivalent(e1, e2)
    assert phi is not None
    assert (coboundary(phi) - (w - shifted)).is_zero()


def test_solver_and_search_strategies_agree():
    cocycles = enumerate_cocycles(Z2, A2, 2)
    for w1 in cocycles:
        for w2 in cocycles:
            e1, e2 = build_extension(Z2, A2, w1), build_extension(Z2, A2, w2)
            assert (are_equivalent(e1, e2, "solve") is None) == \
                   (are_equivalent(e1, e2, "search") is None)


def test_unknown_equivalence_strategy_is_rejected():
    e = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    for strategy in ("auto", "slove", ""):
        with pytest.raises(ValueError, match=repr(strategy)):
            are_equivalent(e, e, strategy)


def test_equivalence_requires_same_base_and_kernel():
    e1 = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    z3 = group_by_name("z3")
    e2 = build_extension(z3, A2, Cochain.zero(z3, A2, 2))
    with pytest.raises(ValueError):
        are_equivalent(e1, e2)


# ---------------------------------------------------------------------------
# splitting


def test_split_direct_product():
    ext = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    hom = is_split(ext)
    assert hom is not None
    assert list(hom.values) == [ext.section_index(p) for p in Z2.elements()]


def test_cyclic_extension_not_split():
    assert is_split(build_extension(Z2, A2, nontrivial_z2_cocycle())) is None


def test_split_agrees_with_coboundary_membership():
    k4 = group_by_name("klein4")
    b2 = {coboundary(f).values for f in enumerate_cochains(k4, A2, 1)}
    for w in enumerate_cocycles(k4, A2, 2):
        ext = build_extension(k4, A2, w)
        assert (is_split(ext) is not None) == (w.values in b2)


def test_splitting_section_is_verified_hom():
    phi = Cochain.from_function(Z2, A2, 1, lambda p: (p,))
    ext = build_extension(Z2, A2, coboundary(phi))
    hom = is_split(ext)
    hom.validate()
    for p in Z2.elements():
        assert ext.projection(hom(p)) == p


# ---------------------------------------------------------------------------
# the splitting construction through a covering


def _sigma_z4_to_z2():
    return GroupHom(group_by_name("z4"), Z2, (0, 1, 0, 1))


def test_inflated_nontrivial_cocycle_is_coboundary():
    z4 = group_by_name("z4")
    sigma = _sigma_z4_to_z2()
    w_tilde = inflation(sigma, nontrivial_z2_cocycle())
    assert coboundary(w_tilde).is_zero()
    # exhaustive search over the 16 one-cochains finds a trivializing phi
    found = [phi for phi in enumerate_cochains(z4, A2, 1)
             if (coboundary(phi) - w_tilde).is_zero()]
    assert found


def test_construct_splitting_end_to_end():
    z4 = group_by_name("z4")
    sigma = _sigma_z4_to_z2()
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    w_tilde = inflation(sigma, ext.cocycle)
    phi = next(c for c in enumerate_cochains(z4, A2, 1)
               if (coboundary(c) - w_tilde).is_zero())
    U = construct_splitting(z4, sigma, ext, phi)
    U.validate()
    for g in z4.elements():
        assert ext.projection(U(g)) == sigma(g)
    assert U(z4.identity) == ext.carrier.identity


def test_construct_splitting_trivial_cocycle_phi_zero():
    z4 = group_by_name("z4")
    sigma = _sigma_z4_to_z2()
    ext = build_extension(Z2, A2, Cochain.zero(Z2, A2, 2))
    U = construct_splitting(z4, sigma, ext, Cochain.zero(z4, A2, 1))
    for g in z4.elements():
        assert U(g) == ext.section_index(sigma(g))


def test_construct_splitting_rejects_wrong_phi():
    z4 = group_by_name("z4")
    sigma = _sigma_z4_to_z2()
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    with pytest.raises(ValueError, match="pair"):
        construct_splitting(z4, sigma, ext, Cochain.zero(z4, A2, 1))


def test_construct_splitting_names_the_first_pair_where_d_phi_misses():
    # U is a homomorphism iff d_1 phi equals the inflated cocycle, so
    # U.validate() names the first pair (g, h) where they differ; a phi with
    # phi(1) != u sends the identity elsewhere, checked first
    z4, z8, k4 = group_by_name("z4"), group_by_name("z8"), group_by_name("klein4")
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    with pytest.raises(ValueError) as err:
        construct_splitting(z4, _sigma_z4_to_z2(), ext, Cochain.zero(z4, A2, 1))
    assert str(err.value) == "multiplicativity fails on pair (1, 1)"
    rng = random.Random(7)
    seen = {"identity": 0, "pair": 0}
    for P, A, sigma in ((Z2, A2, _sigma_z4_to_z2()),
                        (Z2, coefficients_by_name("z4"),
                         GroupHom(z8, Z2, tuple(x % 2 for x in range(8)))),
                        (k4, A2, GroupHom.identity_map(k4))):
        E = sigma.source
        for w in enumerate_cocycles(P, A, 2)[:6]:
            ext, w_tilde = build_extension(P, A, w), inflation(sigma, w)
            for _ in range(4):
                phi = Cochain.random(E, A, 1, rng)
                bad = (coboundary(phi) - w_tilde).first_nonzero()
                if bad is None:
                    construct_splitting(E, sigma, ext, phi)
                    continue
                with pytest.raises(ValueError) as err:
                    construct_splitting(E, sigma, ext, phi)
                if phi.value(E.identity) != ext.normalizer:
                    assert str(err.value) == "map does not send identity to identity"
                    seen["identity"] += 1
                else:
                    assert str(err.value) == f"multiplicativity fails on pair {bad}"
                    seen["pair"] += 1
    assert seen["identity"] >= 10 and seen["pair"] >= 10, seen


def test_splittings_and_correspondence_lifts_are_validated_homomorphisms(monkeypatch):
    validated = []
    check = GroupHom.validate

    def spy(hom):
        check(hom)
        validated.append(hom)

    monkeypatch.setattr(GroupHom, "validate", spy)
    k4 = group_by_name("klein4")
    for w in enumerate_cocycles(k4, A2, 2)[:8]:
        hom = is_split(build_extension(k4, A2, w))
        if hom is not None:
            assert any(v is hom for v in validated)
            assert all(hom(k4.mul(a, b)) == hom.target.mul(hom(a), hom(b))
                       for a, b in product(k4.elements(), repeat=2))
    validated.clear()
    report = h1_h2_correspondence_check(group_by_name("z8"), GroupHom(
        group_by_name("z8"), group_by_name("z4"), tuple(x % 4 for x in range(8))), A2)
    assert report.applicable
    lifts = [v for v in validated if v.source.name == "z8" and v.target.name.startswith("ext(")]
    assert len(lifts) == report.h2_order == len(report.class_to_hom)


# ---------------------------------------------------------------------------
# the correspondence check


def test_correspondence_z4_over_z2():
    report = h1_h2_correspondence_check(group_by_name("z4"), _sigma_z4_to_z2(), A2)
    assert report.applicable
    assert report.h1_order == 2
    assert report.h2_order == 2
    assert report.injective
    assert len(report.class_to_hom) == 2


def test_correspondence_trivial_cover_applicable_iff_h2_trivial():
    z3 = group_by_name("z3")
    report = h1_h2_correspondence_check(z3, GroupHom.identity_map(z3), A2)
    assert report.applicable and report.h1_order == 1 and report.h2_order == 1
    # H^2(z2, z2) is nontrivial, so the identity cover cannot split everything
    report2 = h1_h2_correspondence_check(Z2, GroupHom.identity_map(Z2), A2)
    assert not report2.applicable
    assert report2.failing_class is not None


def test_correspondence_coprime_orders_both_trivial():
    report = h1_h2_correspondence_check(
        Z2, GroupHom.identity_map(Z2), coefficients_by_name("z3"))
    assert report.applicable
    assert report.h1_order == report.h2_order == 1


def test_correspondence_requires_central_kernel():
    s3 = group_by_name("s3")
    # quotient S3 -> Z2 by parity has non-central kernel A3
    parity = []
    for idx in range(6):
        label = s3.labels[idx]
        perm = tuple(int(ch) for ch in label)
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                         if perm[i] > perm[j])
        parity.append(inversions % 2)
    sigma = GroupHom(s3, Z2, tuple(parity))
    sigma.validate()
    with pytest.raises(ValueError, match="central"):
        h1_h2_correspondence_check(s3, sigma, A2)


# ---------------------------------------------------------------------------
# validation of hand-built extension tables: one bad table per raise site
# (an injectivity failure of the embedding cannot be built: i(a) is read off
# the addition table of A, whose rows differ)


def _relabelled(table, perm):
    """The group table with element x renamed perm[x]."""
    inv = {v: k for k, v in enumerate(perm)}
    return tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(len(perm)))
                 for a in range(len(perm)))


def _hand_built(P, A, carrier_table, projection=None):
    n = P.order
    carrier = FiniteGroup(len(carrier_table), carrier_table, 0, "hand-built")
    values = projection or tuple(g % n for g in range(carrier.order))
    return _with_carrier(P, A, Cochain.zero(P, A, 2), carrier, values)


def _klein_over_z2(projection):
    """Z2 x Z2 = ext(z2; 2) of the zero cocycle, with a hand-set projection."""
    carrier = ext_module.build_extension(Z2, A2, Cochain.zero(Z2, A2, 2)).carrier
    return _hand_built(Z2, A2, carrier.table, projection)


def _s3_over_z2():
    """S3 as r^a s^p at index 2a + p: the projection to Z2 is the sign, and
    its kernel A3 = i(Z3) is normal but not central."""
    def idx(a, p):
        return 2 * (a % 3) + p

    table = tuple(tuple(idx(a + (b if p == 0 else -b), (p + q) % 2)
                        for b in range(3) for q in range(2))
                  for a in range(3) for p in range(2))
    return _hand_built(Z2, coefficients_by_name("z3"), table)


_BAD_TABLES = [
    ("carrier-order", lambda: _hand_built(Z2, A2, group_by_name("z8").table),
     "carrier order is not |A| * |P|"),
    # Z4 renamed so that i(1), index 2, is a generator: i(1) i(1) != i(0)
    ("embedding", lambda: _hand_built(Z2, A2, _relabelled(group_by_name("z4").table,
                                                          (0, 2, 1, 3))),
     "kernel embedding is not a homomorphism"),
    ("projection-hom", lambda: _klein_over_z2((0, 1, 1, 1)),
     "multiplicativity fails on pair (1, 2)"),
    ("projection-onto", lambda: _klein_over_z2((0, 0, 0, 0)), "projection is not surjective"),
    # (a, p) -> a is onto, with kernel {(0, 0), (0, 1)}, not i(A) = {(0, 0), (1, 0)}
    ("projection-kernel", lambda: _klein_over_z2((0, 0, 1, 1)),
     "kernel of the projection is not the embedded A"),
    ("centrality", _s3_over_z2, "embedded kernel element 2 is not central"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in _BAD_TABLES],
                         ids=[case[0] for case in _BAD_TABLES])
def test_validate_names_the_defect_of_a_hand_built_table(build, message):
    with pytest.raises(ValueError) as err:
        build().validate()
    assert str(err.value) == message


def test_validate_reports_a_carrier_that_is_no_group():
    # a normalized non-cocycle gives a loop: the carrier check fails first,
    # with the full-scan oracle's message
    P, A = group_by_name("s3"), coefficients_by_name("z2")
    e = P.identity
    w = Cochain.from_function(P, A, 2, lambda p, q: (0,) if e in (p, q) else (p * q % 2,))
    forced = build_extension(P, A, w, validate=False)
    with pytest.raises(ValueError) as err:
        forced.validate()
    assert str(err.value).startswith("associativity fails on triple")
    assert str(err.value) == assert_validate_matches_full_scan(forced.carrier)


# ---------------------------------------------------------------------------
# JSON export


def test_extension_json_round_trip_bit_exact():
    ext = build_extension(Z2, A2, nontrivial_z2_cocycle())
    text = ext.to_json()
    again = CentralExtensionTable.from_json(text)
    assert again.to_json() == text
    assert again.carrier.table == ext.carrier.table


def _edited_extension_json(path, value):
    """The JSON of the nontrivial extension of Z2 by Z2 with the entry at
    `path` (a tuple of keys and list indices) set to `value`."""
    obj = json.loads(build_extension(Z2, A2, nontrivial_z2_cocycle()).to_json())
    *outer, last = path
    target = obj
    for key in outer:
        target = target[key]
    target[last] = value
    return json.dumps(obj)


@pytest.mark.parametrize("path, value", [
    (("base", "order"), 9), (("carrier", "order"), 7), (("carrier", "identity"), 3)])
def test_extension_json_with_an_edited_order_or_identity_is_refused(path, value):
    # none of these keys is read to rebuild the extension
    key = r"\.".join(path)
    with pytest.raises(ValueError, match=rf"^stored {key} does not match"):
        CentralExtensionTable.from_json(_edited_extension_json(path, value))


def test_extension_json_names_the_first_differing_table_entry_and_type():
    # types count: a float equal to the stored integer is refused too
    with pytest.raises(ValueError, match=r"^stored carrier\.table\[1\]\[2\] does not"):
        CentralExtensionTable.from_json(_edited_extension_json(("carrier", "table", 1, 2), 0))
    with pytest.raises(ValueError, match=r"^stored projection\[0\] does not match"):
        CentralExtensionTable.from_json(_edited_extension_json(("projection", 0), 0.0))
    with pytest.raises(ValueError, match=r"^stored carrier\.label does not match"):
        CentralExtensionTable.from_json(_edited_extension_json(("carrier", "label"), "G"))


_ORACLE_GROUPS = ["z2", "z3", "z4", "z6", "klein4", "s3"]
_ORACLE_COEFFS = ["z2", "z3", "z4", "z2xz2"]


@pytest.mark.parametrize("pname, aname", [
    (p, a) for p in _ORACLE_GROUPS for a in _ORACLE_COEFFS
    if coefficients_by_name(a).size ** (group_by_name(p).order ** 2) <= 2 ** 20])
def test_class_representatives_match_enumeration_oracle(pname, aname):
    P, A = group_by_name(pname), coefficients_by_name(aname)
    reps = ext_module._class_representatives(cocycle_space(P, A, 2))
    boundaries = {coboundary(f).values for f in enumerate_cochains(P, A, 1)}
    for z in enumerate_cocycles(P, A, 2):
        assert sum((z - r).values in boundaries for r in reps) == 1
    assert len(reps) == prod(cohomology_group(P, A, 2), start=1)


# ---------------------------------------------------------------------------
# Light's rows: the cocycle decision and the d_1 solve on (p, s, r) and (p, s)

_LIGHT_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "s3", "q8", "a4"]
_LIGHT_COEFFS = ["z2", "z3", "z4", "z2xz2", "z6"]


def _relabelled_group(P, rng):
    """P with its elements renamed by a seeded permutation that moves the
    identity off 0."""
    perm = list(range(P.order))
    while perm[P.identity] == 0:
        rng.shuffle(perm)
    return FiniteGroup(P.order, _relabelled(P.table, perm), perm[P.identity],
                       f"{P.name}-relabelled")


def _seeded_cochains(P, A, rng):
    """Cocycles (a coboundary plus a random combination of the generators of
    Z^2), the same with one value changed, and random 2-cochains."""
    gens = cocycle_space(P, A, 2).generators
    out = []
    for _ in range(3):
        w = coboundary(Cochain.random(P, A, 1, rng))
        for g, order in gens:
            w = w + g.scale(rng.randrange(order))
        vals = list(w.values)
        i = rng.randrange(len(vals))
        vals[i] = A.add(vals[i], tuple(1 + rng.randrange(m - 1) for m in A.orders))
        out += [w, Cochain(P, A, 2, tuple(vals)), Cochain.random(P, A, 2, rng)]
    return out


def _light_cases(seed):
    rng = random.Random(seed)
    for gname in _LIGHT_GROUPS:
        named = group_by_name(gname)
        for P in (named, _relabelled_group(named, rng)):
            for aname in _LIGHT_COEFFS:
                A = coefficients_by_name(aname)
                for w in _seeded_cochains(P, A, rng):
                    yield P, A, w


@lru_cache(maxsize=None)
def _matrix_rows(P, degree):
    """The nonzero (column, entry) pairs of each row of `coboundary_matrix`."""
    return [[(j, c) for j, c in enumerate(row) if c]
            for row in coboundary_matrix(P, degree).entries]


def _matrix_coboundary(f):
    """d f from the dense d_n of `coboundary_matrix`, one cyclic factor
    mod its order at a time: the oracle that shares no code with the face
    sums of `coboundary` and ext's identity tests."""
    rows, orders = _matrix_rows(f.group, f.degree), f.coeffs.orders
    return tuple(zip(*(tuple(sum(c * f.values[j][k] for j, c in row) % m for row in rows)
                       for k, m in enumerate(orders))))


def test_light_rows_decide_the_cocycle_condition():
    verdicts = set()
    for P, A, w in _light_cases(24):
        is_cocycle = not any(map(any, _matrix_coboundary(w)))
        idx = _value_indices(A.orders, w.values)
        assert ext_module._is_cocycle(P, A.orders, idx) == is_cocycle, (P.name, A.orders, w.values)
        verdicts.add((P.identity != 0, is_cocycle))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_index_check_of_d1_phi_agrees_with_the_full_coboundary():
    # `_d1_matches` against d_1 phi from the dense matrix, the target read
    # mod m: d_1 phi itself, with values shifted by multiples of m, and with
    # one value changed; both verdicts on every named and relabelled group
    rng = random.Random(33)
    verdicts = set()
    for gname in _LIGHT_GROUPS:
        named = group_by_name(gname)
        for P in (named, _relabelled_group(named, rng)):
            for aname in _INDEX_COEFFS:
                A = coefficients_by_name(aname)
                phi = Cochain.random(P, A, 1, rng)
                d = _matrix_coboundary(phi)
                vals = list(d)
                i = rng.randrange(len(vals))
                vals[i] = A.add(vals[i], tuple(1 + rng.randrange(m - 1) for m in A.orders))
                shifted = tuple(tuple(x - m * (j % 3) for x, m in zip(v, A.orders))
                                for j, v in enumerate(d))
                for target in (d, shifted, tuple(vals), Cochain.random(P, A, 2, rng).values):
                    expected = d == tuple(map(A.reduce, target))
                    assert ext_module._d1_matches(P, A.orders, phi.values, target) == expected
                    verdicts.add(expected)
    assert verdicts == {False, True}


def _full_row_solve(P, A, target):
    """The full-row solve: `solve_mod` on the whole of d_1, one cyclic
    factor at a time."""
    d = coboundary_matrix(P, 1)
    per_factor = []
    for fi, m in enumerate(A.orders):
        sol = solve_mod(d, [v[fi] for v in target.values], m)
        if sol is None:
            return None
        per_factor.append(sol)
    return tuple(zip(*per_factor))


_SOLVE_COEFFS = ["z2", "z3", "z4", "z2xz2", "z6", "z8", "2,4"]


@pytest.mark.parametrize("gname", _LIGHT_GROUPS)
def test_light_row_solve_matches_the_full_row_solve(gname):
    # on the named groups the witness is bitwise the full-row one; coboundaries
    # of random 1-cochains make the solvable cases, the other draws the rest
    P = group_by_name(gname)
    rng = random.Random(sum(map(ord, gname)))
    solved = unsolved = 0
    for aname in _SOLVE_COEFFS:
        A = coefficients_by_name(aname)
        targets = [coboundary(Cochain.random(P, A, 1, rng)) for _ in range(4)]
        for t in targets + _seeded_cochains(P, A, rng):
            phi = ext_module._solve_coboundary(P, A, t)
            expected = _full_row_solve(P, A, t)
            assert (None if phi is None else phi.values) == expected, (aname, t.values)
            solved += phi is not None
            unsolved += phi is None
    assert solved >= 28 and unsolved >= 7


def test_light_row_solve_on_relabelled_groups_is_a_witness_exactly_when_one_exists():
    # a relabelled table may pivot differently and return another witness
    # (it differs by a homomorphism P -> A), never a different verdict
    found = 0
    for P, A, t in _light_cases(25):
        if P.identity == 0:
            continue
        phi = ext_module._solve_coboundary(P, A, t)
        assert (phi is None) == (_full_row_solve(P, A, t) is None)
        if phi is not None:
            assert coboundary(phi).values == t.values
            found += 1
    assert found >= 20


@pytest.mark.parametrize("gname", [g for g in _LIGHT_GROUPS if group_by_name(g).order <= 8])
def test_class_representatives_are_pairwise_non_cohomologous_on_the_full_d1(gname):
    # the keys read only Light's rows (p, s); the full-row solve is the oracle
    named = group_by_name(gname)
    for P in (named, _relabelled_group(named, random.Random(5))):
        d1 = coboundary_matrix(P, 1)
        for aname in ("z2", "z4", "z2xz2", "z6"):
            A = coefficients_by_name(aname)
            reps = ext_module._class_representatives(cocycle_space(P, A, 2))
            assert len(reps) == prod(cohomology_group(P, A, 2), start=1), (P.name, aname)
            assert all(coboundary(r).is_zero() for r in reps)
            for r1, r2 in combinations(reps, 2):
                diff = (r1 - r2).values
                assert any(solve_mod(d1, [v[k] for v in diff], m) is None
                           for k, m in enumerate(A.orders)), (P.name, aname)


def test_is_split_on_a_noncocycle_that_passes_light_rows_returns_none():
    # z4 is generated by 1, so S = {0, 1}; changing d phi at (1, 2), a row
    # Light's solve never reads, leaves the reduced system solvable
    P, A = group_by_name("z4"), coefficients_by_name("z4")
    vals = list(coboundary(Cochain.from_function(P, A, 1, lambda p: (p * p,))).values)
    i = 1 * 4 + 2
    vals[i] = A.add(vals[i], (1,))
    bad = Cochain(P, A, 2, tuple(vals))
    assert not coboundary(bad).is_zero()
    rows, d = _light_coboundary_matrix(P.table, P.identity, 1)
    assert i not in rows and solve_mod(d, [vals[i][0] for i in rows], 4) is not None
    assert ext_module._solve_coboundary(P, A, bad) is None
    assert is_split(build_extension(P, A, bad, validate=False)) is None


def test_unreduced_cocycle_values_build_and_split_as_their_residues():
    # the Cochain constructor keeps values as given; the build, the Light-row
    # check and the solve read them mod m
    P, A = group_by_name("s3"), coefficients_by_name("z4")
    w = coboundary(Cochain.random(P, A, 1, random.Random(3)))
    unreduced = Cochain(P, A, 2, tuple((x + 4 * k,) for k, (x,) in enumerate(w.values)))
    built, reduced = build_extension(P, A, unreduced), build_extension(P, A, w)
    assert built.carrier.table == reduced.carrier.table
    assert is_split(built).values == is_split(reduced).values


def test_solve_on_a_group_whose_full_d1_is_over_budget_is_refused_fast():
    # the full d_1 of z320 would be 320^3 cells, but the solve reads only
    # Light's rows, 640 x 320, so the zero cocycle splits.  The table is
    # built without this module's wrapper, whose full-scan oracle would
    # visit 640^3 triples
    P, A = group_by_name("z320"), coefficients_by_name("z2")
    zero = Cochain(P, A, 2, (A.zero(),) * P.order ** 2)
    ext = ext_module.build_extension(P, A, zero, validate=False)
    assert ext_module._solve_coboundary(P, A, zero).is_zero()
    assert is_split(ext) is not None
    # z1450's Light's rows of d_1 are 2900 x 1450, over budget: refused on
    # every call before they are built
    P = group_by_name("z1450")
    zero = Cochain(P, A, 2, (A.zero(),) * P.order ** 2)
    start = time.perf_counter()
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded, match="Light's rows of d_1 of a group of order "
                                                    "1450 are a 2900 x 1450 matrix"):
            ext_module._solve_coboundary(P, A, zero)
    assert time.perf_counter() - start < 1.0


def test_build_on_a_group_whose_full_d2_is_over_budget_reads_lights_rows():
    # the cocycle condition reads Light's rows of d_2 (2048 of them for z32)
    # and so does H^2, though the full d_2 would be 32^5 cells
    P, A = group_by_name("z32"), coefficients_by_name("z2")
    assert build_extension(P, A, Cochain.zero(P, A, 2)).carrier.order == 64
    assert cohomology_group(P, A, 2) == [2]
    # z39's Light's rows of d_2 are 3042 x 1521, over budget
    z39 = group_by_name("z39")
    with pytest.raises(SizeLimitExceeded, match="Light's rows of d_2 of a group of order 39 "
                                                "are a 3042 x 1521 matrix"):
        _light_coboundary_matrix(z39.table, z39.identity, 2)


# ---------------------------------------------------------------------------
# property: the build decides the cocycle condition, and its tables, splits
# and equivalence witnesses pass the checks the functions do not repeat

_PROPERTY_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z8", "klein4", "s3", "q8", "a4"]


@lru_cache(maxsize=None)
def _property_space(gname, relabel, aname):
    """P (relabelled by seed `relabel` when it is nonzero, so that its
    identity is not 0), A and one cocycle per class of H^2(P, A), the zero
    cocycle first."""
    P = group_by_name(gname)
    if relabel:
        P = _relabelled_group(P, random.Random(relabel))
    A = coefficients_by_name(aname)
    return P, A, ext_module._class_representatives(cocycle_space(P, A, 2))


def test_build_split_and_equivalence_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @hypothesis.given(gname=st.sampled_from(_PROPERTY_GROUPS), relabel=st.integers(0, 2),
                      aname=st.sampled_from(_LIGHT_COEFFS), data=st.data())
    def check(gname, relabel, aname, data):
        P, A, reps = _property_space(gname, relabel, aname)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        k = data.draw(st.integers(0, len(reps) - 1), label="class")
        w = coboundary(Cochain.random(P, A, 1, rng)) + reps[k]
        changed = data.draw(st.booleans(), label="changed")
        if changed:
            vals = list(w.values)
            i = rng.randrange(len(vals))
            vals[i] = A.add(vals[i], tuple(1 + rng.randrange(m - 1) for m in A.orders))
            w = Cochain(P, A, 2, tuple(vals))
        if not coboundary(w).is_zero():
            with pytest.raises(NotACocycleError) as err:
                build_extension(P, A, w)
            assert err.value.triple == _first_violating_triple(w)
            return
        built = build_extension(P, A, w)
        split = is_split(built)
        assert (split is not None) == (k == 0 if not changed
                                       else _full_row_solve(P, A, w) is not None)
        shifted = build_extension(P, A, w + coboundary(Cochain.random(P, A, 1, rng)))
        strategies = ["solve"] + (["search"] if A.size ** P.order <= ext_module.SEARCH_LIMIT
                                  else [])
        for strategy in strategies:
            assert are_equivalent(built, shifted, strategy) is not None

    check()
