"""Acceptance suite.

Each test below implements one acceptance criterion at its stated tolerance
and time bound, and prints a single PASS/FAIL line (run with `pytest -s` to
see them).  Expected values marked as derived were computed with the
independent oracles in this file (exhaustive enumeration, vectorization,
by-hand algebra) and frozen here.
"""

import random
import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from cohomkit import ext as extmod
from cohomkit import grpcoh, liealg, liecoh, modular, spacetime
from group_oracle import enumerate_cochains, enumerate_cocycles
from lie_oracle import from_structure_constants

GROUP_NAMES = ["z2", "z3", "z4", "klein4", "s3", "q8"]
COEFF_NAMES = ["z2", "z3", "z4", "z2xz2"]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def group_matrix():
    return [(grpcoh.group_by_name(g), grpcoh.coefficients_by_name(a))
            for g in GROUP_NAMES for a in COEFF_NAMES]


# ---------------------------------------------------------------------------


def test_criterion_01_delta_delta_zero():
    """d_{n+1} d_n = 0 on 50 seeded random cochains per (P, A), n in {0, 1}."""
    start = time.perf_counter()
    rng = random.Random(20250801)
    ok = True
    for P, A in group_matrix():
        for n in (0, 1):
            for _ in range(50):
                f = grpcoh.Cochain.random(P, A, n, rng)
                if not grpcoh.coboundary(grpcoh.coboundary(f)).is_zero():
                    ok = False
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 10,
           f"delta.delta = 0 on 24 pairs x 2 degrees x 50 cochains ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 10


def test_criterion_02_h1_equals_hom_count():
    """|H^1(P, A)| equals the enumeration-oracle homomorphism count."""
    start = time.perf_counter()
    ok = True
    for P, A in group_matrix():
        h1 = prod(grpcoh.cohomology_group(P, A, 1), start=1)
        homs = len(grpcoh.hom_group(P, A))
        if h1 != homs:
            ok = False
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 5, f"|H^1| = |Hom| on the full matrix ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 5


def test_criterion_03_h2_linear_equals_enumeration():
    """Linear-algebra H^2 equals exhaustive-enumeration H^2 whenever
    |A|^(|P|^2) <= 2^20, as abelian groups (order and coset-order multiset)."""
    start = time.perf_counter()
    checked = 0
    ok = True
    for P, A in group_matrix():
        if A.size ** (P.order ** 2) > 2 ** 20:
            continue
        checked += 1
        factors = grpcoh.cohomology_group(P, A, 2)
        z = enumerate_cocycles(P, A, 2)
        b_tables = {grpcoh.coboundary(f).values
                    for f in enumerate_cochains(P, A, 1)}
        if prod(factors, start=1) != len(z) // len(b_tables):
            ok = False
            continue
        # group structure: multiset of coset orders must match the factors
        def coset_order(w):
            acc = w
            for k in range(1, A.size * P.order + 1):
                if acc.values in b_tables:
                    return k
                acc = acc + w
            raise AssertionError("order search exceeded bound")

        seen: dict[int, int] = {}
        reps: list = []
        for w in z:
            if any(_is_coboundary_diff(w, r, b_tables) for r in reps):
                continue
            reps.append(w)
        for w in reps:
            o = coset_order(w)
            seen[o] = seen.get(o, 0) + 1
        expected: dict[int, int] = {}
        for combo in _abelian_elements(factors):
            o = combo
            expected[o] = expected.get(o, 0) + 1
        if seen != expected:
            ok = False
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 60,
           f"H^2 linear route == enumeration on {checked} eligible pairs ({elapsed:.2f}s)")
    assert checked == 10
    assert ok
    assert elapsed < 60


def _is_coboundary_diff(w1, w2, b_tables):
    return (w1 - w2).values in b_tables


def _abelian_elements(factors):
    """Element orders of the direct sum of cyclic groups of the given orders."""
    from itertools import product as iproduct
    from math import gcd, lcm

    if not factors:
        yield 1
        return
    for combo in iproduct(*(range(m) for m in factors)):
        yield lcm(*(m // gcd(x, m) for x, m in zip(combo, factors)))


def test_criterion_04_extension_semantics():
    """Nontrivial class gives the cyclic group of order 4, trivial class gives
    Klein four, and are_equivalent partitions Z^2(Z2, Z2) into the cosets of
    B^2: classes of sizes {2, 2} (derived).

    Derivation (unnormalized cochains, CONVENTIONS.md): the d_2 equations at
    p = 1 and at r = 1 force w(1, .) = w(., 1) = u and leave w(g, g) = v
    free, so Z^2 = {(u, u, u, v)} has 4 elements.  |C^1| = 4 and
    Z^1 = Hom(Z2, Z2) has 2 elements, so |B^2| = 2 and H^2 = Z2.  Classes
    are the cosets w + B^2: two classes of two.  Both counts are checked
    against the exhaustive enumeration run right here.  The originally
    stated figure {4, 4} was dropped: it would need |Z^2| = 8, which the
    derivation and the enumeration rule out.
    """
    start = time.perf_counter()
    z2 = grpcoh.group_by_name("z2")
    a2 = grpcoh.coefficients_by_name("z2")
    cocycles = enumerate_cocycles(z2, a2, 2)
    b_tables = {grpcoh.coboundary(f).values
                for f in enumerate_cochains(z2, a2, 1)}
    cyclic_ok = True
    klein_ok = True
    for w in cocycles:
        built = extmod.build_extension(z2, a2, w)
        orders = sorted(built.carrier.element_order(g)
                        for g in built.carrier.elements())
        if w.values in b_tables:
            klein_ok = klein_ok and orders == [1, 2, 2, 2]
        else:
            cyclic_ok = cyclic_ok and orders == [1, 2, 4, 4]
    classes: list[list] = []
    class_of = {}
    for w in cocycles:
        built = extmod.build_extension(z2, a2, w)
        for i, cls in enumerate(classes):
            if extmod.are_equivalent(cls[0], built) is not None:
                cls.append(built)
                class_of[w.values] = i
                break
        else:
            class_of[w.values] = len(classes)
            classes.append([built])
    cosets_ok = all(
        (class_of[v.values] == class_of[w.values]) == ((v - w).values in b_tables)
        for v in cocycles for w in cocycles)
    sizes = sorted(len(c) for c in classes)
    elapsed = time.perf_counter() - start
    ok = (cyclic_ok and klein_ok and len(cocycles) == 4 and len(b_tables) == 2
          and cosets_ok and len(classes) == 2 and sizes == [2, 2])
    report(4, ok,
           f"nontrivial->Z4 {cyclic_ok}, trivial->Klein {klein_ok}, "
           f"|classes|={len(classes)}, sizes={sizes}, classes are B^2 cosets "
           f"{cosets_ok} (derived {{2, 2}}; enumeration oracle gives "
           f"|Z^2|={len(cocycles)}, |B^2|={len(b_tables)}) ({elapsed:.2f}s)")
    assert cyclic_ok
    assert klein_ok
    assert len(cocycles) == 4
    assert len(b_tables) == 2
    assert cosets_ok
    assert len(classes) == 2
    assert elapsed < 1
    assert sizes == [2, 2]


def test_criterion_05_round_trip():
    """cocycle_of_section(build_extension(w), canonical) == w exactly for
    every cocycle over (Z2, Z2) and (Z2 x Z2, Z2)."""
    start = time.perf_counter()
    ok = True
    total = 0
    a2 = grpcoh.coefficients_by_name("z2")
    for gname in ("z2", "klein4"):
        P = grpcoh.group_by_name(gname)
        for w in enumerate_cocycles(P, a2, 2):
            total += 1
            built = extmod.build_extension(P, a2, w)
            recovered = extmod.cocycle_of_section(built, extmod.extract_section(built))
            if recovered.values != w.values:
                ok = False
    elapsed = time.perf_counter() - start
    report(5, ok, f"section/cocycle round trip exact on {total} cocycles ({elapsed:.2f}s)")
    assert ok


def test_criterion_06_splitting_construction():
    """The inflated nontrivial cocycle along Z4 -> Z2 is a coboundary and the
    splitting construction returns a verified homomorphism covering sigma."""
    start = time.perf_counter()
    z2 = grpcoh.group_by_name("z2")
    z4 = grpcoh.group_by_name("z4")
    a2 = grpcoh.coefficients_by_name("z2")
    w = grpcoh.Cochain.from_function(
        z2, a2, 2, lambda p, q: (1,) if p == 1 and q == 1 else (0,))
    built = extmod.build_extension(z2, a2, w)
    sigma = grpcoh.GroupHom(z4, z2, (0, 1, 0, 1))
    sigma.validate()
    w_tilde = grpcoh.inflation(sigma, w)
    candidates = [phi for phi in enumerate_cochains(z4, a2, 1)
                  if (grpcoh.coboundary(phi) - w_tilde).is_zero()]
    is_coboundary = bool(candidates)
    lift_ok = False
    if is_coboundary:
        u = grpcoh.construct_splitting(z4, sigma, built, candidates[0])
        u.validate()
        lift_ok = all(built.projection(u(g)) == sigma(g) for g in z4.elements())
    elapsed = time.perf_counter() - start
    report(6, is_coboundary and lift_ok,
           f"inflated cocycle splits ({len(candidates)} witnesses), "
           f"U verified with projection o U = sigma ({elapsed:.2f}s)")
    assert is_coboundary
    assert lift_ok


def test_criterion_07_lie_inputs():
    """Perfectness and the vanishing of the second cohomology for the
    4-dimensional Poincare algebra, with the stated controls."""
    start = time.perf_counter()
    p4 = liealg.builtin("poincare(4)")
    p2 = liealg.builtin("poincare(2)")
    ab2 = liealg.builtin("abelian(2)")
    checks = {
        "perfect(p4)": liealg.is_perfect(p4),
        "H2(p4)=0": liecoh.cohomology_report(p4, 2)["dim_H"] == 0,
        "not perfect(p2)": not liealg.is_perfect(p2),
        "H2(abelian2)=1": liecoh.cohomology_report(ab2, 2)["dim_H"] == 1,
        "H2(p2)=1": liecoh.cohomology_report(p2, 2)["dim_H"] == 1,
    }
    elapsed = time.perf_counter() - start
    ok = all(checks.values())
    report(7, ok and elapsed < 30, f"{checks} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 30


def test_criterion_08_boost_generation():
    """Six-wedge family closes to dimension 10; coordinate wedges alone close
    to dimension 6."""
    start = time.perf_counter()
    six = spacetime.boost_generation_check(spacetime.six_wedge_family())
    coord = spacetime.boost_generation_check(spacetime.coordinate_wedge_family())
    elapsed = time.perf_counter() - start
    ok = six["closure_dim"] == 10 and six["success"] and \
        coord["closure_dim"] == 6 and not coord["success"]
    report(8, ok and elapsed < 1,
           f"six wedges -> dim {six['closure_dim']}, "
           f"coordinate-only -> dim {coord['closure_dim']} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1


def test_criterion_09_ideals_contain_translations():
    """The ideal generated by each basis element and by 100 seeded random
    nonzero elements contains the 4-dimensional translation span."""
    start = time.perf_counter()
    p4 = liealg.builtin("poincare(4)")
    translations = liealg.Subspace(
        p4, [p4.by_label(f"P_{mu}") for mu in range(4)])
    ok = all(liealg.ideal_closure(p4, b).contains_subspace(translations)
             for b in p4.basis())
    rng = random.Random(19930401)
    done = 0
    while done < 100:
        coeffs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(10))
        if not any(coeffs):
            continue
        done += 1
        if not liealg.ideal_closure(p4, p4.element(coeffs)).contains_subspace(translations):
            ok = False
    elapsed = time.perf_counter() - start
    report(9, ok and elapsed < 5,
           f"ideals of 10 basis + 100 random elements all contain the "
           f"translation span ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 5


def test_criterion_10_tomita_suite():
    """Modular data of M_2 x 1 for the three probability weights: spectrum,
    flow invariance, KMS, J M J = M', and Delta of the commutant."""
    start = time.perf_counter()
    tol = 1e-10
    m = modular.qubit_factor()
    mc = modular.commutant(m)
    t_samples = [0.1, 0.5, 1.0, float(np.pi)]
    ok = True
    details = []
    for p in (0.5, 2 / 3, 0.9):
        omega = modular.schmidt_state(p)
        triple = modular.tomita(m, omega)
        expected = sorted([p / (1 - p), (1 - p) / p, 1.0, 1.0])
        spectrum_ok = bool(np.allclose(np.sort(triple.eigenvalues), expected, atol=tol))
        flow = modular.modular_flow_defect(triple, m, t_samples)
        kms = modular.kms_defect(m, omega, samples=100, seed=1993, triple=triple)
        jmj = max(max(mc.distance(triple.conjugate_by_j(b)) for b in m.basis),
                  max(m.distance(triple.conjugate_by_j(b)) for b in mc.basis))
        delta_c = modular.tomita(mc, omega).delta
        inv_ok = float(np.linalg.norm(delta_c - np.linalg.inv(triple.delta)))
        case_ok = spectrum_ok and flow <= tol and kms <= tol and jmj <= tol \
            and inv_ok <= tol
        ok = ok and case_ok
        details.append(f"p={p:.3g}: spec {spectrum_ok}, flow {flow:.1e}, "
                       f"kms {kms:.1e}, jmj {jmj:.1e}, inv {inv_ok:.1e}")
    elapsed = time.perf_counter() - start
    report(10, ok and elapsed < 5, "; ".join(details) + f" ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 5


def test_criterion_11_correspondence():
    """H^1(S, A) vs H^2(P, A) for Z4 -> Z2 with A = Z2: both of order 2 with
    the class-to-homomorphism map exhibited."""
    start = time.perf_counter()
    z4 = grpcoh.group_by_name("z4")
    z2 = grpcoh.group_by_name("z2")
    a2 = grpcoh.coefficients_by_name("z2")
    sigma = grpcoh.GroupHom(z4, z2, (0, 1, 0, 1))
    rep = extmod.h1_h2_correspondence_check(z4, sigma, a2)
    ok = (rep.applicable and rep.h1_order == 2 and rep.h2_order == 2
          and rep.injective and len(rep.class_to_hom) == 2)
    elapsed = time.perf_counter() - start
    report(11, ok,
           f"|H^1(S,A)| = {rep.h1_order}, |H^2(P,A)| = {rep.h2_order}, "
           f"map exhibited and injective: {rep.injective} ({elapsed:.2f}s)")
    assert ok


def test_criterion_12_negative_controls():
    """Corrupted structure constants fail Jacobi validation; a non-cocycle is
    rejected with a violating triple; a wrong Delta has flow defect > 0.1."""
    start = time.perf_counter()
    # (a) corrupt sl2: [h, e] = 3e instead of 2e
    sl2 = liealg.builtin("sl2")
    c = [[list(map(Fraction, sl2.constants[i][j])) for j in range(3)]
         for i in range(3)]
    c[0][1][1] = Fraction(3)
    c[1][0][1] = Fraction(-3)
    jacobi_failed = False
    try:
        from_structure_constants(sl2.labels, c)
    except liealg.StructureConstantError as exc:
        jacobi_failed = len(exc.triple) == 3

    # (b) non-cocycle rejected with a violating triple
    z2 = grpcoh.group_by_name("z2")
    a2 = grpcoh.coefficients_by_name("z2")
    bad_vals = [(0,)] * 4
    bad_vals[1] = (1,)  # omega(0, 1) = 1 alone violates the cocycle identity
    bad = grpcoh.Cochain(z2, a2, 2, tuple(bad_vals))
    triple_reported = False
    try:
        extmod.build_extension(z2, a2, bad)
    except extmod.NotACocycleError as exc:
        triple_reported = len(exc.triple) == 3

    # (c) wrong Delta: swap a ratio eigenvalue with a unit eigenvalue
    m = modular.qubit_factor()
    triple = modular.tomita(m, modular.schmidt_state(2 / 3))
    vals = triple.eigenvalues.copy()
    i2 = int(np.argmin(np.abs(vals - 2.0)))
    i1 = int(np.argmin(np.abs(vals - 1.0)))
    vals[[i2, i1]] = vals[[i1, i2]]
    wrong = modular.ModularTriple(
        triple.omega, (triple.eigenvectors * vals) @ triple.eigenvectors.conj().T,
        triple.j_matrix, triple.s_matrix, vals, triple.eigenvectors)
    defect = modular.modular_flow_defect(wrong, m, [0.1, 0.5, 1.0, float(np.pi)])

    elapsed = time.perf_counter() - start
    ok = jacobi_failed and triple_reported and defect > 0.1
    report(12, ok,
           f"jacobi rejection {jacobi_failed}, cocycle triple {triple_reported}, "
           f"wrong-Delta defect {defect:.3f} > 0.1 ({elapsed:.2f}s)")
    assert jacobi_failed
    assert triple_reported
    assert defect > 0.1
