import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from cohomkit.exactmat import RationalMatrix, SizeLimitExceeded
from cohomkit.liealg import (
    LieAlgebra,
    LieElement,
    StructureConstantError,
    Subspace,
    algebra_from_json,
    algebra_to_json,
    builtin,
    derived_subalgebra,
    generated_subalgebra,
    ideal_closure,
    is_perfect,
)
from lie_oracle import (derived_oracle, from_structure_constants, generated_oracle,
                        ideal_oracle, is_bracket_closed)

BUILTIN_NAMES = ["sl2", "heisenberg", "abelian(2)", "abelian(4)",
                 "poincare(2)", "poincare(3)", "poincare(4)",
                 "lorentz(2)", "lorentz(3)", "lorentz(4)"]


def random_element(g, rng, lo=-5, hi=5):
    return g.element([Fraction(rng.randint(lo, hi)) for _ in range(g.dim)])


# ---------------------------------------------------------------------------
# construction & validation


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_validate(name):
    g = builtin(name)
    assert g.antisymmetry_defect() == 0
    assert g.jacobi_defect() == 0
    back = from_structure_constants(g.labels, g.constants, name=g.name)
    assert back == g and hash(back) == hash(g)  # the dense view round-trips


def test_builtin_dims():
    assert builtin("poincare(4)").dim == 10
    assert builtin("poincare(3)").dim == 6
    assert builtin("poincare(2)").dim == 3
    assert builtin("lorentz(4)").dim == 6
    assert builtin("sl2").dim == 3
    assert builtin("abelian(5)").dim == 5


def test_builtin_name_spellings():
    assert builtin("poincare4").dim == 10
    assert builtin("POINCARE(4)").dim == 10
    with pytest.raises(ValueError):
        builtin("su5")
    with pytest.raises(ValueError):
        builtin("poincare(7)")


@pytest.mark.parametrize("kind", ["lorentz", "poincare"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_builtin_table_matches_convention_formulas(kind, d):
    # the bracket formulas of CONVENTIONS.md, evaluated here from eta alone
    eta = [[(1 if a == 0 else -1) if a == b else 0 for b in range(d)] for a in range(d)]
    g = builtin(f"{kind}({d})")

    def J(a, b):  # J_ba = -J_ab, J_aa = 0
        if a == b:
            return g.zero()
        return g.by_label(f"J_{a}{b}") if a < b else -g.by_label(f"J_{b}{a}")

    def P(a):
        return g.by_label(f"P_{a}")

    expected = {}
    for a, b in combinations(range(d), 2):
        for c, e in combinations(range(d), 2):
            expected[f"J_{a}{b}", f"J_{c}{e}"] = (
                eta[b][c] * J(a, e) - eta[a][c] * J(b, e)
                - eta[b][e] * J(a, c) + eta[a][e] * J(b, c))
        if kind == "poincare":
            for c in range(d):
                expected[f"J_{a}{b}", f"P_{c}"] = eta[b][c] * P(a) - eta[a][c] * P(b)
                expected[f"P_{c}", f"J_{a}{b}"] = -expected[f"J_{a}{b}", f"P_{c}"]
    if kind == "poincare":
        for a in range(d):
            for b in range(d):
                expected[f"P_{a}", f"P_{b}"] = g.zero()
    assert len(expected) == g.dim ** 2
    for (x, y), want in expected.items():
        i, j = g.labels.index(x), g.labels.index(y)
        assert g.constants[i][j] == want.coeffs, (x, y)


def test_corrupted_antisymmetry_flagged():
    sl2 = builtin("sl2")
    c = [[list(map(Fraction, sl2.constants[i][j])) for j in range(3)] for i in range(3)]
    c[1][0][0] = Fraction(5)  # breaks c[0][1][0] = -c[1][0][0]
    with pytest.raises(StructureConstantError) as err:
        from_structure_constants(sl2.labels, c)
    assert len(err.value.triple) == 2


def test_corrupted_jacobi_flagged_and_defect_nonzero():
    # rescale [h, e] = 2e to 3e, keeping antisymmetry: Jacobi on (h, e, f)
    # then sums to 2h - 3h = -h
    sl2 = builtin("sl2")
    c = [[list(map(Fraction, sl2.constants[i][j])) for j in range(3)] for i in range(3)]
    c[0][1][1] = Fraction(3)
    c[1][0][1] = Fraction(-3)
    bad = from_structure_constants(sl2.labels, c, validate=False)
    assert bad.antisymmetry_defect() == 0
    assert bad.jacobi_defect() != 0
    with pytest.raises(StructureConstantError) as err:
        bad.validate()
    assert len(err.value.triple) == 3


def _random_dense_table(rng, n, cells, antisymmetric):
    """A dense integer table c[i][j][k], zero but for `cells` random draws."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for _ in range(cells):
        c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
    if antisymmetric:
        for i in range(n):
            c[i][i] = [0] * n
            for j in range(i):
                c[i][j] = [-x for x in c[j][i]]
    return c


def _dense_jacobi_sums(c, n):
    """The Jacobi sum of every basis triple i < j < k, in order, by n^3 loops."""
    sums = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = [0] * n
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(n):
                        for t in range(n):
                            s[t] += c[b][e][m] * c[a][m][t]
                sums.append(((i, j, k), s))
    return sums


def test_sparse_table_matches_dense_oracle_on_random_tables():
    rng = random.Random(19)
    for case in range(40):
        n = rng.randint(1, 7)
        c = _random_dense_table(rng, n, rng.randint(0, n * n), case % 3 != 0)
        g = from_structure_constants([f"y{a}" for a in range(n)], c, validate=False)
        assert g.constants == tuple(tuple(tuple(map(Fraction, vec)) for vec in row) for row in c)
        assert g.antisymmetry_defect() == max(
            (abs(c[i][j][k] + c[j][i][k]) for i in range(n) for j in range(n) for k in range(n)),
            default=0)
        sums = _dense_jacobi_sums(c, n)
        assert g.jacobi_defect() == max((abs(x) for _, s in sums for x in s), default=0)
        assert g.first_jacobi_violation() == next((t for t, s in sums if any(s)), None)
        for _ in range(3):
            x, y = random_element(g, rng, -3, 3), random_element(g, rng, -3, 3)
            want = [sum(x.coeffs[i] * y.coeffs[j] * c[i][j][k]
                        for i in range(n) for j in range(n)) for k in range(n)]
            assert x.bracket(y).coeffs == tuple(want)
        same = from_structure_constants(g.labels, g.constants, validate=False)
        assert same == g and hash(same) == hash(g)
        if case % 3:  # the same table from brackets given in shuffled order
            pairs = {}
            for i, j in rng.sample(list(combinations(range(n), 2)), n * (n - 1) // 2):
                ks = rng.sample(range(n), n)
                pairs[i, j] = {k: c[i][j][k] for k in ks}
            assert LieAlgebra.from_brackets(g.labels, pairs, validate=False) == g


@pytest.mark.parametrize("brackets", [{(1, 1): {0: 1}}, {(0, 1): {2: 1}}, {(0, 1): {-1: 1}},
                                      {(0, 2): {1: 1}}])
def test_from_brackets_refuses_diagonal_and_out_of_range_indices(brackets):
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(("a", "b"), brackets)


def test_from_brackets_refuses_conflicting_orientations():
    # [b, a] = c says [a, b] = -c; the JSON loader refuses the same table alike
    labels = ("a", "b", "c")
    message = r"inconsistent bracket given for pair \(0, 1\)"
    with pytest.raises(ValueError, match=message):
        LieAlgebra.from_brackets(labels, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    with pytest.raises(ValueError, match=message):
        algebra_from_json({"dim": 3, "labels": list(labels), "brackets": [
            {"i": 0, "j": 1, "coeffs": {"c": "1"}}, {"i": 1, "j": 0, "coeffs": {"c": "1"}}]})
    with pytest.raises(ValueError, match=message):
        algebra_from_json({"dim": 3, "labels": list(labels), "brackets": [
            {"i": 0, "j": 1, "coeffs": {"c": "1"}}, {"i": 0, "j": 1, "coeffs": {"c": "2"}}]})
    # orientations that agree, zero coefficients aside, give one table
    heisenberg = LieAlgebra.from_brackets(labels, {(0, 1): {2: 1}})
    assert LieAlgebra.from_brackets(labels, {(0, 1): {2: 1, 0: 0}, (1, 0): {2: -1}}) == heisenberg
    assert LieAlgebra.from_brackets(labels, {(1, 0): {2: -1}}) == heisenberg


# ---------------------------------------------------------------------------
# brackets


def test_sl2_defining_bracket():
    sl2 = builtin("sl2")
    h, e, f = sl2.basis()
    assert e.bracket(f) == h
    assert h.bracket(e) == 2 * e
    assert h.bracket(f) == (-2) * f


def test_bracket_alternating():
    rng = random.Random(3)
    for name in ("sl2", "poincare(4)"):
        g = builtin(name)
        for _ in range(5):
            x = random_element(g, rng)
            assert x.bracket(x).is_zero()
            y = random_element(g, rng)
            assert x.bracket(y) == -y.bracket(x)


def test_bracket_bilinear():
    g = builtin("poincare(3)")
    rng = random.Random(4)
    x, y, z = (random_element(g, rng) for _ in range(3))
    a = Fraction(3, 2)
    assert (a * x + y).bracket(z) == a * x.bracket(z) + y.bracket(z)


def test_boost_moves_time_translation():
    # physics boost K_1 = -J_01 in these conventions: [K_1, P_0] = P_1
    p4 = builtin("poincare(4)")
    k1 = -p4.by_label("J_01")
    assert k1.bracket(p4.by_label("P_0")) == p4.by_label("P_1")
    assert p4.by_label("J_01").bracket(p4.by_label("P_0")) == -p4.by_label("P_1")


def test_bracket_rejects_foreign_elements():
    with pytest.raises(ValueError):
        builtin("sl2").basis_element(0).bracket(builtin("heisenberg").basis_element(0))


# ---------------------------------------------------------------------------
# derived subalgebra & perfectness


def test_derived_abelian_zero():
    assert derived_subalgebra(builtin("abelian(3)")).dim == 0


def test_derived_sl2_full():
    assert derived_subalgebra(builtin("sl2")).dim == 3


def test_derived_poincare2_is_translation_span():
    p2 = builtin("poincare(2)")
    der = derived_subalgebra(p2)
    assert der.dim == 2
    assert der.contains(p2.by_label("P_0"))
    assert der.contains(p2.by_label("P_1"))
    assert not der.contains(p2.by_label("J_01"))


def test_perfectness_table():
    assert is_perfect(builtin("poincare(4)"))
    assert is_perfect(builtin("poincare(3)"))
    assert not is_perfect(builtin("poincare(2)"))
    assert is_perfect(builtin("sl2"))
    assert is_perfect(builtin("lorentz(4)"))
    assert not is_perfect(builtin("heisenberg"))
    assert not is_perfect(builtin("abelian(2)"))


def test_heisenberg_derived_is_center():
    h = builtin("heisenberg")
    der = derived_subalgebra(h)
    assert der.dim == 1
    assert der.contains(h.by_label("z"))


# ---------------------------------------------------------------------------
# generated subalgebras


def test_generated_sl2_from_e_f():
    sl2 = builtin("sl2")
    _, e, f = sl2.basis()
    assert generated_subalgebra(sl2, [e, f]).dim == 3


def test_generated_abelian_single():
    g = builtin("abelian(2)")
    assert generated_subalgebra(g, [g.basis_element(0)]).dim == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generated_from_full_basis_is_everything(name):
    g = builtin(name)
    assert generated_subalgebra(g, g.basis()).dim == g.dim


def test_generated_output_bracket_closed():
    p4 = builtin("poincare(4)")
    gens = [p4.by_label("J_01"), p4.by_label("P_2")]
    span = generated_subalgebra(p4, gens)
    assert is_bracket_closed(span)


def test_generated_order_independent():
    p4 = builtin("poincare(4)")
    gens = [p4.by_label("J_01"), p4.by_label("J_02"), p4.by_label("P_0")]
    rng = random.Random(8)
    reference = generated_subalgebra(p4, gens)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert generated_subalgebra(p4, shuffled) == reference


def _closure_without_early_exit(g, gens):
    """generated_subalgebra as it was before the full-dimension exit: rounds
    of pairwise brackets of the basis until a round adds nothing."""
    span = Subspace(g, gens)
    while True:
        before = span.dim
        current = span.basis()
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                span.add(a.bracket(b))
        if span.dim == before:
            return span


@pytest.mark.parametrize("name", ["poincare(4)", "poincare(3)", "lorentz(4)", "sl2"])
def test_generated_matches_closure_without_early_exit(name):
    g = builtin(name)
    rng = random.Random(name)
    dims = set()
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(g.dim), rng.randint(1, g.dim))
            gens.append(g.element([rng.randint(-3, 3) if i in support else 0
                                   for i in range(g.dim)]))
        got = generated_subalgebra(g, gens)
        expected = _closure_without_early_exit(g, gens)
        assert [b.coeffs for b in got.basis()] == [b.coeffs for b in expected.basis()]
        dims.add(got.dim == g.dim)
    assert dims == {True, False}  # both the early exit and a proper closure ran


def test_generated_requires_generators():
    with pytest.raises(ValueError):
        generated_subalgebra(builtin("sl2"), [])


def test_rational_direction_removes_exact_scale():
    # a span's basis row is the direction with leading coefficient 1
    p4 = builtin("poincare(4)")
    x = p4.by_label("J_01") + Fraction(1, 2) * p4.by_label("P_3")
    (row,) = Subspace(p4, [Fraction(7, 3) * x]).basis()
    assert row == x
    assert all(type(c) is Fraction for c in row.coeffs)


def test_rational_direction_refuses_inexact_coefficients():
    p4 = builtin("poincare(4)")
    floats = LieElement(p4, tuple(0.5 * float(c) for c in p4.by_label("J_01").coeffs))
    with pytest.raises(ValueError, match="not exact"):
        Subspace(p4, [floats])
    with pytest.raises(ValueError, match="not exact"):
        generated_subalgebra(p4, [p4.by_label("P_0"), floats])


def _sl2_rescaled():
    # sl2 in the basis h, e/2, f: [e/2, f] = h/2, so the integer view is 2x
    return algebra_from_json({"dim": 3, "labels": ["h", "e", "f"], "brackets": [
        {"i": 0, "j": 1, "coeffs": {"e": "2"}}, {"i": 0, "j": 2, "coeffs": {"f": "-2"}},
        {"i": 1, "j": 2, "coeffs": {"h": "1/2"}}]}, name="sl2-rescaled")


def test_integer_brackets_clear_the_denominators_once():
    g = _sl2_rescaled()
    assert g.brackets[1][2] == ((0, Fraction(1, 2)),)
    assert g.integer_brackets == (((), ((1, 4),), ((2, -4),)),
                                  (((1, -4),), (), ((0, 1),)),
                                  (((2, 4),), ((0, -1),), ()))
    assert builtin("poincare(4)").integer_brackets == builtin("poincare(4)").brackets


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["sl2-rescaled"])
def test_closures_on_integer_rows_match_the_fraction_oracle(name):
    g = _sl2_rescaled() if name == "sl2-rescaled" else builtin(name)
    rng = random.Random(name)

    def rows(span):
        return [tuple(b.coeffs) for b in span.basis()]

    assert rows(derived_subalgebra(g)) == rows(derived_oracle(g))
    for _ in range(10):
        gens = [g.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           if rng.random() < 0.5 else 0 for _ in range(g.dim)])
                for _ in range(rng.randint(1, 3))]
        assert rows(generated_subalgebra(g, gens)) == rows(generated_oracle(g, gens))
        assert rows(ideal_closure(g, gens[0])) == rows(ideal_oracle(g, gens[0]))


# ---------------------------------------------------------------------------
# ideal closures


def test_ideal_of_zero():
    assert ideal_closure(builtin("poincare(4)"), builtin("poincare(4)").zero()).dim == 0


def test_ideal_p0_is_translation_span():
    p4 = builtin("poincare(4)")
    ideal = ideal_closure(p4, p4.by_label("P_0"))
    assert ideal.dim == 4
    for mu in range(4):
        assert ideal.contains(p4.by_label(f"P_{mu}"))


def test_ideal_rotation_contains_translations():
    p4 = builtin("poincare(4)")
    ideal = ideal_closure(p4, p4.by_label("J_12"))
    for mu in range(4):
        assert ideal.contains(p4.by_label(f"P_{mu}"))


def test_ideal_is_invariant_under_algebra():
    rng = random.Random(12)
    p4 = builtin("poincare(4)")
    for _ in range(5):
        x = random_element(p4, rng)
        ideal = ideal_closure(p4, x)
        for e in p4.basis():
            for b in ideal.basis():
                assert ideal.contains(e.bracket(b))


def test_random_nonzero_ideals_contain_translations():
    # lighter seeded version; the acceptance suite runs the full 100
    rng = random.Random(2024)
    p4 = builtin("poincare(4)")
    translations = Subspace(p4, [p4.by_label(f"P_{mu}") for mu in range(4)])
    done = 0
    while done < 20:
        x = random_element(p4, rng)
        if x.is_zero():
            continue
        done += 1
        assert ideal_closure(p4, x).contains_subspace(translations)


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_membership_and_equality():
    g = builtin("poincare(4)")
    s1 = Subspace(g, [g.by_label("P_0") + g.by_label("P_1"), g.by_label("P_0")])
    s2 = Subspace(g, [g.by_label("P_1"), g.by_label("P_0") - g.by_label("P_1")])
    assert s1.dim == s2.dim == 2
    assert s1 == s2
    assert s1.contains(3 * g.by_label("P_0") - 7 * g.by_label("P_1"))
    assert not s1.contains(g.by_label("P_2"))


def test_subspace_contains_refuses_an_element_of_another_algebra():
    sl2 = builtin("sl2")
    span = Subspace(sl2, [sl2.by_label("h")])
    for elem in (builtin("heisenberg").by_label("x"), builtin("poincare(4)").by_label("J_01")):
        with pytest.raises(ValueError, match="different algebra"):
            span.contains(elem)
        with pytest.raises(ValueError, match="different algebra"):
            span.add(elem)
    assert span.contains(sl2.by_label("h")) and not span.contains(sl2.by_label("e"))


@pytest.mark.parametrize("name", ["poincare(4)", "poincare(3)", "lorentz(4)", "sl2", "heisenberg"])
def test_subspace_contains_agrees_with_rank_of_stacked_rows(name):
    g = builtin(name)
    rng = random.Random(name)
    for _ in range(40):
        span = Subspace(g, [random_element(g, rng, -2, 2) for _ in range(rng.randint(0, g.dim - 1))])
        rows = [x.coeffs for x in span.basis()]
        assert RationalMatrix.from_rows(rows).rank() == span.dim
        combo = sum((rng.randint(-3, 3) * x for x in span.basis()), g.zero())
        for x in (combo, random_element(g, rng, -2, 2)):
            stacked = RationalMatrix.from_rows(rows + [x.coeffs]).rank()
            assert span.contains(x) == (stacked == span.dim)
        assert span.contains(combo)


@pytest.mark.parametrize("build", [
    lambda n: builtin(f"abelian({n})"),
    lambda n: algebra_from_json({"dim": n}),
    lambda n: LieAlgebra.from_brackets(range(n), {}),
], ids=["builtin", "json", "from_brackets"])
def test_oversized_algebra_refused_before_any_table(build):
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded) as err:
            build(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16  # a list of 10^6 labels alone takes megabytes
    assert str(err.value) == (
        "a 1000000-dimensional algebra has a 1000000 x 1000000 x 1000000 table of "
        "structure constants: 1000000000000000000 cells exceed the dense bound of "
        "4194304 (2^22)")
    assert builtin("abelian(3)").dim == 3
    with pytest.raises(SizeLimitExceeded) as err:  # 161 is the largest accepted
        builtin("abelian(162)")
    assert err.value.requested == 162 ** 3 > err.value.bound >= 161 ** 3


def test_largest_abelian_algebra_costs_its_brackets_not_n_cubed():
    tracemalloc.start()
    try:
        g = builtin("abelian(161)")  # validated on construction
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.dim == 161 and is_perfect(g) is False
    assert peak < 4 * 2 ** 20  # a dense table of 161^3 Fraction cells takes 33 MB
    with pytest.raises(SizeLimitExceeded) as err:
        builtin("abelian(162)")
    assert str(err.value) == (
        "a 162-dimensional algebra has a 162 x 162 x 162 table of structure constants: "
        "4251528 cells exceed the dense bound of 4194304 (2^22)")


# ---------------------------------------------------------------------------
# JSON interchange


def test_json_round_trip():
    for name in ("sl2", "poincare(3)", "heisenberg"):
        g = builtin(name)
        back = algebra_from_json(algebra_to_json(g), name=g.name)
        assert back.labels == g.labels
        assert back.constants == g.constants


def test_json_antisymmetric_completion():
    obj = {"dim": 2, "labels": ["a", "b"], "brackets": [{"i": 1, "j": 0, "coeffs": {"a": "1/2"}}]}
    g = algebra_from_json(json.dumps(obj))
    assert g.constants[1][0][0] == Fraction(1, 2)
    assert g.constants[0][1][0] == Fraction(-1, 2)


def test_json_inconsistent_pair_rejected():
    obj = {"dim": 2, "labels": ["a", "b"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"a": "1"}},
                        {"i": 1, "j": 0, "coeffs": {"a": "1"}}]}
    with pytest.raises(ValueError):
        algebra_from_json(json.dumps(obj))


def test_json_rationals_as_strings():
    obj = {"dim": 2, "labels": ["x", "y"], "brackets": [{"i": 0, "j": 1, "coeffs": {"y": "3/7"}}]}
    g = algebra_from_json(json.dumps(obj))
    assert g.constants[0][1][1] == Fraction(3, 7)


# ---------------------------------------------------------------------------
# the ad-eigenbasis grading


def so3() -> LieAlgebra:
    # [L_i, L_j] = eps_ijk L_k: ad(L_i) has eigenvalues 0, +-i, so no
    # basis element grades over Q
    return LieAlgebra.from_brackets(
        ("L1", "L2", "L3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, name="so(3)")


def test_grading_of_poincare_and_lorentz_is_the_wedge_boost():
    for name, weights in (("poincare(4)", (-1,) * 3 + (0,) * 4 + (1,) * 3),
                          ("lorentz(4)", (-1,) * 2 + (0,) * 2 + (1,) * 2),
                          ("poincare(2)", (-1, 0, 1))):
        g = builtin(name)
        assert g.grading.element == g.labels.index("J_01")
        assert g.grading.weights == weights
    sl2 = builtin("sl2")
    assert (sl2.grading.element, sl2.grading.weights) == (0, (-2, 0, 2))


@pytest.mark.parametrize("name", ["heisenberg", "abelian(3)", "so(3)"])
def test_no_grading_basis_element_gives_the_trivial_grading(name):
    g = so3() if name == "so(3)" else builtin(name)
    grading = g.grading
    assert grading.element is None
    assert grading.weights == (0,) * g.dim
    assert grading.vectors == tuple(b.coeffs for b in g.basis())


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["so(3)"])
def test_grading_eigenvectors_and_brackets(name):
    g = so3() if name == "so(3)" else builtin(name)
    grading = g.grading
    f = [g.element(v) for v in grading.vectors]
    assert Subspace(g, f).dim == g.dim
    x = g.zero() if grading.element is None else g.basis_element(grading.element)
    for fa, w in zip(f, grading.weights):
        assert x.bracket(fa) == w * fa
    for a, b in combinations(range(g.dim), 2):
        expected = g.zero()
        for c, coef in grading.brackets[a][b]:
            assert grading.weights[c] == grading.weights[a] + grading.weights[b]
            expected = expected + coef * f[c]
        assert f[a].bracket(f[b]) == expected
        assert grading.brackets[b][a] == tuple((c, -v) for c, v in grading.brackets[a][b])


def test_grading_is_computed_once_on_first_use():
    g = builtin("poincare(4)")
    assert "grading" not in g.__dict__  # nothing at construction
    assert g.grading is g.grading
    assert builtin("poincare(4)").grading is not g.grading  # one per object


def test_grading_search_skips_nilpotent_and_compact_elements(monkeypatch):
    # tr(ad(x)^2) is 0 for a nilpotent ad(x) and negative for a compact one,
    # so neither costs a kernel, however large the structure constants
    from cohomkit.exactmat import RationalMatrix

    calls = []
    kernel_basis = RationalMatrix.kernel_basis

    def counted(self):
        calls.append(self.rows)
        return kernel_basis(self)

    monkeypatch.setattr(RationalMatrix, "kernel_basis", counted)
    heis = LieAlgebra.from_brackets([f"x{i}" for i in range(12)], {(0, 1): {2: 1000}})
    big_so3 = LieAlgebra.from_brackets(
        ("L1", "L2", "L3"), {(0, 1): {2: 500}, (1, 2): {0: 500}, (0, 2): {1: -500}})
    assert heis.grading.element is None and big_so3.grading.element is None
    assert calls == []
    # a grading element costs one kernel per weight tried, 0 first
    assert builtin("poincare(4)").grading.element == 0
    assert calls == [10, 10, 10]
