import random
import re
from fractions import Fraction
from itertools import permutations
from math import pi, prod

import numpy as np
import pytest

from cohomkit.liealg import generated_subalgebra, poincare_basis_matrices
from cohomkit.spacetime import (
    BOOST_SCALE,
    PoincareElement,
    Wedge,
    boost_generation_check,
    boost_matrix,
    coordinate_wedge_family,
    minkowski_form,
    poincare4_algebra,
    six_wedge_family,
    wedge_boost,
    wedge_boost_generator,
    wedge_complement,
)


# ---------------------------------------------------------------------------
# boost matrices


def test_boost_at_zero_is_identity():
    assert np.allclose(boost_matrix(0.0), np.eye(4))


def test_boost_one_parameter_group_law_numeric():
    for s, t in ((0.1, 0.2), (-0.3, 0.55), (0.25, -0.25)):
        assert np.max(np.abs(boost_matrix(s) @ boost_matrix(t)
                             - boost_matrix(s + t))) < 1e-12
    # larger rapidities only to relative accuracy: entries reach cosh(2 pi)
    s, t = 1.0, -1.0
    scale = float(np.cosh(2 * np.pi)) ** 2
    assert np.max(np.abs(boost_matrix(s) @ boost_matrix(t)
                         - boost_matrix(s + t))) < 1e-12 * scale


def test_boost_preserves_wedge_membership_on_samples():
    w1 = Wedge.standard()
    pts = w1.sample_points(count=16, seed=2)
    for t in (0.25, -0.6, 1.5):
        b = wedge_boost(w1, t)
        assert all(w1.contains(b.apply(p)) for p in pts)


# ---------------------------------------------------------------------------
# Poincare elements


def test_poincare_element_validation():
    PoincareElement.identity().validate()
    PoincareElement.axis_swap_rotation(2).validate()
    PoincareElement.plane_rotation_pi(1, 2).validate()
    with pytest.raises(ValueError, match="improper"):
        PoincareElement.from_parts(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).validate()
    with pytest.raises(ValueError, match="time orientation"):
        PoincareElement.from_parts(
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).validate()
    with pytest.raises(ValueError, match="metric"):
        PoincareElement.from_parts(
            [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).validate()


class _NotANumber:
    """float() takes it, as it takes an expression object, yet it is no real number."""

    def __float__(self):
        return 1.0


@pytest.mark.parametrize("bad", [1j, complex(1.0, 0.0), "1", None, _NotANumber()],
                         ids=["complex", "complex-real", "string", "none", "has-float"])
def test_non_real_entries_are_refused(bad):
    # every entry is exact or a float; anything else fails when built
    mat = _diag(1, 1, 1, 1)
    for lorentz, translation in (([[bad, 0, 0, 0]] + mat[1:], (0, 0, 0, 0)),
                                 (mat, (0, 0, bad, 0))):
        with pytest.raises(ValueError, match=f"entry {re.escape(repr(bad))} is not a real number"):
            PoincareElement.from_parts(lorentz, translation)


def test_compose_inverse_apply():
    g = PoincareElement.axis_swap_rotation(3)
    h = PoincareElement.translation_by((1, 2, 0, 0))
    gh = g.compose(h)
    x = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert gh.apply(x) == g.apply(h.apply(x))
    back = gh.inverse().apply(gh.apply(x))
    assert tuple(back) == x


def _diag(*signs):
    return [[signs[i] if i == j else 0 for j in range(4)] for i in range(4)]


def _pythagorean(rng):
    """(a, b, c) with a^2 + b^2 = c^2, in random order of the legs."""
    m = rng.randint(2, 4)
    n = rng.randint(1, m - 1)
    a, b = m * m - n * n, 2 * m * n
    return (a, b, m * m + n * n) if rng.random() < 0.5 else (b, a, m * m + n * n)


def _random_lorentz_factor(rng):
    """An exact boost (cosh = c/a, sinh = +-b/a), rational rotation or sign
    diagonal; products of these range over improper and time-reversing
    elements of O(1,3) too."""
    mat = _diag(1, 1, 1, 1)
    kind = rng.choice(("boost", "rotation", "signs"))
    if kind == "boost":
        a, b, c = _pythagorean(rng)
        k = rng.randint(1, 3)
        mat[0][0] = mat[k][k] = Fraction(c, a)
        mat[0][k] = mat[k][0] = Fraction(rng.choice((1, -1)) * b, a)
    elif kind == "rotation":
        a, b, c = _pythagorean(rng)
        i, j = rng.sample((1, 2, 3), 2)
        mat[i][i] = mat[j][j] = Fraction(a, c)
        mat[i][j], mat[j][i] = Fraction(-b, c), Fraction(b, c)
    else:
        mat = _diag(*(rng.choice((1, -1)) for _ in range(4)))
    return PoincareElement.from_parts(mat)


def _random_o13(rng, factors=3):
    g = PoincareElement.translation_by(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)])
    for _ in range(factors):
        g = g.compose(_random_lorentz_factor(rng))
    return g


def _leibniz_det(m):
    total = 0
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(4))
    return total


def test_exact_inverse_is_two_sided_on_random_lorentz_products():
    rng = random.Random(3)
    e = PoincareElement.identity()
    for _ in range(40):
        g = _random_o13(rng)
        inv = g.inverse()
        assert inv.is_exact()
        assert g.compose(inv) == e
        assert inv.compose(g) == e


def test_exact_non_lorentz_inverse_is_refused():
    shear = _diag(1, 1, 1, 1)
    shear[1][2] = Fraction(1, 2)
    for mat in (_diag(2, 1, 1, 1), shear):
        g = PoincareElement.from_parts(mat, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="metric preservation fails"):
            g.inverse()
        with pytest.raises(ValueError, match="metric preservation fails"):
            Wedge.standard() == Wedge(g)


# an exact boost in the x_0 x_2 plane (cosh 5/4, sinh -3/4), then a translation
_BOOSTED_TRANSLATED = Wedge(PoincareElement.from_parts(
    [[Fraction(5, 4), 0, Fraction(-3, 4), 0], [0, 1, 0, 0],
     [Fraction(-3, 4), 0, Fraction(5, 4), 0], [0, 0, 0, 1]], (Fraction(1, 3), 2, 0, -1)))

_FLOAT_TEST_WEDGES = [
    Wedge.standard(),
    Wedge.coordinate(2),
    Wedge.coordinate(3).translate((1, 0, 2, 0)),
    wedge_complement(Wedge.standard().translate((0, 1, 0, 3))),
    _BOOSTED_TRANSLATED,
    Wedge(wedge_boost(Wedge.coordinate(2), 0.37)
          .compose(PoincareElement.translation_by((0.5, 0.0, 1.0, 2.0)))),
]


@pytest.mark.parametrize("w", _FLOAT_TEST_WEDGES)
def test_float_inverse_matches_oracles(w):
    for t in np.linspace(-3.0, 3.0, 13):
        g = wedge_boost(w, t)
        assert not g.is_exact()
        got = np.array(g.inverse().lorentz)
        # Lambda_W(t)^-1 = Lambda_W(-t), computed independently
        back = np.array(wedge_boost(w, -t).lorentz)
        assert np.max(np.abs(got - back)) <= 1e-12 * np.max(np.abs(back))
        # np.linalg.inv as an oracle is itself only good to about eps * cond,
        # and cond(Lambda) grows like e^(4 pi |t|), so it only bounds the
        # relative error by 1e-12 plus its own forward error
        lam = np.array(g.lorentz)
        oracle = np.linalg.inv(lam)
        tol = 1e-12 + 1e-13 * np.linalg.cond(lam)
        assert np.max(np.abs(got - oracle)) <= tol * np.max(np.abs(oracle))


@pytest.mark.parametrize("w", _FLOAT_TEST_WEDGES)
def test_float_wedge_boosts_validate_and_perturbations_do_not(w):
    # entries grow like cosh(2 pi t), and so does the rounding in
    # Lambda^T eta Lambda; a 1e-6 relative error in the largest entry is
    # still far outside the scaled tolerance
    for t in np.arange(0.5, 3.01, 0.25):
        for s in (t, -t):
            g = wedge_boost(w, float(s))
            g.validate()
            lam = [list(row) for row in g.lorentz]
            k, i = max(((k, i) for k in range(4) for i in range(4)),
                       key=lambda ki: abs(lam[ki[0]][ki[1]]))
            lam[k][i] *= 1 + 1e-6
            with pytest.raises(ValueError, match="metric preservation fails"):
                PoincareElement.from_parts(lam, g.translation).validate()


def test_improper_verdict_matches_leibniz_determinant():
    rng = random.Random(7)
    samples = [PoincareElement.from_parts(_diag(-1, 1, 1, 1)),
               PoincareElement.from_parts(_diag(1, -1, 1, 1))]
    samples += [_random_o13(rng) for _ in range(80)]
    seen = set()
    for g in samples:
        det = _leibniz_det(g.lorentz)
        assert det in (1, -1)
        as_float = PoincareElement.from_parts([[float(v) for v in row] for row in g.lorentz])
        for h in (g, as_float):
            try:
                h.validate()
                verdict = "proper orthochronous"
            except ValueError as exc:
                verdict = str(exc)
            assert ("improper" in verdict) == (det == -1), (g, verdict)
            if det == 1:
                assert ("time orientation" in verdict) == (g.lorentz[0][0] < 0)
        seen.add((det, g.lorentz[0][0] > 0))
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


def test_minkowski_form_signature():
    assert minkowski_form((1, 0, 0, 0), (1, 0, 0, 0)) == 1
    assert minkowski_form((0, 1, 0, 0), (0, 1, 0, 0)) == -1


# ---------------------------------------------------------------------------
# wedge boosts and generators


def test_standard_wedge_boost_is_boost_matrix():
    w1 = Wedge.standard()
    for t in (0.3, -1.2):
        got = np.array(wedge_boost(w1, t).lorentz, dtype=float)
        assert np.max(np.abs(got - boost_matrix(t))) < 1e-12


def test_translated_wedge_boost_is_translation_conjugate():
    a = (1, 0, 0, 0)
    w = Wedge.standard().translate(a)
    tau = PoincareElement.translation_by(a)
    for t in (0.4, -0.8):
        lhs = wedge_boost(w, t)
        rhs = tau.compose(wedge_boost(Wedge.standard(), t)).compose(tau.inverse())
        assert np.max(np.abs(np.array(lhs.lorentz, float) - np.array(rhs.lorentz, float))) < 1e-12
        assert np.max(np.abs(np.array(lhs.translation, float) - np.array(rhs.translation, float))) < 1e-12


def test_wedge_boost_fixes_wedge_setwise():
    for w in (Wedge.coordinate(2), Wedge.standard().translate((0, 1, 1, 0))):
        pts = w.sample_points(count=10, seed=9)
        for t in (0.2, -0.5):
            b = wedge_boost(w, t)
            assert all(w.contains(b.apply(p)) for p in pts)


def test_generator_of_standard_wedge():
    alg = poincare4_algebra()
    gen = wedge_boost_generator(Wedge.standard())
    assert gen == alg.by_label("J_01")
    assert all(type(c) is Fraction for c in gen.coeffs)


_AFFINE_BASIS = [np.array(m, dtype=float) for m in poincare_basis_matrices(4)]


def _affine_float(g):
    return np.array([list(row) + [t] for row, t in zip(g.lorentz, g.translation)]
                    + [[0, 0, 0, 0, 1]], dtype=float)


@pytest.mark.parametrize("w", six_wedge_family() + [_BOOSTED_TRANSLATED])
def test_generator_matches_central_difference(w):
    # (Lambda_W(h) - Lambda_W(-h)) / 2h is d/dt Lambda_W(t) at 0 up to
    # (2 pi h)^2 / 6 relative truncation and eps / h rounding; the paper's
    # normalization puts 2 pi times the generator there, and BOOST_SCALE
    # names that factor
    h = 1e-5
    deriv = (_affine_float(wedge_boost(w, h)) - _affine_float(wedge_boost(w, -h))) / (2 * h)
    gen = wedge_boost_generator(w)
    assert all(type(c) is Fraction for c in gen.coeffs)
    x = sum(float(c) * m for c, m in zip(gen.coeffs, _AFFINE_BASIS))
    scale = np.max(np.abs(deriv))
    assert np.max(np.abs(deriv - 2 * pi * x)) <= 1e-8 * scale
    assert np.max(np.abs(deriv - BOOST_SCALE * x)) <= 1e-8 * scale


def test_generator_of_translated_wedge():
    alg = poincare4_algebra()
    gen = wedge_boost_generator(Wedge.standard().translate((1, 0, 0, 0)))
    expected = alg.by_label("J_01") + alg.by_label("P_1")
    assert gen == expected


def test_generator_of_coordinate_wedges():
    alg = poincare4_algebra()
    for axis in (2, 3):
        gen = wedge_boost_generator(Wedge.coordinate(axis))
        assert gen == alg.by_label(f"J_0{axis}")


def test_float_frame_generator_is_refused():
    # the same wedge as an exact frame has a generator; as floats it has none
    frame = PoincareElement.from_parts(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], (0.0, 0.0, 1.0, 0.0))
    wedge_boost_generator(Wedge.standard().translate((0, 0, 1, 0)))
    with pytest.raises(ValueError, match="not exact"):
        wedge_boost_generator(Wedge(frame))


def test_float_frame_family_is_refused():
    frame = PoincareElement.from_parts(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="not exact"):
        boost_generation_check([Wedge.coordinate(2), Wedge(frame)])


# ---------------------------------------------------------------------------
# generation of the full algebra


def test_six_wedge_family_generates_everything():
    result = boost_generation_check(six_wedge_family())
    assert result == {"wedge_count": 6, "closure_dim": 10,
                      "algebra_dim": 10, "success": True}


def test_coordinate_only_family_generates_lorentz_part():
    result = boost_generation_check(coordinate_wedge_family())
    assert result["closure_dim"] == 6
    assert not result["success"]
    # the closure is exactly the Lorentz subalgebra: all J, no P
    alg = poincare4_algebra()
    gens = [wedge_boost_generator(w) for w in coordinate_wedge_family()]
    span = generated_subalgebra(alg, gens)
    for label in alg.labels:
        assert span.contains(alg.by_label(label)) == label.startswith("J_")


def test_default_family_is_six_wedges():
    assert boost_generation_check()["wedge_count"] == 6


# ---------------------------------------------------------------------------
# complements


def test_complement_boost_identity_translated_wedge():
    w = Wedge.standard().translate((0, 2, 1, 0))
    wc = wedge_complement(w)
    for t in (0.3, -0.9):
        lhs, rhs = wedge_boost(wc, t), wedge_boost(w, -t)
        assert np.max(np.abs(np.array(lhs.lorentz, float)
                             - np.array(rhs.lorentz, float))) < 1e-11
        assert np.max(np.abs(np.array(lhs.translation, float)
                             - np.array(rhs.translation, float))) < 1e-11


def test_complement_times_boost_is_identity():
    w1 = Wedge.standard()
    wc = wedge_complement(w1)
    for t in (0.2, 0.8):
        prod = wedge_boost(wc, t).compose(wedge_boost(w1, t))
        assert np.max(np.abs(np.array(prod.lorentz, float) - np.eye(4))) < 1e-11


def test_complement_region_is_opposite_wedge():
    wc = wedge_complement(Wedge.standard())
    assert wc.contains((0.0, -1.0, 0.5, 0.0))
    assert not wc.contains((0.0, 1.0, 0.0, 0.0))


def test_complement_is_involution():
    for w in (Wedge.standard(), Wedge.coordinate(3),
              Wedge.standard().translate((0, 0, 5, 2))):
        assert wedge_complement(wedge_complement(w)) == w


def test_complement_commutes_with_translation():
    a = (0, 0, 3, -1)
    assert wedge_complement(Wedge.standard().translate(a)) == \
        wedge_complement(Wedge.standard()).translate(a)


# ---------------------------------------------------------------------------
# wedge equality: equal boost generators, on proper orthochronous frames


def test_wedge_equals_its_boosted_self():
    # rational boost: cosh = 5/4, sinh = 3/4
    rb = PoincareElement.from_parts(
        [[Fraction(5, 4), Fraction(-3, 4), 0, 0],
         [Fraction(-3, 4), Fraction(5, 4), 0, 0],
         [0, 0, 1, 0], [0, 0, 0, 1]])
    rb.validate()
    assert Wedge(rb) == Wedge.standard()


def test_wedge_equals_edge_translated_self():
    assert Wedge.standard().translate((0, 0, 7, -2)) == Wedge.standard()


def test_wedge_equals_transverse_rotated_self():
    rot = PoincareElement.plane_rotation_pi(2, 3)
    assert Wedge.standard().transform(rot) == Wedge.standard()


def test_wedge_differs_from_shifts_and_complement():
    w1 = Wedge.standard()
    assert w1 != w1.translate((0, 1, 0, 0))
    assert w1 != w1.translate((1, 0, 0, 0))
    assert w1 != wedge_complement(w1)
    assert w1 != Wedge.coordinate(2)


@pytest.mark.parametrize("signs, message", [
    ((-1, 1, -1, 1), "time orientation"),
    ((-1, -1, 1, 1), "time orientation"),
    ((1, -1, 1, 1), "improper"),
])
def test_wedge_refuses_frames_outside_proper_orthochronous(signs, message):
    # the first two map W1 onto W1 and onto W1', but reverse the boost
    g = PoincareElement.from_parts(_diag(*signs))
    with pytest.raises(ValueError, match=message):
        Wedge(g)
    with pytest.raises(ValueError, match=message):
        Wedge.standard().transform(g)


def _boost(axis, cosh, sinh):
    mat = _diag(1, 1, 1, 1)
    mat[0][0] = mat[axis][axis] = cosh
    mat[0][axis] = mat[axis][0] = sinh
    return PoincareElement.from_parts(mat)


def _rotation(i, j, cos, sin):
    mat = _diag(1, 1, 1, 1)
    mat[i][i] = mat[j][j] = cos
    mat[i][j], mat[j][i] = -sin, sin
    return PoincareElement.from_parts(mat)


_RATIONAL_BOOSTS = ((Fraction(5, 4), Fraction(3, 4)), (Fraction(13, 12), Fraction(5, 12)))


def _random_proper_orthochronous(rng, factors=4):
    """Rational boosts, (3/5, 4/5) rotations and quarter turns after a
    rational translation: an exact element of the proper orthochronous group."""
    g = PoincareElement.translation_by(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)])
    for _ in range(factors):
        kind = rng.choice(("boost", "rotation", "quarter"))
        if kind == "boost":
            cosh, sinh = rng.choice(_RATIONAL_BOOSTS)
            factor = _boost(rng.randint(1, 3), cosh, rng.choice((1, -1)) * sinh)
        elif kind == "rotation":
            i, j = rng.choice(((1, 2), (1, 3), (2, 3)))
            factor = _rotation(i, j, Fraction(3, 5), rng.choice((1, -1)) * Fraction(4, 5))
        else:
            factor = PoincareElement.axis_swap_rotation(rng.choice((2, 3)))
        g = g.compose(factor)
    return g


# the stabilizer of W1 in closed form: x_1 boosts, x_2 x_3 rotations, edge translations
_STABILIZER = [
    _boost(1, Fraction(5, 4), Fraction(3, 4)),
    _boost(1, Fraction(13, 12), Fraction(-5, 12)),
    _rotation(2, 3, Fraction(3, 5), Fraction(4, 5)),
    PoincareElement.plane_rotation_pi(2, 3),
    PoincareElement.translation_by((0, 0, Fraction(7, 2), -2)),
    _boost(1, Fraction(5, 4), Fraction(-3, 4)).compose(
        _rotation(2, 3, Fraction(3, 5), Fraction(-4, 5))).compose(
        PoincareElement.translation_by((0, 0, -1, Fraction(1, 3)))),
]
_OUTSIDE_STABILIZER = [
    PoincareElement.translation_by((Fraction(1, 2), 0, 0, 0)),
    PoincareElement.translation_by((0, -3, 1, 0)),
    PoincareElement.translation_by((1, 1, 0, 0)),
    PoincareElement.plane_rotation_pi(1, 2),
    _boost(2, Fraction(5, 4), Fraction(3, 4)),
    _boost(2, Fraction(13, 12), Fraction(-5, 12)),
]


@pytest.mark.parametrize("seed", range(8))
def test_wedge_equality_is_the_stabilizer_of_w1(seed):
    rng = random.Random(seed)
    for _ in range(4):
        g = _random_proper_orthochronous(rng)
        w = Wedge(g)
        for s in _STABILIZER:
            assert Wedge(g.compose(s)) == w
        for s in _OUTSIDE_STABILIZER:
            assert Wedge(g.compose(s)) != w


def test_float_frame_equality_is_refused():
    frame = PoincareElement.from_parts(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="not exact"):
        Wedge(frame) == Wedge.standard()
    with pytest.raises(ValueError, match="not exact"):
        Wedge.standard() == Wedge(frame)


def _exact_affine(g):
    return [list(row) + [t] for row, t in zip(g.lorentz, g.translation)] + [[0, 0, 0, 0, 1]]


def _exact_product(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_generator_coefficients_re_expand_to_the_conjugated_boost():
    # wedge_boost_generator reads X off g J_01 g^-1 without re-expanding it;
    # here sum_i c_i B_i over the affine basis must be that conjugate exactly,
    # checked as X g = g J_01 so that no inverse is taken
    basis = poincare_basis_matrices(4)
    rng = random.Random(28)
    frames = [w.frame for w in six_wedge_family() + coordinate_wedge_family()]
    frames += [_random_proper_orthochronous(rng) for _ in range(16)]
    for g in frames:
        coeffs = wedge_boost_generator(Wedge(g)).coeffs
        assert all(type(c) is Fraction for c in coeffs)
        x = [[sum(c * m[i][j] for c, m in zip(coeffs, basis)) for j in range(5)]
             for i in range(5)]
        a = _exact_affine(g)
        assert _exact_product(x, a) == _exact_product(a, basis[0])
