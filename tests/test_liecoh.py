import random
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from cohomkit.exactmat import DENSE_CELL_LIMIT, RationalMatrix, SizeLimitExceeded
from cohomkit.liealg import (
    LieAlgebra,
    StructureConstantError,
    builtin,
    derived_subalgebra,
    is_perfect,
)
from lie_oracle import from_structure_constants
from cohomkit.liecoh import (
    LieCocycle2,
    _pair_index,
    _weight_counts,
    _weight_tuples,
    ce_differential,
    cohomology_report,
    lie_central_extension,
    splitting_cochain,
)

SMALL = ["sl2", "heisenberg", "abelian(2)", "abelian(3)",
         "poincare(2)", "poincare(3)", "lorentz(3)", "lorentz(4)"]


def _wedge_basis(n, k):
    """The lexicographic wedge basis of degree k: increasing k-tuples of range(n)."""
    return list(combinations(range(n), k))


def _dense(m):
    """The rows of a sparse RationalMatrix as dense tuples."""
    return [tuple(row.get(j, Fraction(0)) for j in range(m.cols)) for row in m.entries]


def _product(a, b):
    """The sparse rows of the matrix product a b."""
    assert a.cols == b.rows
    out = []
    for row in a.entries:
        acc = defaultdict(Fraction)
        for k, x in row.items():
            for j, y in b.entries[k].items():
                acc[j] += x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def _dim_h(g, k):
    return cohomology_report(g, k)["dim_H"]


# ---------------------------------------------------------------------------
# the differential


def test_differential_shapes():
    p4 = builtin("poincare(4)")
    d2 = ce_differential(p4, 2)
    assert (d2.rows, d2.cols) == (comb(10, 3), comb(10, 2)) == (120, 45)
    d0 = ce_differential(p4, 0)
    assert (d0.rows, d0.cols) == (10, 1)
    assert not any(d0.entries)


def test_abelian_differentials_vanish():
    g = builtin("abelian(4)")
    for k in range(0, 4):
        assert not any(ce_differential(g, k).entries)


def test_differential_over_dense_budget_is_refused():
    # d_8 of abelian(16) would be a C(16, 9) x C(16, 8) = 11440 x 12870 matrix
    with pytest.raises(SizeLimitExceeded) as err:
        ce_differential(builtin("abelian(16)"), 8)
    assert err.value.bound == DENSE_CELL_LIMIT == 2 ** 22
    assert err.value.requested == comb(16, 9) * comb(16, 8) == 147232800
    assert "11440 x 12870" in str(err.value)
    # a differential under the bound is still built
    assert ce_differential(builtin("abelian(12)"), 1).rows == comb(12, 2)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        ce_differential(builtin("sl2"), 4)
    with pytest.raises(ValueError):
        cohomology_report(builtin("sl2"), -1)


def test_poincare2_d2_is_zero_1x3():
    d2 = ce_differential(builtin("poincare(2)"), 2)
    assert (d2.rows, d2.cols) == (1, 3)
    assert d2.entries == ({},)


def test_poincare2_d1_matches_hand_matrix():
    # basis J_01, P_0, P_1; [J,P0] = -P1, [J,P1] = -P0, [P0,P1] = 0
    # (d1 f)(x, y) = -f([x, y]); Lambda^2 rows ordered (0,1), (0,2), (1,2)
    d1 = ce_differential(builtin("poincare(2)"), 1)
    expected = RationalMatrix.from_rows([[0, 0, 1], [0, 1, 0], [0, 0, 0]])
    assert d1.entries == expected.entries
    assert d1.rank() == 2
    # d1 applied to the dual of P_0 is nonzero
    image = d1.apply([0, 1, 0])
    assert any(image)


@pytest.mark.parametrize("name", SMALL + ["poincare(4)"])
def test_d_squared_zero_up_to_degree_three(name):
    g = builtin(name)
    for k in range(min(3, g.dim)):
        assert not any(_product(ce_differential(g, k + 1), ce_differential(g, k))), k


def test_d_squared_zero_higher_degrees_small():
    for name in ("sl2", "poincare(2)", "heisenberg"):
        g = builtin(name)
        for k in range(g.dim):
            assert not any(_product(ce_differential(g, k + 1), ce_differential(g, k))), (name, k)


# ---------------------------------------------------------------------------
# cohomology dimensions


def test_h2_poincare4_vanishes():
    assert _dim_h(builtin("poincare(4)"), 2) == 0


def test_h2_controls():
    assert _dim_h(builtin("abelian(2)"), 2) == 1
    assert _dim_h(builtin("poincare(2)"), 2) == 1


def test_sl2_whitehead():
    sl2 = builtin("sl2")
    assert _dim_h(sl2, 1) == 0
    assert _dim_h(sl2, 2) == 0


@pytest.mark.parametrize("name", SMALL + ["poincare(4)"])
def test_h1_is_coperfection_dimension(name):
    # H^1 = (g / [g, g])^*
    g = builtin(name)
    assert _dim_h(g, 1) == g.dim - derived_subalgebra(g).dim


def test_h0_is_one_dimensional():
    for name in ("sl2", "poincare(2)"):
        assert _dim_h(builtin(name), 0) == 1


def test_report_fields():
    rep = cohomology_report(builtin("poincare(2)"), 2)
    assert rep == {"algebra": "poincare(2)", "degree": 2,
                   "dim_Z": 3, "dim_B": 2, "dim_H": 1}


def test_poincare2_z2_b2_dimensions():
    # brute-force cross-check of the report values from the explicit matrices
    p2 = builtin("poincare(2)")
    d2 = ce_differential(p2, 2)
    d1 = ce_differential(p2, 1)
    assert d2.cols - d2.rank() == 3
    assert d1.rank() == 2


# ---------------------------------------------------------------------------
# central extensions from 2-cocycles


def test_central_extension_of_abelian_is_heisenberg():
    g = builtin("abelian(2)")
    omega = LieCocycle2.from_pairs(g, {(0, 1): 1})
    ext = lie_central_extension(g, omega)
    assert ext.dim == 3
    assert ext.jacobi_defect() == 0
    x, y, z = ext.basis()
    assert x.bracket(y) == z
    assert x.bracket(z).is_zero() and y.bracket(z).is_zero()
    der = derived_subalgebra(ext)
    assert der.dim == 1 and der.contains(z)


def test_zero_cocycle_gives_direct_sum():
    g = builtin("sl2")
    ext = lie_central_extension(g, LieCocycle2.zero(g))
    assert ext.dim == 4
    for i in range(3):
        assert ext.constants[i][3] == tuple(Fraction(0) for _ in range(4))
        assert ext.constants[i][:3][0][:3] is not None
    for i in range(3):
        for j in range(3):
            assert ext.constants[i][j][:3] == g.constants[i][j]
            assert ext.constants[i][j][3] == 0


def test_nonclosed_cocycle_rejected_with_triple():
    # on poincare(3), omega(J_12, P_0) = 1 is not closed:
    # (d omega)(J_01, J_02, P_0) = -omega([J_01, J_02], P_0) = omega(J_12, P_0) = 1
    p3 = builtin("poincare(3)")
    i_j12, i_p0 = p3.labels.index("J_12"), p3.labels.index("P_0")
    omega = LieCocycle2.from_pairs(p3, {(i_j12, i_p0): 1})
    assert not omega.is_closed()
    with pytest.raises(StructureConstantError) as err:
        lie_central_extension(p3, omega)
    assert len(err.value.triple) == 3
    # building anyway yields a table violating Jacobi: cocycle <=> Jacobi
    forced = lie_central_extension(p3, omega, validate=False)
    assert forced.jacobi_defect() != 0


EXTENSION_BUILTINS = ["sl2", "heisenberg", "abelian(3)", "poincare(2)", "poincare(3)",
                      "poincare(4)", "lorentz(3)", "lorentz(4)"]


def _seeded_cochains(g, rng, count):
    """`count` closed 2-cochains (integer combinations of the kernel of the
    full d_2) and `count` integer 2-cochains drawn at random, as LieCocycle2."""
    kernel = ce_differential(g, 2).kernel_basis()
    size = comb(g.dim, 2)
    combos = [[rng.randint(-3, 3) for _ in kernel] for _ in range(count)]
    closed = [tuple(sum((c * v[i] for c, v in zip(combo, kernel)), Fraction(0))
                    for i in range(size)) for combo in combos]
    drawn = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(size)) for _ in range(count)]
    return [LieCocycle2(g, vec) for vec in closed], [LieCocycle2(g, vec) for vec in drawn]


@pytest.mark.parametrize("name", EXTENSION_BUILTINS)
def test_extensions_are_lie_algebras_by_construction(name):
    # the builder does not validate its table; validate() is the oracle
    g = builtin(name)
    closed, drawn = _seeded_cochains(g, random.Random(name), 4)
    for omega in closed:
        lie_central_extension(g, omega).validate()
    for omega in drawn:
        bad = lie_central_extension(g, omega, validate=False).first_jacobi_violation()
        if bad is None:
            lie_central_extension(g, omega).validate()
            continue
        with pytest.raises(StructureConstantError) as err:
            lie_central_extension(g, omega)
        assert err.value.triple == bad


@pytest.mark.parametrize("name", EXTENSION_BUILTINS)
def test_closure_defect_is_the_first_nonzero_of_the_full_d2(name):
    g = builtin(name)
    d2 = ce_differential(g, 2)
    triples = _wedge_basis(g.dim, 3)
    for omega in sum(_seeded_cochains(g, random.Random(name + "d2"), 4), []):
        image = d2.apply(omega.coeffs)
        expected = next((t for t, x in zip(triples, image) if x), None)
        assert omega.closure_defect() == expected
        assert omega.is_closed() == (expected is None)


def test_seeded_cochains_include_non_closed_ones():
    # some drawn cochains of the two tests above are closed and some are
    # not, so both branches run
    for seed in ("", "d2"):
        drawn = [omega for name in EXTENSION_BUILTINS
                 for omega in _seeded_cochains(builtin(name), random.Random(name + seed), 4)[1]]
        assert 0 < sum(not omega.is_closed() for omega in drawn) < len(drawn) == 32


def test_closed_iff_extension_satisfies_jacobi():
    rng = random.Random(42)
    p2 = builtin("poincare(2)")
    d2 = ce_differential(p2, 2)
    for _ in range(10):
        vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        omega = LieCocycle2(p2, vec)
        ext = lie_central_extension(p2, omega, validate=False)
        assert (ext.jacobi_defect() == 0) == (not any(d2.apply(vec)))


def test_poincare4_every_closed_two_cochain_splits():
    # the computational content of the vanishing of H^2
    p4 = builtin("poincare(4)")
    d2 = ce_differential(p4, 2)
    d1 = ce_differential(p4, 1)
    kernel = d2.kernel_basis()
    assert len(kernel) == 10  # == rank d1, i.e. Z^2 = B^2
    rng = random.Random(7)
    for _ in range(5):
        combo = [Fraction(rng.randint(-4, 4)) for _ in range(len(kernel))]
        vec = tuple(sum(c * v[i] for c, v in zip(combo, kernel)) for i in range(45))
        omega = LieCocycle2(p4, vec)
        assert omega.is_closed()
        phi = splitting_cochain(p4, omega)
        assert phi is not None
        assert d1.apply(phi) == vec


def test_splitting_cochain_none_when_not_exact():
    p2 = builtin("poincare(2)")
    # H^2(poincare(2)) = 1, so some closed 2-cochain is not exact
    d1 = ce_differential(p2, 1)
    d2 = ce_differential(p2, 2)
    found_nonexact = False
    for vec in ([Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]):
        assert not any(d2.apply(vec))
        if splitting_cochain(p2, LieCocycle2(p2, tuple(vec))) is None:
            found_nonexact = True
    assert found_nonexact


def test_splitting_cochain_refuses_a_cocycle_of_another_algebra():
    foreign = LieCocycle2.from_pairs(builtin("abelian(3)"), {(0, 1): 1})
    with pytest.raises(ValueError, match="cocycle belongs to a different algebra"):
        splitting_cochain(builtin("heisenberg"), foreign)


def test_cocycle_evaluation_antisymmetry():
    p3 = builtin("poincare(3)")
    omega = LieCocycle2.from_pairs(p3, {(0, 1): Fraction(2, 3), (4, 2): 1})
    assert omega.value(0, 1) == Fraction(2, 3)
    assert omega.value(1, 0) == -Fraction(2, 3)
    assert omega.value(2, 4) == -1
    assert omega.value(3, 3) == 0
    rng = random.Random(9)
    x = p3.element([Fraction(rng.randint(-3, 3)) for _ in range(6)])
    y = p3.element([Fraction(rng.randint(-3, 3)) for _ in range(6)])
    assert omega.evaluate(x, y) == -omega.evaluate(y, x)


def test_pair_index_matches_wedge_basis():
    for n in range(1, 9):
        for k, (i, j) in enumerate(_wedge_basis(n, 2)):
            assert _pair_index(n, i, j) == k
    g = builtin("sl2")
    with pytest.raises(ValueError):
        LieCocycle2.from_pairs(g, {(0, 3): 1})


# ---------------------------------------------------------------------------
# the weight-0 route against the full dense complex


ALL_BUILTINS = ["abelian(1)", "abelian(2)", "abelian(3)", "abelian(4)", "heisenberg", "sl2",
                "lorentz(2)", "lorentz(3)", "lorentz(4)",
                "poincare(2)", "poincare(3)", "poincare(4)"]


def _assert_report_matches_dense_oracle(g):
    for k in range(g.dim + 1):
        dk = ce_differential(g, k)
        dim_z = dk.cols - dk.rank()
        dim_b = ce_differential(g, k - 1).rank() if k > 0 else 0
        rep = cohomology_report(g, k)
        assert (rep["dim_Z"], rep["dim_B"], rep["dim_H"]) == (dim_z, dim_b, dim_z - dim_b), k


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_report_matches_dense_oracle_on_builtins(name):
    _assert_report_matches_dense_oracle(builtin(name))


def test_report_matches_dense_oracle_without_rational_grading():
    so3 = LieAlgebra.from_brackets(
        ("L1", "L2", "L3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, name="so(3)")
    assert so3.grading.element is None
    _assert_report_matches_dense_oracle(so3)
    assert [_dim_h(so3, k) for k in range(4)] == [1, 0, 0, 1]


def _inverse(cols):
    """Exact inverse of the matrix with these columns, by Gauss-Jordan."""
    n = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _in_basis(g, cols, name):
    """g with the basis cols (coefficient vectors in g's basis)."""
    n = g.dim
    inv = _inverse(cols)
    elems = [g.element(c) for c in cols]
    consts = [[[sum((inv[c][i] * v for i, v in enumerate(elems[a].bracket(elems[b]).coeffs)),
                    Fraction(0)) for c in range(n)] for b in range(n)] for a in range(n)]
    return from_structure_constants([f"y{a}" for a in range(n)], consts, name)


def test_report_matches_dense_oracle_when_first_basis_element_does_not_grade():
    # sl2 + heisenberg: a random element has a nilpotent heisenberg part, so
    # only the planted h + z grades
    sl2_heis = LieAlgebra.from_brackets(
        ("h", "e", "f", "x", "y", "z"),
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}, (3, 4): {5: 1}})
    rng = random.Random(17)
    while True:
        cols = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
                for _ in range(6)]
        cols[2] = [1, 0, 0, 0, 0, 1]
        if RationalMatrix.from_rows(cols).rank() == 6:
            break
    g = _in_basis(sl2_heis, cols, "sl2+heisenberg")
    assert g.grading.element == 2
    assert sorted(g.grading.weights) == [-2, 0, 0, 0, 0, 2]
    _assert_report_matches_dense_oracle(g)


@pytest.mark.parametrize("seed", range(4))
def test_report_matches_dense_oracle_on_central_extensions_of_poincare2(seed):
    p2 = builtin("poincare(2)")
    closed = ce_differential(p2, 2).kernel_basis()
    rng = random.Random(seed)
    vec = [Fraction(0)] * 3
    while not any(vec):
        combo = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in closed]
        vec = [sum(c * v[i] for c, v in zip(combo, closed)) for i in range(3)]
    ext = lie_central_extension(p2, LieCocycle2(p2, tuple(vec)))
    assert ext.grading.element is not None
    _assert_report_matches_dense_oracle(ext)


def test_poincare4_nonzero_weight_blocks_have_the_closed_form_ranks():
    g = builtin("poincare(4)")
    counts = _weight_counts(g.grading.weights)
    assert sum(counts[k][0] * counts[k + 1][0] for k in range(10)) == 15664
    for k in range(g.dim + 1):
        for w in counts[k]:
            block = ce_differential(g, k, weight=w)
            assert (block.rows, block.cols) == (counts[k + 1][w] if k < 10 else 0, counts[k][w])
            if w:
                closed_form = sum((-1) ** (k - j) * counts[j][w] for j in range(k + 1))
                assert block.rank() == closed_form, (k, w)


def test_poincare4_differential_preserves_weight():
    # d in the whole eigenbasis: no entry joins cochains of different
    # weights, and the weight-0 rows and columns are the weight-0 block
    g = builtin("poincare(4)")
    w = g.grading.weights
    brackets = {(a, b): dict(g.grading.brackets[a][b])
                for a in range(g.dim) for b in range(a + 1, g.dim) if g.grading.brackets[a][b]}
    eigen = LieAlgebra.from_brackets(g.labels, brackets)
    for k in range(g.dim + 1):
        full = ce_differential(eigen, k)
        row_w = [sum(w[a] for a in t) for t in _wedge_basis(g.dim, k + 1)]
        col_w = [sum(w[a] for a in t) for t in _wedge_basis(g.dim, k)]
        for r, row in enumerate(full.entries):
            for c in row:
                assert row_w[r] == col_w[c], (k, r, c)
        rows = [r for r, x in enumerate(row_w) if x == 0]
        cols = [c for c, x in enumerate(col_w) if x == 0]
        dense = _dense(full)
        assert _dense(ce_differential(g, k, weight=0)) == [
            tuple(dense[r][c] for c in cols) for r in rows]


ALL_BUILTINS = ["sl2", "heisenberg", "abelian(2)", "abelian(4)", "poincare(2)", "poincare(3)",
                "poincare(4)", "lorentz(2)", "lorentz(3)", "lorentz(4)"]


@pytest.mark.parametrize("name", ALL_BUILTINS + ["R+R^6", "zero"])
def test_weight_tuples_match_the_full_scan(name):
    g = {"R+R^6": lambda: _boost_semidirect(3),
         "zero": lambda: LieAlgebra.from_brackets((), {})}.get(name, lambda: builtin(name))()
    n, w = g.dim, g.grading.weights
    counts = _weight_counts(w)
    for k in range(n + 2):
        for weight in sorted(set(counts[k]) if k <= n else set()) + [n * max(w, default=0) + 1]:
            scan = [t for t in _wedge_basis(n, k) if sum(w[a] for a in t) == weight]
            assert list(_weight_tuples(w, k, weight)) == scan, (k, weight)


def _perm_sign(seq):
    """Sign of the permutation sorting seq (distinct entries), by inversions."""
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                     if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


def _ce_oracle(constants, targets, sources):
    """d from the cochains on `sources` to those on `targets`, transcribed
    from (d w)(x_0, ..., x_k) = sum_{i<j} (-1)^(i+j) w([x_i, x_j], x_0, ..
    ^x_i .. ^x_j .., x_k) with w = e^S, the dual wedge of S, and the dense
    table c[a][b][m] of [x_a, x_b] = sum_m c[a][b][m] x_m:
    e^S(x_m, x_rest) is the sign sorting (m, rest) to S, or 0."""
    col = {s: c for c, s in enumerate(sources)}
    out = []
    for t in targets:
        row = [Fraction(0)] * len(sources)
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                rest = t[:i] + t[i + 1:j] + t[j + 1:]
                for m, c in enumerate(constants[t[i]][t[j]]):
                    if c and m not in rest:
                        args = (m,) + rest
                        row[col[tuple(sorted(args))]] += (-1) ** (i + j) * c * _perm_sign(args)
        out.append(tuple(row))
    return out


def _assert_stores_no_zero(m):
    assert all(all(row.values()) for row in m.entries)


@pytest.mark.parametrize("name", ["sl2", "heisenberg", "poincare(3)", "lorentz(4)"])
def test_ce_differential_matches_the_transcribed_formula(name):
    g = builtin(name)
    for k in range(g.dim + 1):
        dk = ce_differential(g, k)
        _assert_stores_no_zero(dk)
        oracle = _ce_oracle(g.constants, _wedge_basis(g.dim, k + 1), _wedge_basis(g.dim, k))
        assert _dense(dk) == oracle, k


def test_weight_zero_blocks_of_poincare4_match_the_transcribed_formula():
    # the oracle reads the dense table of poincare(4) in the eigenbasis f_a,
    # rewritten here from g.constants through the inverse of the eigenvectors
    g = builtin("poincare(4)")
    n, w = g.dim, g.grading.weights
    vecs = g.grading.vectors
    inv = _inverse(vecs)
    consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            bracket = [sum((vecs[a][i] * vecs[b][j] * g.constants[i][j][m]
                            for i in range(n) for j in range(n)), Fraction(0))
                       for m in range(n)]
            consts[a][b] = [sum((inv[c][m] * bracket[m] for m in range(n)), Fraction(0))
                            for c in range(n)]
    for k in range(n + 1):
        block = ce_differential(g, k, weight=0)
        _assert_stores_no_zero(block)
        targets, sources = ([t for t in _wedge_basis(n, j) if sum(w[a] for a in t) == 0]
                            for j in (k + 1, k))
        assert _dense(block) == _ce_oracle(consts, targets, sources), k


def _rescaled(g, seed):
    """g in the basis c_a x_a for seeded nonzero rationals c_a:
    [c_a x_a, c_b x_b] = sum_m (c_a c_b c_abm / c_m) (c_m x_m).  The grading
    element keeps the scale +-1, so its ad-weights stay the same up to order."""
    rng = random.Random(seed)
    scale = [Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([2, 3, 4, 7]))
             for _ in range(g.dim)]
    scale[g.grading.element] = Fraction(rng.choice([-1, 1]))
    brackets = {(a, b): {m: scale[a] * scale[b] * c / scale[m] for m, c in g.brackets[a][b]}
                for a in range(g.dim) for b in range(a + 1, g.dim) if g.brackets[a][b]}
    return LieAlgebra.from_brackets(g.labels, brackets, name=g.name + " rescaled")


@pytest.mark.parametrize("name", ["sl2", "poincare(3)"])
@pytest.mark.parametrize("seed", range(3))
def test_rational_structure_constants_keep_betti_numbers_and_weights(name, seed):
    g = builtin(name)
    h = _rescaled(g, seed)
    assert any(c.denominator > 1 for row in h.brackets for s in row for _, c in s)
    assert h.grading.element == g.grading.element
    assert sorted(h.grading.weights) == sorted(g.grading.weights)
    if name == "poincare(3)":  # ad(J_01) has denominators, so Grading.of meets them too
        assert any(c.denominator > 1 for s in h.brackets[h.grading.element] for _, c in s)
    assert [_dim_h(h, k) for k in range(h.dim + 1)] == [_dim_h(g, k) for k in range(g.dim + 1)]
    _assert_report_matches_dense_oracle(h)


@pytest.mark.parametrize("seed", range(3))
def test_betti_numbers_survive_a_rational_change_of_basis_of_poincare3(seed):
    # a dense rational basis with J_01 kept first, so it still grades and the
    # graded table has denominators: its integer view is D times it, D > 1
    g = builtin("poincare(3)")
    rng = random.Random(seed)
    while True:
        cols = [[1, 0, 0, 0, 0, 0]] + [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                        for _ in range(6)] for _ in range(5)]
        if RationalMatrix.from_rows(cols).rank() == 6:
            break
    h = _in_basis(g, cols, "poincare(3) in a rational basis")
    graded = h.grading.brackets
    assert h.grading.element == 0 and sorted(h.grading.weights) == sorted(g.grading.weights)
    den = lcm(*(c.denominator for row in graded for s in row for _, c in s))
    assert den > 1
    assert h.grading.integer_brackets == tuple(
        tuple(tuple((k, c * den) for k, c in s) for s in row) for row in graded)
    assert all(type(c) is int for row in h.grading.integer_brackets for s in row for _, c in s)
    assert [_dim_h(h, k) for k in range(h.dim + 1)] == [1, 0, 0, 2, 0, 0, 1]
    _assert_report_matches_dense_oracle(h)


def _boost_semidirect(m):
    # x acts by +1 on a_1..a_m and by -1 on b_1..b_m, which span an abelian
    # ideal V; Hochschild-Serre gives dim H^k = dim (L^k V*)_0 + dim (L^(k-1) V*)_0
    labels = ["x"] + [f"a{i}" for i in range(m)] + [f"b{i}" for i in range(m)]
    brackets = {(0, 1 + i): {1 + i: 1} for i in range(m)}
    brackets.update({(0, 1 + m + i): {1 + m + i: -1} for i in range(m)})
    return LieAlgebra.from_brackets(labels, brackets, name=f"R+R^{2 * m}")


def test_budget_is_checked_on_the_weight_zero_block():
    # the full d_7 of the 15-dimensional algebra is 6435 x 6435, over the
    # bound; its weight-0 blocks are 1225 x 1225
    g = _boost_semidirect(7)
    with pytest.raises(SizeLimitExceeded):
        ce_differential(g, 7)
    assert cohomology_report(g, 7)["dim_H"] == 0 + comb(7, 3) ** 2
    # a weight-0 block over the bound is refused before it is built
    big = _boost_semidirect(8)
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as err:
        cohomology_report(big, 8)
    assert time.perf_counter() - start < 1.0
    assert err.value.requested == comb(8, 4) ** 4 == 4900 * 4900
    assert str(err.value).startswith(
        "the weight-0 block of d_8 of a 17-dimensional algebra is a 4900 x 4900 matrix")
