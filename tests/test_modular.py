import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cohomkit import modular
from cohomkit.cli import EXIT_MATH, EXIT_OK, main
from cohomkit.modular import (
    IdentityDefect,
    MatrixAlgebra,
    ModularTriple,
    StateVector,
    _check_block_products,
    _kept_gram,
    _orthonormalize,
    algebra_closure,
    commutant,
    diagonal_algebra,
    is_cyclic,
    is_separating,
    kms_defect,
    modular_flow_defect,
    qubit_factor,
    schmidt_state,
    separating_violation,
    tomita,
)

TOL = 1e-10

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# algebra closure


def test_closure_of_identity_is_scalars():
    assert algebra_closure([np.eye(3)]).size == 1


def test_closure_of_single_selfadjoint_is_abelian_polynomials():
    # one self-adjoint generator spans {1, x}: dimension = #distinct eigenvalues
    x = np.array([[1, 2], [2, 5]], dtype=complex)
    alg = algebra_closure([x])
    assert alg.size == 2
    assert alg.contains(x @ x)


def test_closure_of_nonnormal_generator_is_full():
    assert algebra_closure([np.array([[0, 1], [0, 0]], dtype=complex)]).size == 4


def test_closure_of_noncommuting_pair_is_full():
    assert algebra_closure([SX, SZ]).size == 4


def test_closure_of_tensor_generators():
    eye2 = np.eye(2)
    alg = algebra_closure([np.kron(SX, eye2), np.kron(SZ, eye2)])
    assert alg.size == 4
    assert alg.contains(np.kron(SX @ SZ, eye2))
    assert not alg.contains(np.kron(eye2, SX))


@pytest.mark.parametrize("scale", [1e-14, 1e-12, 1e-8, 1e-3, 1.0, 1e3, 1e5, 1e8, 1e12])
def test_closure_size_does_not_depend_on_generator_scale(scale):
    # the roundoff Gram-Schmidt leaves of g^H = g grows with ||g||; it must
    # not survive as a basis direction at any scale
    x = np.array([[1, 2], [2, 5]], dtype=complex)
    alg = algebra_closure([scale * x])
    assert alg.size == 2
    alg.verify_closure()


def test_cli_scaled_generator_gives_the_unscaled_answer(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[0.6, 0], [0.8, 0]]}))
    results = []
    for scale in (1.0, 1e5):
        algebra = tmp_path / f"algebra-{scale:g}.json"
        gen = [[[scale * v, 0] for v in row] for row in ([1, 2], [2, 5])]
        algebra.write_text(json.dumps({"generators": [gen]}))
        code = main(["modular", "analyze", "--seed", "1", "--algebra", str(algebra),
                     "--state", str(state)])
        result = json.loads(capsys.readouterr().out)["result"]
        results.append((code, result["algebra_dim"], result["separating"]))
    assert results == [(EXIT_OK, 2, True)] * 2


@pytest.mark.parametrize("case", ["e01", "hermitian", "random-3x3"])
def test_closure_bits_do_not_depend_on_a_power_of_two_scale(case):
    # Gram-Schmidt scales each input by the power of two of its largest
    # entry, so 2^j g and g give the same basis bit for bit, also where the
    # squared norm of 2^j g under- or overflows
    if case == "e01":
        g = E12
    elif case == "hermitian":
        g = np.array([[1, 2], [2, 5]], dtype=complex)
    else:
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    bases = [algebra_closure([np.ldexp(1.0, j) * g]).basis for j in (-700, -500, 0, 500, 700)]
    for basis in bases:
        assert np.array_equal(basis, bases[2])


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300])
def test_closure_keeps_a_generator_of_extreme_scale(scale):
    alg = algebra_closure([scale * E12])
    assert alg.size == 4
    alg.verify_closure()


def test_cli_generator_entry_of_extreme_scale_is_not_dropped(capsys, tmp_path):
    # M_3 (x) 1_3 plus the matrix unit E_00 (x) e_01 generate M_3 (x) (M_2 + C),
    # of dimension 45 > 9, so no state separates it; an entry of 1e200 in
    # place of 1.0 must not drop that generator and leave M_3 (x) 1_3
    units = _direct_sum_units([(3, 3)])
    state = tmp_path / "state.json"
    # sum_i sqrt(p_i) e_i (x) e_i separates M_3 (x) 1_3
    weights = np.sqrt([1 / 2, 1 / 3, 1 / 6])
    state.write_text(json.dumps({"vector": _complex_entries(np.diag(weights).reshape(-1))}))
    results = []
    for entry in (1.0, 1e200):
        gens = [u.copy() for u in units]
        gens[0][0, 1] = entry
        algebra = tmp_path / f"algebra-{entry:g}.json"
        algebra.write_text(json.dumps({"generators": [_complex_entries(g) for g in gens]}))
        code = main(["modular", "analyze", "--seed", "1", "--algebra", str(algebra),
                     "--state", str(state)])
        result = json.loads(capsys.readouterr().out)["result"]
        results.append((code, result["algebra_dim"], result["separating"]))
    assert results == [(EXIT_MATH, 45, False)] * 2


@pytest.mark.parametrize("seed", range(12))
def test_returned_algebras_pass_the_full_closure_check(seed):
    # algebra_closure and commutant skip the k^2 product rows of the
    # constructor; the public check over every row must still pass
    rng = np.random.default_rng(2000 + seed)
    d = int(rng.integers(2, 7))
    gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(int(rng.integers(1, 3)))]
    if seed % 3 == 0:
        gens = [g + g.conj().T for g in gens]  # Hermitian: often a proper subalgebra
    elif seed % 3 == 1:
        # block diagonal in a random frame: M_a + M_b, a proper noncommutative algebra
        a = int(rng.integers(1, d))
        u = _unitary(rng, d)
        gens = [u @ np.block([[g[:a, :a], np.zeros((a, d - a))],
                              [np.zeros((d - a, a)), g[a:, a:]]]) @ u.conj().T for g in gens]
    m = algebra_closure(gens)
    mc = commutant(m)
    for alg in (m, mc, commutant(mc)):
        alg.verify_closure()


def test_closure_input_validation():
    with pytest.raises(ValueError):
        algebra_closure([])
    with pytest.raises(ValueError):
        algebra_closure([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        algebra_closure([np.eye(2), np.eye(3)])


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def _direct_sum_units(blocks, u=None):
    """Matrix units of the direct sum of M_n (x) 1_m over `blocks` = [(n, m), ...],
    conjugated by the unitary u when one is given."""
    d = sum(n * m for n, m in blocks)
    units, offset = [], 0
    for n, m in blocks:
        for i in range(n):
            for j in range(n):
                x = np.zeros((d, d), dtype=complex)
                e = np.zeros((n, n))
                e[i, j] = 1.0
                x[offset:offset + n * m, offset:offset + n * m] = np.kron(e, np.eye(m))
                units.append(x if u is None else u @ x @ u.conj().T)
        offset += n * m
    return units


E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("basis, message", [
    ([E11], "does not contain the identity"),
    ([np.eye(2) / np.sqrt(2), E12], "not closed under adjoints"),
    ([np.eye(2) / np.sqrt(2), SX / np.sqrt(2), SZ / np.sqrt(2)], "not closed under products"),
], ids=["no-identity", "no-adjoint", "no-product"])
def test_matrix_algebra_refuses_unclosed_basis(basis, message):
    # each basis is trace-orthonormal and fails exactly one closure check
    with pytest.raises(ValueError, match=message):
        MatrixAlgebra(2, np.stack(basis))


def _closure_by_all_products(generators):
    """The closure loop without screening: Gram-Schmidt over the basis and
    every product, each round, until the dimension stops growing.  The
    Gram-Schmidt projects each input off the rows kept so far twice, as
    `_orthonormalize` does, but without its power-of-two scaling, which is
    exact and so leaves every bit as it is."""
    def gram_schmidt(mats):
        d2 = mats[0].size
        kept = np.zeros((0, d2), dtype=complex)
        for x in mats:
            v = x.reshape(d2).astype(complex)
            for _ in range(2):
                v = v - (kept.conj() @ v) @ kept
            n = np.linalg.norm(v)
            if n > 1e-12 * np.linalg.norm(x):
                kept = np.concatenate([kept, (v / n)[None]])
        return list(kept.reshape(-1, *mats[0].shape))

    gens = [np.asarray(g, dtype=complex) for g in generators]
    seed = [np.eye(gens[0].shape[0], dtype=complex)]
    for g in gens:
        seed += [g, g.conj().T]
    basis = gram_schmidt(seed)
    while True:
        new = gram_schmidt(basis + [a @ b for a in basis for b in basis])
        if len(new) == len(basis):
            return np.stack(new)
        basis = new


@pytest.mark.parametrize("case", ["qubit-factor", "m2", "m3", "m4", "rotated-blocks",
                                  "random-3x3"])
def test_closure_bitwise_equals_all_products_gram_schmidt(case):
    if case == "qubit-factor":
        gens, got = _direct_sum_units([(2, 2)]), qubit_factor().basis
    else:
        if case == "random-3x3":
            # one non-normal generator: several rounds, several new products in each
            rng = np.random.default_rng(3)
            gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
        elif case == "rotated-blocks":
            u = _unitary(np.random.default_rng(5), 5)
            gens = [u @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0]) @ u.conj().T]
        else:
            k = int(case[1])
            gens = _direct_sum_units([(k, k)])
        got = algebra_closure(gens).basis
    assert np.array_equal(got, _closure_by_all_products(gens))


@pytest.mark.parametrize("full", [False, True], ids=["proper-span", "full-span"])
@pytest.mark.parametrize("d", range(2, 7))
def test_orthonormalize_matches_svd_rank_oracle(d, full):
    # random directions, then inputs inside their span: an exact duplicate,
    # sums, copies scaled by 1e8 and 1e-8 and the zero matrix; an adjoint
    # pair adds a direction unless the span is already all of M_d
    rng = np.random.default_rng(100 * d + full)
    count = d * d if full else d
    mats = list(rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)))
    a, b = mats[0], mats[-1]
    mats = mats[:1] + [a.conj().T, a.copy()] + mats[1:] + [
        a + b, a + a.conj().T, 1e8 * b, 1e-8 * mats[1], np.zeros((d, d))]
    kept = _orthonormalize(d, mats).reshape(-1, d * d)
    # the rank of the inputs scaled to unit norm: their singular values are
    # O(0.1) or larger for independent directions and O(1e-15) for the
    # dependent ones, so any tolerance between gives the same count
    flat = np.stack([m.reshape(-1) / (np.linalg.norm(m) or 1.0) for m in mats])
    assert kept.shape[0] == np.linalg.matrix_rank(flat, tol=1e-8) == min(count + 1, d * d)
    assert np.max(np.abs(kept.conj() @ kept.T - np.eye(kept.shape[0]))) <= 1e-13
    for m in mats:
        v = m.reshape(-1)
        residual = v - (kept.conj() @ v) @ kept
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# commutants


def test_commutant_of_tensor_factor():
    m = qubit_factor()
    mc = commutant(m)
    assert mc.size == 4
    eye2 = np.eye(2)
    for g in (SX, SZ):
        assert mc.contains(np.kron(eye2, g))
        assert not mc.contains(np.kron(g, eye2)) or np.allclose(g, eye2)


def test_commutant_of_full_algebra_is_scalars():
    full = algebra_closure([np.array([[0, 1], [0, 0]], dtype=complex)])
    assert commutant(full).size == 1


def test_commutant_of_scalars_is_everything():
    assert commutant(algebra_closure([np.eye(2)])).size == 4


def _blocks(*mats):
    """Stack per-block matrices as one group (k, 1, s, s)."""
    return np.stack(mats).astype(complex)[:, None]


# {1, sx, sz}/sqrt(2) is trace-orthonormal and *-closed, but sx sz is not in it;
# with a 1x1 block beside it the same holds with two block sizes
ONE_BLOCK = ([_blocks(np.eye(2), SX, SZ) / np.sqrt(2)],
             [_blocks(np.eye(2), SX, SX @ SZ / 1j, SZ) / np.sqrt(2)])
TWO_SIZES = ([_blocks(np.eye(2) / np.sqrt(2), np.zeros((2, 2)), SX / np.sqrt(2), SZ / np.sqrt(2)),
              _blocks([[0]], [[1]], [[0]], [[0]])],
             [_blocks(np.eye(2) / np.sqrt(2), np.zeros((2, 2)), SX / np.sqrt(2)),
              _blocks([[0]], [[1]], [[0]])])


@pytest.mark.parametrize("chunk", [1 << 13, 1, 24], ids=["one-chunk", "row-by-row",
                                                        "two-rows-overlapping"])
@pytest.mark.parametrize("case", [ONE_BLOCK, TWO_SIZES], ids=["one-block", "two-sizes"])
def test_block_product_check_refuses_an_unclosed_span(case, chunk, monkeypatch):
    monkeypatch.setattr(modular, "_PRODUCT_CHUNK", chunk)
    unclosed, closed = case
    with pytest.raises(ValueError, match="not closed under products"):
        _check_block_products(unclosed)
    _check_block_products(closed)


def test_commutant_refuses_a_null_space_that_is_not_closed(monkeypatch):
    # swap one null direction of the kept Gram for a non-null one: the span
    # returned is still orthonormal and block diagonal, but not an algebra
    m = qubit_factor()
    real_eigh = np.linalg.eigh

    def eigh(a):
        vals, vecs = real_eigh(a)
        if a.shape[0] != m.dim:
            vals = vals.copy()
            null = int(np.sum(vals <= 1e-12 * max(np.max(vals), 1.0)))
            vals[0], vals[null] = vals[null], 0.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(ValueError, match="not closed under products"):
        commutant(m)


def _stacked_kron_commutant(m):
    """Oracle: the null space of the Gram matrix summed term by term from
    op_b = 1 (x) b - b^T (x) 1, as vec(x) -> vec(b x - x b); eigh returns it
    orthonormal, which is the trace pairing on x = vec^-1."""
    d = m.dim
    eye = np.eye(d)
    gram = np.zeros((d * d, d * d), dtype=complex)
    for b in m.basis:
        op = np.kron(eye, b) - np.kron(b.T, eye)
        gram += op.conj().T @ op
    vals, vecs = np.linalg.eigh(gram)
    null = vecs[:, vals <= 1e-12 * max(np.max(vals), 1.0)]
    return MatrixAlgebra(d, np.stack([v.reshape(d, d).T for v in null.T]))


def _full_gram(m, u):
    """The whole d^2 x d^2 Gram of the op_b in the eigenbasis u, by the
    closed form G = 1 (x) sum b^H b + sum conj(b) b^T (x) 1 - X - X^H with
    X = sum_b b^T (x) b^H from one (k x d^2)^T (k x d^2) product."""
    d = m.dim
    rotated = u.conj().T @ m.basis @ u
    flat = rotated.reshape(m.size, d * d)  # row b holds b[j, i] at j*d + i
    cross = (flat.T @ flat.conj()).reshape(d, d, d, d)  # cross[j, i, l, k]
    gram = np.empty((d * d, d * d), dtype=complex)
    g4 = gram.reshape(d, d, d, d)  # g4[i, k, j, l] = gram[i*d + k, j*d + l]
    np.negative(cross.transpose(1, 3, 0, 2), out=g4)
    gram += gram.conj().T
    left = np.einsum("bji,bjl->il", rotated.conj(), rotated)
    right = np.einsum("bij,blj->il", rotated.conj(), rotated)
    for i in range(d):
        g4[i, :, i, :] += left
        g4[:, i, :, i] += right
    return gram


def _check_commutant(m, expected):
    u, keep, kept, _ = _kept_gram(m)
    full = _full_gram(m, u)[np.ix_(keep, keep)]
    assert np.max(np.abs(kept - full)) <= 1e-12 * max(np.max(np.abs(full)), 1.0)
    mc = commutant(m)
    m.verify_closure()
    mc.verify_closure()
    oracle = _stacked_kron_commutant(m)
    assert mc.size == oracle.size == expected
    assert mc.equals(oracle)
    for x in mc.basis:
        for b in m.basis:
            assert np.max(np.abs(x @ b - b @ x)) <= 1e-10
    assert commutant(mc).equals(m)


@pytest.mark.parametrize("case", ["m2", "m3", "m4", "diag5", "blocks", "rotated-blocks",
                                  "m2x1_3", "m3x1_2", "rotated-sum", "near-degenerate"])
def test_commutant_matches_stacked_kron_oracle(case):
    if case == "diag5":
        m, expected = diagonal_algebra(5), 5
    elif case.endswith("blocks"):
        # M = C 1_2 + C 1_1 + C 1_2, so M' = M_2 + M_1 + M_2; a complex unitary
        # makes sum b^H b and sum conj(b) b^T differ, so the two
        # block-diagonal Gram terms cannot stand in for each other
        gen = np.diag([1.0, 1.0, 2.0, 3.0, 3.0]).astype(complex)
        if case == "rotated-blocks":
            u = _unitary(np.random.default_rng(5), 5)
            gen = u @ gen @ u.conj().T
        m, expected = algebra_closure([gen]), 9
    elif case in ("m2x1_3", "m3x1_2"):
        # unequal factor and multiplicity: M' = 1_n (x) M_m
        n, mult = int(case[1]), int(case[-1])
        m, expected = algebra_closure(_direct_sum_units([(n, mult)])), mult * mult
    elif case == "rotated-sum":
        # (M_2 (x) 1_2) + (M_1 (x) 1_3): M' = (1_2 (x) M_2) + M_3, dimension 4 + 9
        u = _unitary(np.random.default_rng(7), 7)
        m, expected = algebra_closure(_direct_sum_units([(2, 2), (1, 3)], u)), 13
    elif case == "near-degenerate":
        # eigenvalues 1 and 1 + 1e-9 are distinct, so M' = C + C + C + M_2
        m = algebra_closure([np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0]).astype(complex)])
        expected = 7
    else:
        k = int(case[1])
        rng = np.random.default_rng(k)
        gens = [np.kron(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
                        np.eye(k)) for _ in range(2)]
        m, expected = algebra_closure(gens), k * k
    _check_commutant(m, expected)


@pytest.mark.parametrize("seed", range(24))
def test_commutant_of_random_direct_sum(seed):
    # M = sum_i M_{n_i} (x) 1_{m_i} in a random complex frame, d <= 9:
    # dim M = sum n_i^2 and dim M' = sum m_i^2
    rng = np.random.default_rng(1000 + seed)
    blocks = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)))]
    while True:
        n, mult = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if sum(a * b for a, b in blocks) + n * mult > 9:
            break
        blocks.append((n, mult))
    d = sum(n * mult for n, mult in blocks)
    m = algebra_closure(_direct_sum_units(blocks, _unitary(rng, d)))
    assert m.size == sum(n * n for n, _ in blocks)
    _check_commutant(m, sum(mult * mult for _, mult in blocks))


def test_commutant_of_m5_x_1_5_stays_under_4_mb():
    # the whole Gram of M_5 (x) 1_5 alone is 625 x 625 complex, 6.25 MB
    m = MatrixAlgebra(25, np.stack(_direct_sum_units([(5, 5)])) / np.sqrt(5))
    tracemalloc.start()
    try:
        mc = commutant(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc.size == 25
    assert peak < 4_000_000


def test_double_commutant_is_identity_operation():
    for gens in ([np.kron(SX, np.eye(2)), np.kron(SZ, np.eye(2))],
                 [np.diag([1.0, 2.0, 3.0]).astype(complex)]):
        m = algebra_closure(gens)
        assert commutant(commutant(m)).equals(m)


# ---------------------------------------------------------------------------
# cyclic / separating


def test_entangled_state_cyclic_separating():
    m = qubit_factor()
    om = schmidt_state(2 / 3)
    assert is_cyclic(m, om)
    assert is_separating(m, om)


def test_product_state_not_separating_with_witness():
    m = qubit_factor()
    om = StateVector(np.array([1, 0, 0, 0], dtype=complex))
    witness = separating_violation(m, om)
    assert witness is not None
    assert np.linalg.norm(witness @ om.data) < 1e-10
    assert m.contains(witness)


def test_full_algebra_cyclic_not_separating():
    full = algebra_closure([np.array([[0, 1], [0, 0]], dtype=complex)])
    om = StateVector.normalized(np.array([1.0, 1.0]))
    assert is_cyclic(full, om)
    assert not is_separating(full, om)


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError, match=r"norm 1\.414213562373095\d*, not 1 to within 1e-12"):
        StateVector(np.array([1.0, 1.0]))
    sv = StateVector.normalized(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(sv.data) - 1) < 1e-14


# ---------------------------------------------------------------------------
# the modular triple


def test_tracial_state_gives_identity_delta():
    m = qubit_factor()
    triple = tomita(m, schmidt_state(0.5))
    assert np.linalg.norm(triple.delta - np.eye(4)) < 1e-12


@pytest.mark.parametrize("p", [0.5, 2 / 3, 0.9])
def test_delta_spectrum_matches_vectorization_oracle(p):
    # under C^2 x C^2 ~ M_2, Omega ~ rho^{1/2} and Delta acts as rho (.) rho^{-1},
    # so the spectrum is the multiset of eigenvalue ratios {p/(1-p), (1-p)/p, 1, 1}
    m = qubit_factor()
    triple = tomita(m, schmidt_state(p))
    expected = sorted([p / (1 - p), (1 - p) / p, 1.0, 1.0])
    assert np.allclose(np.sort(triple.eigenvalues), expected, atol=TOL)


def test_triple_structural_identities():
    m = qubit_factor()
    om = schmidt_state(2 / 3)
    triple = tomita(m, om)
    triple.validate(m)
    eye = np.eye(4)
    assert np.linalg.norm(triple.j_matrix @ np.conj(triple.j_matrix) - eye) < TOL
    jdj = triple.j_matrix @ np.conj(triple.delta) @ np.conj(triple.j_matrix)
    assert np.linalg.norm(jdj - np.linalg.inv(triple.delta)) < TOL
    assert np.linalg.norm(triple.delta @ triple.omega - triple.omega) < TOL
    assert np.linalg.norm(triple.apply_j(triple.omega) - triple.omega) < TOL
    for b in m.basis:
        assert np.linalg.norm(triple.apply_s(b @ triple.omega)
                              - b.conj().T @ triple.omega) < TOL


def _wide_spectrum_draws(count):
    """`count` random M_2 (x) 1 inputs from one np.random.default_rng(3): per
    draw a random unitary frame u, two random complex 2 x 2 generators (x) 1_2
    conjugated by u, and a random unit state.  Draw 0 has frame condition
    26.7 and Delta spectrum {1.4e-3, 1, 1, 714}."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        u = _unitary(rng, 4)
        gens = [u @ np.kron(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                            np.eye(2)) @ u.conj().T for _ in range(2)]
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yield gens, u, v / np.linalg.norm(v)


def _partial_trace_spectrum(state):
    """Oracle: Delta of M_2 (x) 1 acts as rho (.) rho^{-1} on C^2 x C^2 ~ M_2,
    with rho the reduced density of the first factor, so its spectrum is
    {l_i / l_j} over the eigenvalues l of rho."""
    psi = state.reshape(2, 2)
    lam = np.linalg.eigvalsh(psi @ psi.conj().T)
    return np.sort([a / b for a in lam for b in lam])


def test_wide_delta_spectra_are_accepted():
    # the identities are bounded relative to kappa(B) sqrt(kappa(Delta)), so a
    # spectrum spread over 1e7 is not refused for roundoff
    for gens, u, v in _wide_spectrum_draws(200):
        triple = tomita(algebra_closure(gens), v)
        np.testing.assert_allclose(np.sort(triple.eigenvalues),
                                   _partial_trace_spectrum(u.conj().T @ v), rtol=1e-8, atol=0)


def _complex_entries(a):
    return [[z.real, z.imag] for z in a] if a.ndim == 1 else [_complex_entries(r) for r in a]


def test_cli_accepts_wide_spectrum_draw(capsys, tmp_path):
    gens, _, v = next(_wide_spectrum_draws(1))
    algebra, state = tmp_path / "algebra.json", tmp_path / "state.json"
    algebra.write_text(json.dumps({"generators": [_complex_entries(g) for g in gens]}))
    state.write_text(json.dumps({"vector": _complex_entries(v)}))
    code = main(["modular", "analyze", "--seed", "1", "--algebra", str(algebra),
                 "--state", str(state)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["basis_conditioning"] == 26.727777


def _corrupted(triple, m, identity, eps=1e-8):
    """The triple (and algebra) with one term of `identity` moved by relative
    eps, leaving every identity validate checks before it intact."""
    omega = triple.omega
    if identity == "J^2 = 1":
        return replace(triple, j_matrix=(1 + eps) * triple.j_matrix), m
    if identity == "J Delta J = Delta^{-1}":
        return replace(triple, delta=(1 + eps) * triple.delta), m
    if identity == "Delta Omega = Omega":
        # along the top eigenvector, away from Delta's eigenvalue 1
        return replace(triple, omega=omega + eps * triple.eigenvectors[:, -1]), m
    if identity == "J Omega = Omega":
        # a phase keeps Delta Omega = Omega, but J is antilinear
        return replace(triple, omega=np.exp(1j * eps) * omega), m
    if identity == "S = J Delta^{1/2}":
        return replace(triple, s_matrix=(1 + eps) * triple.s_matrix), m
    # x -> w x w^H with w = exp(i eta h) for a random Hermitian h, eta such
    # that max ||x' - x|| = eps to first order: the algebra moved out of the
    # frame S was solved on
    a = np.random.default_rng(0).standard_normal((2, m.dim, m.dim))
    h = a[0] + a[0].T + 1j * (a[1] - a[1].T)
    vals, vecs = np.linalg.eigh(h)
    eta = eps / max(np.linalg.norm(h @ x - x @ h) for x in m.basis)
    w = (vecs * np.exp(1j * eta * vals)) @ vecs.conj().T
    return triple, MatrixAlgebra(m.dim, w @ m.basis @ w.conj().T)


IDENTITIES = ["J^2 = 1", "J Delta J = Delta^{-1}", "Delta Omega = Omega", "J Omega = Omega",
              "S = J Delta^{1/2}", "S x Omega = x* Omega on the algebra"]


@pytest.mark.parametrize("identity", IDENTITIES)
@pytest.mark.parametrize("case", ["p:2/3", "wide-spectrum"])
def test_validate_refuses_each_corrupted_identity(case, identity):
    if case == "p:2/3":
        m, v = qubit_factor(), schmidt_state(2 / 3)
    else:
        gens, _, v = next(_wide_spectrum_draws(1))
        m = algebra_closure(gens)
    triple = tomita(m, v)
    bad, bad_m = _corrupted(triple, m, identity)
    with pytest.raises(IdentityDefect) as err:
        bad.validate(bad_m)
    assert err.value.identity == identity
    assert err.value.residual > err.value.bound
    assert str(err.value).startswith(f"{identity} fails: residual ")


def test_spectrum_closed_under_inversion():
    triple = tomita(qubit_factor(), schmidt_state(0.8))
    sp = np.sort(triple.eigenvalues)
    assert np.allclose(np.sort(1.0 / sp), sp, atol=1e-9)


def test_abelian_algebra_tracial_position():
    # diagonal algebra with a separating vector: Delta is always the identity
    d = diagonal_algebra(4)
    om = StateVector.normalized(np.array([1 + 2j, 0.5 - 0.3j, 0.8j, -0.7 + 0.1j]))
    triple = tomita(d, om)
    assert np.linalg.norm(triple.delta - np.eye(4)) < TOL


def test_tomita_rejects_bad_states():
    m = qubit_factor()
    with pytest.raises(ValueError, match="cyclic"):
        tomita(m, StateVector(np.array([1, 0, 0, 0], dtype=complex)))
    full = algebra_closure([np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ValueError, match="separating"):
        tomita(full, StateVector.normalized(np.array([1.0, 2.0])))


def test_jmj_equals_commutant():
    m = qubit_factor()
    mc = commutant(m)
    triple = tomita(m, schmidt_state(2 / 3))
    assert all(mc.distance(triple.conjugate_by_j(b)) < TOL for b in m.basis)
    assert all(m.distance(triple.conjugate_by_j(b)) < TOL for b in mc.basis)


def test_commutant_modular_operator_is_inverse():
    m = qubit_factor()
    om = schmidt_state(2 / 3)
    t_m = tomita(m, om)
    t_c = tomita(commutant(m), om)
    assert np.linalg.norm(t_c.delta - np.linalg.inv(t_m.delta)) < TOL


def test_larger_factor_spectrum_ratios():
    # M_4 x 1 on C^16 with a random Schmidt state: spectrum of Delta is the
    # full multiset of probability ratios
    rng = np.random.default_rng(123)
    eye4 = np.eye(4)
    gens = []
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            gens.append(np.kron(e, eye4))
    m = algebra_closure(gens)
    weights = rng.random(4) + 0.2
    weights /= weights.sum()
    vec = np.zeros(16, dtype=complex)
    for i in range(4):
        vec[i * 4 + i] = np.sqrt(weights[i])
    triple = tomita(m, StateVector(vec))
    expected = sorted((weights[i] / weights[j] for i in range(4) for j in range(4)))
    assert np.allclose(np.sort(triple.eigenvalues), expected, atol=1e-8)


# ---------------------------------------------------------------------------
# flow and KMS defects


def test_flow_defect_tiny_for_true_triple():
    m = qubit_factor()
    triple = tomita(m, schmidt_state(2 / 3))
    assert modular_flow_defect(triple, m, [0.1, 0.5, 1.0, np.pi]) < TOL


def test_flow_defect_zero_for_identity_delta():
    m = qubit_factor()
    triple = tomita(m, schmidt_state(0.5))
    assert modular_flow_defect(triple, m, [0.3, 2.0]) < 1e-12


def test_wrong_delta_breaks_flow():
    # swapping a ratio eigenvalue with a unit one is a genuine corruption
    # (swapping 2 with 1/2 would only produce Delta^{-1}, whose flow also
    # preserves the algebra)
    m = qubit_factor()
    triple = tomita(m, schmidt_state(2 / 3))
    vals = triple.eigenvalues.copy()
    i2 = int(np.argmin(np.abs(vals - 2.0)))
    i1 = int(np.argmin(np.abs(vals - 1.0)))
    vals[[i2, i1]] = vals[[i1, i2]]
    wrong = ModularTriple(triple.omega,
                          (triple.eigenvectors * vals) @ triple.eigenvectors.conj().T,
                          triple.j_matrix, triple.s_matrix, vals, triple.eigenvectors)
    assert modular_flow_defect(wrong, m, [0.1, 0.5, 1.0, np.pi]) > 0.1


def test_kms_defect_tiny_for_true_triple():
    m = qubit_factor()
    om = schmidt_state(2 / 3)
    assert kms_defect(m, om, samples=100, seed=7) < TOL


@pytest.mark.parametrize("samples", [0, -5])
def test_kms_defect_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        kms_defect(qubit_factor(), schmidt_state(0.5), samples=samples, seed=0)


def test_kms_defect_tracial_is_zero_without_delta():
    # for the tracial state both sides are traces, Delta = 1 exactly
    m = qubit_factor()
    om = schmidt_state(0.5)
    assert kms_defect(m, om, samples=50, seed=3) < 1e-12


def test_kms_detects_identity_delta_substitution():
    m = qubit_factor()
    om = schmidt_state(2 / 3)
    triple = tomita(m, om)
    fake = ModularTriple(triple.omega, np.eye(4), triple.j_matrix,
                         triple.s_matrix, np.ones(4), np.eye(4))
    assert kms_defect(m, om, samples=100, seed=7, triple=fake) > 0.01


def test_kms_deterministic_for_fixed_seed():
    m = qubit_factor()
    om = schmidt_state(0.7)
    a = kms_defect(m, om, samples=25, seed=5)
    b = kms_defect(m, om, samples=25, seed=5)
    assert a == b


def _kms_per_sample(m, omega, triple, samples, seed):
    """kms_defect one sample at a time: x then y, each the basis sum of
    complex Gaussian coefficients (real parts, then imaginary) over its norm."""
    rng = np.random.default_rng(seed)
    v = omega.data

    def element():
        c = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
        x = sum(ca * b for ca, b in zip(c, m.basis))
        return x / np.linalg.norm(x)

    worst = 0.0
    for _ in range(samples):
        x = element()
        y = element()
        worst = max(worst, abs(np.vdot(v, x @ triple.delta @ y @ v) - np.vdot(v, y @ x @ v)))
    return worst


@pytest.mark.parametrize("n", [2, 5])
def test_chunked_kms_matches_the_per_sample_loop(n):
    # a Delta of 1 for a state that is not tracial leaves a defect of order
    # 0.01 or more, so agreement to 1e-12 checks the draws and both sides;
    # the state is complex, since for a real one the draws with real and
    # imaginary parts swapped give the same defect
    m = algebra_closure(_direct_sum_units([(n, n)]))
    rng = np.random.default_rng(n)
    state = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 4.0 ** np.arange(n)[:, None]
    om = StateVector.normalized(state.reshape(-1))
    fake = replace(tomita(m, om), delta=np.eye(n * n))
    c = modular._PRODUCT_CHUNK // (2 * m.dim ** 2)
    for samples in (1, c - 1, c, c + 1, 3 * c + 2):
        got = kms_defect(m, om, samples=samples, seed=11, triple=fake)
        expected = _kms_per_sample(m, om, fake, samples, 11)
        assert expected > 0.01
        assert abs(got - expected) <= 1e-12 * expected
