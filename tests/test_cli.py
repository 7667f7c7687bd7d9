import hashlib
import json
import os
import random
import time

import pytest

from cohomkit.cli import EXIT_MATH, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# lie


def test_lie_cohomology_poincare4(capsys):
    code, rep = run_json(capsys, "lie", "cohomology", "--algebra", "poincare4",
                         "--degree", "2")
    assert code == EXIT_OK
    assert rep["result"]["dim_H"] == 0


def test_lie_perfect_poincare2(capsys):
    code, rep = run_json(capsys, "lie", "perfect", "--algebra", "poincare2")
    assert code == EXIT_OK
    assert rep["result"]["perfect"] is False


def test_lie_validate_corrupted_exits_one(capsys, tmp_path):
    bad = {"dim": 3, "labels": ["h", "e", "f"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"e": "3"}},
                        {"i": 0, "j": 2, "coeffs": {"f": "-2"}},
                        {"i": 1, "j": 2, "coeffs": {"h": "1"}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, rep = run_json(capsys, "lie", "validate", "--algebra", str(path))
    assert code == EXIT_MATH
    assert rep["result"]["valid"] is False
    assert len(rep["result"]["violating_indices"]) == 3


def test_lie_validate_names_unknown_label(capsys, tmp_path):
    bad = {"dim": 3, "labels": ["h", "e", "f"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"e": "2"}},
                        {"i": 1, "j": 2, "coeffs": {"zz": "1"}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["lie", "validate", "--algebra", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "'zz'" in err and "(1, 2)" in err and "h, e, f" in err


@pytest.mark.parametrize("doc, message", [
    ({"labels": ["a"]}, "missing key 'dim'"),
    ({"dim": 2, "brackets": [{"j": 1, "coeffs": {}}]}, "missing key 'i'"),
    ({"dim": "two"}, "invalid literal for int() with base 10: 'two'"),
    ({"dim": 2, "brackets": 5}, "'int' object is not iterable"),
    ({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1]}]},
     "'list' object has no attribute 'items'"),
])
def test_lie_loader_errors_name_file_and_key(capsys, tmp_path, doc, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code = main(["lie", "cohomology", "--algebra", str(path), "--degree", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_lie_generate_and_ideal(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]}))
    code, rep = run_json(capsys, "lie", "generate", "--algebra", "poincare4",
                         "--generators", str(gens))
    assert code == EXIT_OK
    assert rep["result"]["closure_dim"] == 6

    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"element": [0, 0, 0, 0, 0, 0, "1", 0, 0, 0]}))
    code, rep = run_json(capsys, "lie", "ideal", "--algebra", "poincare4",
                         "--element", str(elem))
    assert code == EXIT_OK
    assert rep["result"]["ideal_dim"] == 4
    assert rep["result"]["contains_translations"] is True


# ---------------------------------------------------------------------------
# group


@pytest.mark.parametrize("group, coeff, degree, digest", [
    ("q8", "z4", "2", "a99db89a5f5c1cc00beb7c9a4e557610aacadb979c374d5a0ed75a9968dd9903"),
    ("s3", "z6", "2", "0da974d895f5bdbc09d3d47147bfa35ab24665296597480c812d67c019e57540"),
    ("z4", "z2", "1", "38091b0451242f1188359722b7176870a65106be230ab082315d8a451d0d3e2b"),
    ("q8", "z2", "2", "f33c9dec9c499e1cfe16ffdf1e42a5d07dd8983d2adce0bc26d647966d414c43"),
    ("a4", "z2xz2", "2", "6985bf8ef43902ac3af1948cfbc70b03b598a3841d54895a7f30215e1414f563"),
])
def test_group_cocycles_output_is_pinned(capsys, group, coeff, degree, digest):
    # Z^n and its generators, byte for byte, as the full-row elimination wrote them
    code, out = run(capsys, "group", "cocycles", "--group", group, "--coeff", coeff,
                    "--degree", degree)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_group_h_z2(capsys):
    code, rep = run_json(capsys, "group", "h", "--group", "z2", "--coeff", "z2",
                         "--degree", "2")
    assert code == EXIT_OK
    assert rep["result"]["invariant_factors"] == [2]


def test_group_h_z3_trivial(capsys):
    code, rep = run_json(capsys, "group", "h", "--group", "z3", "--coeff", "z2",
                         "--degree", "2")
    assert code == EXIT_OK
    assert rep["result"]["trivial"] is True


def test_group_h_rejects_order_zero_but_not_trivial_group(capsys):
    code = main(["group", "h", "--group", "z0", "--coeff", "z2", "--degree", "2"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cyclic group order must be at least 1, got 0" in captured.err
    for degree in ("1", "2"):
        code, rep = run_json(capsys, "group", "h", "--group", "z1", "--coeff", "z2",
                             "--degree", degree)
        assert code == EXIT_OK
        assert rep["result"]["invariant_factors"] == []
        assert rep["result"]["trivial"] is True


@pytest.mark.parametrize("coeff, message", [
    ("z1", "every cyclic factor must have order >= 2"),
    ("2,1", "every cyclic factor must have order >= 2"),
    ("2,x", "unknown coefficient group: '2,x'"),
])
def test_group_h_names_the_coefficient_refusal(capsys, coeff, message):
    # both spellings of a factor of order 1 get the refusal itself; only a
    # name that does not parse is unknown
    code = main(["group", "h", "--group", "z2", "--coeff", coeff, "--degree", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({"table": 5}, "'int' object is not iterable"),
    ({"tab": [[0]]}, "missing key 'table'"),
    ([[0]], "list indices must be integers or slices, not str"),
    ({"table": [[0, "x"], [1, 0]]}, "'table' entry [0][1] is 'x', not an integer in 0..1"),
    ({"order": 2, "table": [[0, 1.7], [1.2, 0]]},
     "'table' entry [0][1] is 1.7, not an integer in 0..1"),
    ({"table": [[0, 1.0], [1, 0]]}, "'table' entry [0][1] is 1.0, not an integer in 0..1"),
    ({"table": [[0, True], [True, 0]], "identity": False},
     "'table' entry [0][1] is True, not an integer in 0..1"),
    ({"table": [[0, "1"], ["1", 0]]}, "'table' entry [0][1] is '1', not an integer in 0..1"),
    ({"table": [[0, 1], [1, 2]]}, "'table' entry [1][1] is 2, not an integer in 0..1"),
    ({"table": [[0, 1], [1, 0]], "identity": False},
     "declared identity False is not an element 0..1"),
    ({"table": [[0, 1], [1, 0]], "identity": 0.0},
     "declared identity 0.0 is not an element 0..1"),
    # the last element is the identity, which Python's -1 would index
    ({"table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]], "identity": -1},
     "declared identity -1 is not an element 0..2"),
    ({"order": 5, "table": [[0, 1], [1, 0]]}, "'order' is 5, but the table has 2 rows"),
    ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "'order' is 2.0, but the table has 2 rows"),
])
@pytest.mark.parametrize("cmd", ["h", "cocycles"])
def test_group_loader_errors_name_file_and_key(capsys, tmp_path, doc, message, cmd):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code = main(["group", cmd, "--group", str(path), "--coeff", "z2", "--degree", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_group_table_with_matching_order_and_identity_is_accepted(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 2, "table": [[1, 0], [0, 1]], "identity": 1}))
    code, rep = run_json(capsys, "group", "h", "--group", str(path), "--coeff", "z2",
                         "--degree", "2")
    assert code == EXIT_OK
    assert rep["result"]["invariant_factors"] == [2]


@pytest.mark.parametrize("values, message", [
    ([0, 1.5, 0, 1.9], "'values' entry [1] is 1.5, not an integer in 0..1"),
    ([0, 1.0, 0, 1], "'values' entry [1] is 1.0, not an integer in 0..1"),
    ([0, True, 0, True], "'values' entry [1] is True, not an integer in 0..1"),
    ([0, "1", 0, "1"], "'values' entry [1] is '1', not an integer in 0..1"),
    ([0, 1, 0, 3], "'values' entry [3] is 3, not an integer in 0..1"),
    ([0, -1, 0, 1], "'values' entry [1] is -1, not an integer in 0..1"),
], ids=["floats", "float-one", "bools", "strings", "range", "negative"])
def test_sigma_values_must_be_element_indices(capsys, tmp_path, values, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"values": values}))
    code = main(["group", "correspondence", "--cover", "z4", "--base", "z2", "--coeff", "z2",
                 "--sigma", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("cmd", ["h", "cocycles"])
def test_group_over_dense_budget_exits_two_fast(capsys, cmd):
    # Light's rows of d_2 of z64, (p, s, r) with s = 0 or 1, would be an
    # 8192 x 4096 matrix; they are counted, not built
    start = time.perf_counter()
    code = main(["group", cmd, "--group", "z64", "--coeff", "z2", "--degree", "2"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == ("error: Light's rows of d_2 of a group of order 64 are a "
                            f"8192 x 4096 matrix: {8192 * 4096} {BUDGET}\n")


def test_group_h_coprime_coefficients_need_no_dense_matrix(capsys):
    # 3 does not divide 64, so H^2(z64, Z3) = 0 without building d_2
    start = time.perf_counter()
    code, rep = run_json(capsys, "group", "h", "--group", "z64", "--coeff", "z3",
                         "--degree", "2")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert rep["result"]["invariant_factors"] == []
    assert rep["result"]["trivial"] is True


@pytest.mark.parametrize("argv, message", [
    (["modular", "analyze", "--seed", "1"],
     "modular analyze needs --algebra and --state, or --example"),
    (["modular", "analyze", "--example", "thermal", "--seed", "1"],
     "unknown --example thermal; use tracial, product, or p:<value>"),
    (["group", "correspondence", "--cover", "z3", "--base", "z2", "--coeff", "z2"],
     "canonical sigma needs |base| dividing |cover|"),
    (["modular", "analyze", "--example", "p:1/0", "--seed", "1"],
     "--example p:1/0 has a zero denominator"),
    (["spacetime", "boost", "--t", "inf"], "--t must be a finite number, not inf"),
    (["spacetime", "boost", "--t", "1000"],
     "--t is out of range: cosh(2 pi t) is not a finite float at t = 1000.0"),
    (["spacetime", "boost", "--t", "-1000"],
     "--t is out of range: cosh(2 pi t) is not a finite float at t = -1000.0"),
    (["modular", "analyze", "--example", "tracial", "--seed", "1", "--samples", "0"],
     "--samples must be at least 1, not 0"),
    (["modular", "analyze", "--example", "tracial", "--seed", "1", "--samples", "-5"],
     "--samples must be at least 1, not -5"),
])
def test_usage_errors_exit_two_with_error_prefix(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unknown_wedge_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["spacetime", "boost-generation", "--wedges", "foo"])
    assert err.value.code == EXIT_USAGE
    assert "error: argument --wedges: invalid choice: 'foo'" in capsys.readouterr().err


def test_lie_over_dense_budget_exits_two_fast(capsys):
    start = time.perf_counter()
    code = main(["lie", "cohomology", "--algebra", "abelian(16)", "--degree", "8"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: d_8 of a 16-dimensional algebra")
    assert "147232800" in captured.err and str(2 ** 22) in captured.err


BUDGET = "cells exceed the dense bound of 4194304 (2^22)"


@pytest.mark.parametrize("argv, message", [
    (["lie", "cohomology", "--algebra", "abelian(400)", "--degree", "0"],
     f"a 400-dimensional algebra has a 400 x 400 x 400 table of structure constants: "
     f"64000000 {BUDGET}"),
    (["lie", "perfect", "--algebra", "abelian(162)"],
     f"a 162-dimensional algebra has a 162 x 162 x 162 table of structure constants: "
     f"4251528 {BUDGET}"),
    (["group", "h", "--group", "z100000", "--coeff", "z2", "--degree", "2"],
     f"z100000 has a 100000 x 100000 multiplication table: 10000000000 {BUDGET}"),
    (["group", "cocycles", "--group", "z2049", "--coeff", "z2", "--degree", "1"],
     f"z2049 has a 2049 x 2049 multiplication table: 4198401 {BUDGET}"),
])
def test_input_sized_tables_exit_two_fast(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oversized_json_algebra_exits_two_fast_naming_the_file(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 100000}))
    start = time.perf_counter()
    code = main(["lie", "validate", "--algebra", str(path)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (f"error: {path}: a 100000-dimensional algebra has a "
                            f"100000 x 100000 x 100000 table of structure constants: "
                            f"{10 ** 15} {BUDGET}\n")


@pytest.mark.parametrize("fields, message", [
    ({"degree": 2.9, "group_order": 2.0}, "cochain JSON 'degree': 2.9 is not an integer"),
    ({"degree": 2, "group_order": 2.0}, "cochain JSON 'group_order': 2.0 is not an integer"),
])
def test_cocycle_file_with_fields_that_are_no_integer_exits_two(capsys, tmp_path, fields, message):
    # int() once read 2.9 as degree 2 and the build exited 0
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        **fields, "coefficient_orders": [4],
        "values": [{"args": [p, q], "value": [0]} for p in range(2) for q in range(2)]}))
    code = main(["group", "extension", "build", "--group", "z2", "--coeff", "z4",
                 "--cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_oversized_extension_carrier_exits_two_fast(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "degree": 2, "group_order": 2, "coefficient_orders": [100000],
        "values": [{"args": [p, q], "value": [0]} for p in range(2) for q in range(2)]}))
    start = time.perf_counter()
    code = main(["group", "extension", "build", "--group", "z2", "--coeff", "z100000",
                 "--cocycle", str(path)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == ("error: an extension of a group of order 2 by one of order 100000 "
                            f"has a 200000 x 200000 multiplication table: {4 * 10 ** 10} "
                            f"{BUDGET}\n")


def test_oversized_correspondence_solve_exits_two_fast(capsys):
    # the d_1 solve on the cover runs on Light's rows, 640 x 320 for z320,
    # though the full d_1 of z320 would be 102400 x 320: H^1(Z16, Z2) of the
    # kernel of z320 -> z20 matches H^2(z20, Z2) = Z2
    code, rep = run_json(capsys, "group", "correspondence", "--cover", "z320", "--base", "z20",
                         "--coeff", "z2")
    assert code == EXIT_OK
    result = rep["result"]
    assert result["h1_S_order"] == result["h2_P_order"] == 2
    assert result["applicable"] is True and result["map_injective"] is True
    # z1450's Light's rows of d_1 are over budget; the steps before the
    # solve fit theirs, and the solve is refused before its rows are built
    start = time.perf_counter()
    code = main(["group", "correspondence", "--cover", "z1450", "--base", "z2", "--coeff", "z2"])
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == ("error: Light's rows of d_1 of a group of order 1450 are a "
                            f"2900 x 1450 matrix: 4205000 {BUDGET}\n")


def _nontrivial_cocycle_file(tmp_path):
    values = [{"args": [p, q], "value": [1 if p == 1 and q == 1 else 0]}
              for p in range(2) for q in range(2)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"degree": 2, "group_order": 2,
                                "coefficient_orders": [2], "values": values}))
    return path


def test_group_extension_build_nontrivial(capsys, tmp_path):
    path = _nontrivial_cocycle_file(tmp_path)
    code, rep = run_json(capsys, "group", "extension", "build", "--group", "z2",
                         "--coeff", "z2", "--cocycle", str(path))
    assert code == EXIT_OK
    assert rep["result"]["carrier_order"] == 4
    assert rep["result"]["is_split"] is False
    assert str(path) in rep["inputs"]


def test_group_extension_build_rejects_noncocycle(capsys, tmp_path):
    values = [{"args": [p, q], "value": [1 if (p, q) == (0, 1) else 0]}
              for p in range(2) for q in range(2)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 2, "group_order": 2,
                                "coefficient_orders": [2], "values": values}))
    code, rep = run_json(capsys, "group", "extension", "build", "--group", "z2",
                         "--coeff", "z2", "--cocycle", str(path))
    assert code == EXIT_MATH
    assert len(rep["result"]["violating_triple"]) == 3


def _z2_cochain_file(path, values):
    path.write_text(json.dumps({
        "degree": 2, "group_order": 2, "coefficient_orders": [2],
        "values": [{"args": [p, q], "value": [values.get((p, q), 0)]}
                   for p in range(2) for q in range(2)]}))
    return str(path)


@pytest.mark.parametrize("subcommand", ["build", "split", "equiv", "equiv-second"])
def test_group_extension_noncocycle_exits_one_with_triple_and_digest(
        capsys, tmp_path, subcommand):
    # w(0, 1) = 1 alone breaks d w = 0 at (0, 0, 1):
    # w(0, 1) - w(0, 1) + w(0, 1) - w(0, 0) = 1
    bad = _z2_cochain_file(tmp_path / "bad.json", {(0, 1): 1})
    zero = _z2_cochain_file(tmp_path / "zero.json", {})
    files = {"build": ["--cocycle", bad], "split": ["--cocycle", bad],
             "equiv": ["--cocycle1", bad, "--cocycle2", zero],
             "equiv-second": ["--cocycle1", zero, "--cocycle2", bad]}[subcommand]
    code, rep = run_json(capsys, "group", "extension", subcommand.split("-")[0],
                         "--group", "z2", "--coeff", "z2", *files)
    assert code == EXIT_MATH
    assert rep["result"]["violating_triple"] == [0, 0, 1]
    paths = files[1::2]
    # files are read in order and the first non-cocycle stops the run
    for path in paths[:paths.index(bad) + 1]:
        with open(path, "rb") as fh:
            assert rep["inputs"][path] == hashlib.sha256(fh.read()).hexdigest()


def test_group_extension_split_and_equiv(capsys, tmp_path):
    w = _nontrivial_cocycle_file(tmp_path)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"degree": 2, "group_order": 2,
                                "coefficient_orders": [2],
                                "values": [{"args": [p, q], "value": [0]}
                                           for p in range(2) for q in range(2)]}))
    code, rep = run_json(capsys, "group", "extension", "split", "--group", "z2",
                         "--coeff", "z2", "--cocycle", str(zero))
    assert code == EXIT_OK and rep["result"]["is_split"] is True
    code, rep = run_json(capsys, "group", "extension", "split", "--group", "z2",
                         "--coeff", "z2", "--cocycle", str(w))
    assert code == EXIT_MATH and rep["result"]["is_split"] is False
    code, rep = run_json(capsys, "group", "extension", "equiv", "--group", "z2",
                         "--coeff", "z2", "--cocycle1", str(w), "--cocycle2", str(zero))
    assert code == EXIT_MATH and rep["result"]["equivalent"] is False


def _z2_cocycle_entries(extra):
    """The nontrivial z2 cocycle's value entries followed by `extra`."""
    return [{"args": [p, q], "value": [1 if p == 1 and q == 1 else 0]}
            for p in range(2) for q in range(2)] + extra


@pytest.mark.parametrize("extra, message", [
    ([{"args": [1, 1], "value": [0]}], "cochain JSON lists arguments (1, 1) more than once"),
    ([{"args": [5, 0], "value": [0]}],
     "cochain JSON arguments (5, 0) are not 2 elements of a group of order 2"),
    ([{"args": [0, 0, 0], "value": [0]}],
     "cochain JSON arguments (0, 0, 0) are not 2 elements of a group of order 2"),
])
def test_group_extension_refuses_ambiguous_cochain_entries(capsys, tmp_path, extra, message):
    # a repeated, out-of-range or wrong-arity entry was once dropped or let
    # overwrite the first, and the nontrivial cocycle then read as split
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"degree": 2, "group_order": 2, "coefficient_orders": [2],
                                "values": _z2_cocycle_entries(extra)}))
    code = main(["group", "extension", "split", "--group", "z2", "--coeff", "z2",
                 "--cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("value", [1, [1.0], [1.5], ["1"]])
def test_group_extension_refuses_a_cochain_value_that_is_no_integer_list(
        capsys, tmp_path, value):
    # a float coordinate once stayed a float residue, and d omega then held
    # NotImplemented (int.__rmod__ of a float), so a cocycle read as none
    entries = _z2_cocycle_entries([])
    entries[3]["value"] = value
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"degree": 2, "group_order": 2, "coefficient_orders": [2],
                                "values": entries}))
    code = main(["group", "extension", "split", "--group", "z2", "--coeff", "z2",
                 "--cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (f"error: {path}: cochain JSON value at arguments (1, 1) "
                            f"is not a list of integers\n")


@pytest.mark.parametrize("entry, field, bad, message", [
    (1, "args", [0, 1.0], "arguments (0, 1.0) are not 2 elements of a group of order 2"),
    (2, "args", [True, 0], "arguments (True, 0) are not 2 elements of a group of order 2"),
    (3, "value", [True], "value at arguments (1, 1) is not a list of integers"),
], ids=["float-arg", "bool-arg", "bool-value"])
def test_group_extension_refuses_a_float_or_bool_cochain_entry(
        capsys, tmp_path, entry, field, bad, message):
    # each once read as the integer it equals, and split then exited 1
    entries = _z2_cocycle_entries([])
    entries[entry][field] = bad
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"degree": 2, "group_order": 2, "coefficient_orders": [2],
                                "values": entries}))
    code = main(["group", "extension", "split", "--group", "z2", "--coeff", "z2",
                 "--cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {path}: cochain JSON {message}\n"


def _write_cochain(path, w):
    path.write_text(json.dumps(w.to_json()))
    return path.name


def _witness_argvs(tmp_path):
    """Three commands whose reports print the particular solution of
    d_1 phi = target that the solve picks: an equivalence witness between
    two cohomologous q8 cocycles (the carry cocycle of q8 -> q8/<i> plus
    two seeded coboundaries), a splitting section of a seeded s3
    coboundary, and the homomorphisms of a correspondence.  File names are
    relative to tmp_path, so the reports do not depend on it."""
    from cohomkit.grpcoh import Cochain, coboundary, coefficients_by_name, group_by_name

    rng = random.Random(24)
    q8, a = group_by_name("q8"), coefficients_by_name("z2xz2")
    pi = [x // 2 >= 2 for x in range(8)]  # 1 on the cosets of j and k
    carry = Cochain.from_function(q8, a, 2, lambda p, q: (1, 0) if pi[p] and pi[q] else (0, 0))
    w1, w2 = (_write_cochain(tmp_path / name, carry + coboundary(Cochain.random(q8, a, 1, rng)))
              for name in ("w1.json", "w2.json"))
    s3, z4 = group_by_name("s3"), coefficients_by_name("z4")
    d = _write_cochain(tmp_path / "d.json", coboundary(Cochain.random(s3, z4, 1, rng)))
    return [
        ["group", "extension", "equiv", "--group", "q8", "--coeff", "z2xz2",
         "--cocycle1", w1, "--cocycle2", w2],
        ["group", "extension", "split", "--group", "s3", "--coeff", "z4", "--cocycle", d],
        ["group", "correspondence", "--cover", "z8", "--base", "z4", "--coeff", "z2"],
    ]


_WITNESS_GOLDENS = [
    (EXIT_OK,
     '{"command": "group extension equiv --group q8 --coeff z2xz2 '
     '--cocycle1 w1.json --cocycle2 w2.json", "inputs": {'
     '"w1.json": "9675830517be62e32d5280a20fc985b774e05542ac6b1469b8fc1d7581ad0b0d", '
     '"w2.json": "8887371243a563e003858db6963ecbd576c7cdaab4e7e8bf79172beb8a7a9c9a"}'
     ', "result": {"equivalent": true, "witness": [[0, 1], [1, 0], [0, 1], [0, 0]'
     ', [0, 0], [0, 0], [1, 1], [0, 0]]}, "version": "0.1.0"}\n',
     ''),
    (EXIT_OK,
     '{"command": "group extension split --group s3 --coeff z4 --cocycle d.json"'
     ', "inputs": {"d.json": "a48ccc4580e3303568e2371f5778b3304569685f287c390fc83a673ac8d2c8db"}'
     ', "result": {"is_split": true, "splitting_section": [0, 19, 20, 21, 16, 5]}'
     ', "version": "0.1.0"}\n',
     ''),
    (EXIT_OK,
     '{"command": "group correspondence --cover z8 --base z4 --coeff z2"'
     ', "inputs": {}, "result": {"applicable": true, "base": "z4"'
     ', "class_to_hom": [{"class_index": 0, "cocycle_values": [[0], [0], [0], [0]'
     ', [0], [0], [0], [0], [0], [0], [0], [0], [0], [0], [0], [0]]'
     ', "hom_on_kernel": [[0], [0]]}, {"class_index": 1, "cocycle_values": [[0], [0]'
     ', [0], [0], [0], [0], [1], [0], [0], [1], [1], [0], [0], [0], [0], [1]]'
     ', "hom_on_kernel": [[0], [1]]}], "cover": "z8", "failing_class": null'
     ', "h1_S_order": 2, "h2_P_order": 2, "kernel_order": 2, "map_injective": true'
     ', "orders_match": true}, "version": "0.1.0"}\n',
     ''),
]


def test_golden_reports_pin_the_solved_witnesses(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = []
    for argv in _witness_argvs(tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert got == _WITNESS_GOLDENS


def test_group_correspondence(capsys):
    code, rep = run_json(capsys, "group", "correspondence", "--cover", "z4",
                         "--base", "z2", "--coeff", "z2")
    assert code == EXIT_OK
    assert rep["result"]["h1_S_order"] == 2
    assert rep["result"]["h2_P_order"] == 2
    assert rep["result"]["orders_match"] is True
    assert rep["result"]["applicable"] is True


@pytest.mark.parametrize("cover, base, kernel_order", [("z8", "z2", 4), ("z320", "z20", 16)])
def test_correspondence_kernel_order_is_the_order_of_ker_sigma(capsys, cover, base, kernel_order):
    # |ker sigma| = |cover| / |base|, not the order 2 of the coefficients
    code, rep = run_json(capsys, "group", "correspondence", "--cover", cover,
                         "--base", base, "--coeff", "z2")
    assert code == EXIT_OK
    assert rep["result"]["kernel_order"] == kernel_order
    assert rep["result"]["applicable"] is True


@pytest.mark.parametrize("coeff, h2_order", [("z4", 4), ("z6", 2)])
def test_group_correspondence_z8_over_z8_answers_fast(capsys, coeff, h2_order):
    start = time.perf_counter()
    code, rep = run_json(capsys, "group", "correspondence", "--cover", "z8",
                         "--base", "z8", "--coeff", coeff)
    assert time.perf_counter() - start < 5.0
    assert code in (EXIT_OK, EXIT_MATH)
    assert rep["result"]["h2_P_order"] == h2_order


# ---------------------------------------------------------------------------
# modular


def test_modular_tracial(capsys):
    code, rep = run_json(capsys, "modular", "analyze", "--example", "tracial",
                         "--seed", "7")
    assert code == EXIT_OK
    assert rep["result"]["delta_spectrum"] == [1.0, 1.0, 1.0, 1.0]


def test_modular_p_two_thirds(capsys):
    code, rep = run_json(capsys, "modular", "analyze", "--example", "p:2/3",
                         "--seed", "7")
    assert code == EXIT_OK
    assert rep["result"]["delta_spectrum"] == [0.5, 1.0, 1.0, 2.0]
    assert rep["result"]["flow_defect"] < 1e-10
    assert rep["result"]["kms_defect"] < 1e-10


@pytest.mark.parametrize("example", ["tracial", "p:2/3", "p:0.9"])
def test_modular_jmj_commutant_defect_is_roundoff(capsys, example):
    # J M J = M' holds exactly; what the report shows is the roundoff of the
    # commutant basis and of J
    code, rep = run_json(capsys, "modular", "analyze", "--example", example, "--seed", "7")
    assert code == EXIT_OK
    assert rep["result"]["jmj_commutant_defect"] <= 1e-15


def test_modular_product_state_refused(capsys):
    code, rep = run_json(capsys, "modular", "analyze", "--example", "product",
                         "--seed", "7")
    assert code == EXIT_MATH
    assert rep["result"]["separating"] is False
    assert "annihilating_element" in rep["result"]


@pytest.mark.parametrize("example, expected", [("p:2/3", EXIT_OK), ("product", EXIT_MATH)])
def test_modular_analyze_takes_one_svd(capsys, monkeypatch, example, expected):
    # cyclicity, the separating witness and S all come from one frame B
    import numpy as np

    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, _ = run_json(capsys, "modular", "analyze", "--example", example, "--seed", "7")
    assert code == expected
    assert len(calls) == 1


def test_modular_seed_required(capsys):
    with pytest.raises(SystemExit) as err:
        main(["modular", "analyze", "--example", "tracial"])
    assert err.value.code == EXIT_USAGE


def _qubit_factor_files(tmp_path):
    """An algebra file with sigma_x (x) 1 and sigma_z (x) 1 and a state file
    with the Schmidt state of p = 2/3."""
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]

    def kron4(m):
        out = [[[0, 0]] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    out[2 * i + k][2 * j + k] = m[i][j]
        return out

    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"generators": [kron4(x), kron4(z)]}))
    state = tmp_path / "state.json"
    p = 2 / 3
    state.write_text(json.dumps(
        {"vector": [[p ** 0.5, 0], [0, 0], [0, 0], [(1 - p) ** 0.5, 0]]}))
    return alg, state


def test_modular_from_files(capsys, tmp_path):
    alg, state = _qubit_factor_files(tmp_path)
    code, rep = run_json(capsys, "modular", "analyze", "--algebra", str(alg),
                         "--state", str(state), "--seed", "3")
    assert code == EXIT_OK
    assert rep["result"]["delta_spectrum"] == [0.5, 1.0, 1.0, 2.0]


def test_modular_identity_defect_is_a_math_failure(capsys, tmp_path, monkeypatch):
    from cohomkit import modular

    def fail(self, m):
        raise modular.IdentityDefect("J^2 = 1", 2e-6, 1e-12)

    monkeypatch.setattr(modular.ModularTriple, "validate", fail)
    alg, state = _qubit_factor_files(tmp_path)
    code, rep = run_json(capsys, "modular", "analyze", "--algebra", str(alg),
                         "--state", str(state), "--seed", "3")
    assert code == EXIT_MATH
    assert rep["inputs"] == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
                             for f in (alg, state)}
    assert rep["result"] == {
        "ambient_dim": 4, "algebra_dim": 4, "cyclic": True, "separating": True,
        "error": "J^2 = 1 fails: residual 2.000e-06 exceeds the bound 1.000e-12",
        "identity": "J^2 = 1", "residual": 2e-6, "bound": 1e-12}


# ---------------------------------------------------------------------------
# spacetime


def test_spacetime_boost_zero(capsys):
    code, rep = run_json(capsys, "spacetime", "boost", "--t", "0")
    assert code == EXIT_OK
    assert rep["result"]["is_identity"] is True


def test_spacetime_boost_generation(capsys):
    code, rep = run_json(capsys, "spacetime", "boost-generation")
    assert code == EXIT_OK
    assert rep["result"] == {"algebra_dim": 10, "closure_dim": 10,
                             "success": True, "wedge_count": 6, "wedges": "six"}


def test_spacetime_boost_generation_coordinate_only(capsys):
    code, rep = run_json(capsys, "spacetime", "boost-generation",
                         "--wedges", "coordinate-only")
    assert code == EXIT_MATH
    assert rep["result"]["closure_dim"] == 6
    assert rep["result"]["success"] is False


def test_spacetime_complement(capsys):
    code, rep = run_json(capsys, "spacetime", "complement")
    assert code == EXIT_OK
    assert rep["result"]["involution"] is True
    assert rep["result"]["boost_identity_defect"] < 1e-10


def test_json_decimals_are_read_as_written(capsys, tmp_path):
    # the x_1 x_2 rotation with cos = 3/5: 0.6 must mean 3/5, not its binary value
    results = []
    for name, (c, s) in (("dec", (0.6, 0.8)), ("frac", ("3/5", "4/5"))):
        minus_s = -s if isinstance(s, float) else "-" + s
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"lorentz": [[1, 0, 0, 0], [0, c, minus_s, 0],
                                                [0, s, c, 0], [0, 0, 0, 1]]}))
        code, rep = run_json(capsys, "spacetime", "complement", "--wedge", str(path))
        assert code == EXIT_OK
        results.append(rep["result"])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# malformed JSON inputs


_Z2_COCYCLE = {"degree": 2, "group_order": 2, "coefficient_orders": [2],
               "values": [{"args": [p, q], "value": [0]} for p in range(2) for q in range(2)]}
_STATE = {"vector": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]}
_ALGEBRA = {"generators": [[[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
                            [[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]]}
# sqrt(0.3) and sqrt(0.7) to six decimals: the norm misses 1 by 2.2e-7
_STATE_6_DECIMALS = {"vector": [[0.547723, 0], [0, 0], [0, 0], [0.836660, 0]]}
_EXT = ["group", "extension"]
_Z2Z2 = ["--group", "z2", "--coeff", "z2"]


@pytest.mark.parametrize("argv, flag, doc, good", [
    (["lie", "generate", "--algebra", "poincare4"], "--generators", {"generators": 5}, {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators", {"gens": []}, {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators", "{", {}),
    (["lie", "ideal", "--algebra", "poincare4"], "--element", {"element": 3}, {}),
    (_EXT + ["build"] + _Z2Z2, "--cocycle", {"degree": 2, "values": 7}, {}),
    (_EXT + ["split"] + _Z2Z2, "--cocycle", {"degree": 2, "values": 7}, {}),
    (_EXT + ["build"] + _Z2Z2, "--cocycle",
     dict(_Z2_COCYCLE, values=[{"args": [p, q], "value": [0] * (1 + p * q)}
                               for p in range(2) for q in range(2)]), {}),
    (_EXT + ["equiv"] + _Z2Z2, "--cocycle1", {"degree": 2, "values": 7},
     {"--cocycle2": _Z2_COCYCLE}),
    (["group", "correspondence", "--cover", "z4", "--base", "z2", "--coeff", "z2"],
     "--sigma", {"values": 4}, {}),
    (["group", "correspondence", "--cover", "z4", "--base", "z2", "--coeff", "z2"],
     "--sigma", {"values": [0, 1, 0, 7]}, {}),
    (["modular", "analyze", "--seed", "1"], "--algebra", {"generators": 5},
     {"--state": _STATE}),
    (["modular", "analyze", "--seed", "1"], "--state", {"vector": 5},
     {"--algebra": _ALGEBRA}),
    (["modular", "analyze", "--seed", "1"], "--state", {"vector": [[1, 0], [0, 0], [0, 0]]},
     {"--algebra": _ALGEBRA}),
    (["spacetime", "complement"], "--wedge", {"lorentz": 3}, {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators",
     '{"generators": [[Infinity, 0, 0, 0, 0, 0, 0, 0, 0, 0]]}', {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators",
     '{"generators": [[1e400, 0, 0, 0, 0, 0, 0, 0, 0, 0]]}', {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators",
     {"generators": [["1/0", 0, 0, 0, 0, 0, 0, 0, 0, 0]]}, {}),
    (["lie", "validate"], "--algebra",
     '{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": Infinity}}]}', {}),
    (["group", "h", "--coeff", "z2", "--degree", "1"], "--group",
     '{"table": [[0, 1], [1, Infinity]]}', {}),
    (_EXT + ["build"] + _Z2Z2, "--cocycle",
     json.dumps(_Z2_COCYCLE).replace('"value": [0]', '"value": [Infinity]', 1), {}),
    (["modular", "analyze", "--seed", "1"], "--algebra", {"generators": [[[[1, 0], [0, 0]]]]},
     {"--state": _STATE}),
    (["modular", "analyze", "--seed", "1"], "--state", _STATE_6_DECIMALS,
     {"--algebra": _ALGEBRA}),
    (["group", "h", "--coeff", "z2", "--degree", "2"], "--group", "[" * 100000, {}),
    (["lie", "generate", "--algebra", "poincare4"], "--generators", "[" * 100000, {}),
], ids=["generators-int", "generators-missing", "generators-syntax", "element-int",
        "build-values", "split-values", "value-length", "equiv-values", "sigma-int", "sigma-range",
        "modular-algebra", "modular-state", "modular-state-length", "wedge-int", "generators-infinity",
        "generators-overflow", "generators-zero-denominator", "algebra-infinity", "group-infinity",
        "cocycle-infinity", "algebra-non-square", "modular-state-norm", "group-deep",
        "generators-deep"])
def test_json_input_errors_name_file_and_exit_two(capsys, tmp_path, argv, flag, doc, good):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    extra = []
    for other, content in good.items():
        other_path = tmp_path / f"{other.strip('-')}.json"
        other_path.write_text(json.dumps(content))
        extra += [other, str(other_path)]
    code = main(argv + extra + [flag, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err


def test_state_length_error_gives_both_dimensions(capsys, tmp_path):
    algebra, state = tmp_path / "algebra.json", tmp_path / "state.json"
    algebra.write_text(json.dumps(_ALGEBRA))
    state.write_text(json.dumps({"vector": [[1, 0], [0, 0], [0, 0]]}))
    code = main(["modular", "analyze", "--seed", "1", "--algebra", str(algebra),
                 "--state", str(state)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {state}: the state has 3 entries, but the generators are 4x4\n")


def test_state_norm_error_gives_the_norm(capsys, tmp_path):
    algebra, state = tmp_path / "algebra.json", tmp_path / "state.json"
    algebra.write_text(json.dumps(_ALGEBRA))
    state.write_text(json.dumps(_STATE_6_DECIMALS))
    code = main(["modular", "analyze", "--seed", "1", "--algebra", str(algebra),
                 "--state", str(state)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {state}: state vector has norm 1.00000022")
    assert err.endswith(", not 1 to within 1e-12\n")


# ---------------------------------------------------------------------------
# report contract


def test_reports_byte_identical_across_runs(capsys):
    argv = ["modular", "analyze", "--example", "p:2/3", "--seed", "11"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["group", "h", "--group", "z2", "--degree", "2"])  # --coeff missing
    assert err.value.code == EXIT_USAGE


def test_text_format(capsys):
    code, out = run(capsys, "group", "h", "--group", "z2", "--coeff", "z2",
                    "--degree", "1", "--format", "text")
    assert code == EXIT_OK
    assert "invariant_factors" in out and "{" not in out.split("\n")[0]


H_Z2_ARGV = ("group", "h", "--group", "z2", "--coeff", "z2", "--degree", "2")


def test_timing_flag_before_or_after_subcommand(capsys):
    reports = []
    for argv in (("--timing",) + H_Z2_ARGV, H_Z2_ARGV + ("--timing",)):
        code, rep = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert rep.pop("elapsed_ms") >= 0
        rep.pop("command")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_format_flag_before_or_after_subcommand(capsys):
    outs = []
    for argv in (("--format", "text") + H_Z2_ARGV, H_Z2_ARGV + ("--format", "text")):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        assert not out.startswith("{")
        outs.append([line for line in out.splitlines() if not line.startswith("command:")])
    assert outs[0] == outs[1]
    assert "  invariant_factors: [2]" in outs[0]


def test_golden_report_group_h(capsys):
    # pins the report schema byte-for-byte
    code, out = run(capsys, "group", "h", "--group", "z2", "--coeff", "z2",
                    "--degree", "2")
    golden = (
        '{"command": "group h --group z2 --coeff z2 --degree 2", "inputs": {}, '
        '"result": {"coefficients": [2], "degree": 2, "group": "z2", '
        '"invariant_factors": [2], "order": 2, "trivial": false}, '
        '"version": "0.1.0"}'
    )
    assert out.strip() == golden


def test_golden_report_boost_generation(capsys):
    code, out = run(capsys, "spacetime", "boost-generation")
    golden = (
        '{"command": "spacetime boost-generation", "inputs": {}, '
        '"result": {"algebra_dim": 10, "closure_dim": 10, "success": true, '
        '"wedge_count": 6, "wedges": "six"}, "version": "0.1.0"}'
    )
    assert out.strip() == golden


# The exact path must run without sympy, and all of it but `spacetime
# complement` without numpy: a subprocess blocks the import (an entry of None
# in sys.modules makes `import sympy` fail) and replays these commands, whose
# reports are pinned byte-for-byte.
_NO_SYMPY_GOLDENS = [
    (["spacetime", "boost-generation", "--wedges", "six"], EXIT_OK,
     '{"command": "spacetime boost-generation --wedges six", "inputs": {}, '
     '"result": {"algebra_dim": 10, "closure_dim": 10, "success": true, '
     '"wedge_count": 6, "wedges": "six"}, "version": "0.1.0"}'),
    (["spacetime", "boost-generation", "--wedges", "coordinate-only"], EXIT_MATH,
     '{"command": "spacetime boost-generation --wedges coordinate-only", "inputs": {}, '
     '"result": {"algebra_dim": 10, "closure_dim": 6, "success": false, '
     '"wedge_count": 3, "wedges": "coordinate-only"}, "version": "0.1.0"}'),
    (["spacetime", "complement"], EXIT_OK,
     '{"command": "spacetime complement", "inputs": {}, "result": '
     '{"boost_identity_defect": 0.0, "complement_lorentz": [["1", "0", "0", "0"], '
     '["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "1"]], '
     '"complement_translation": ["0", "0", "0", "0"], "involution": true, '
     '"t_samples": [0.1, 0.5, 1.0]}, "version": "0.1.0"}'),
    (["lie", "cohomology", "--algebra", "poincare4", "--degree", "2"], EXIT_OK,
     '{"command": "lie cohomology --algebra poincare4 --degree 2", "inputs": {}, '
     '"result": {"algebra": "poincare(4)", "degree": 2, "dim_B": 10, "dim_H": 0, '
     '"dim_Z": 10}, "version": "0.1.0"}'),
    (["group", "h", "--group", "q8", "--coeff", "z4", "--degree", "2"], EXIT_OK,
     '{"command": "group h --group q8 --coeff z4 --degree 2", "inputs": {}, '
     '"result": {"coefficients": [4], "degree": 2, "group": "q8", '
     '"invariant_factors": [2, 2], "order": 4, "trivial": false}, '
     '"version": "0.1.0"}'),
]

# `spacetime complement` samples float boosts, which need numpy
_NO_NUMPY_GOLDENS = [g for g in _NO_SYMPY_GOLDENS if g[0][:2] != ["spacetime", "complement"]]

_BLOCKED_IMPORT_RUNNER = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None
from cohomkit.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue().strip()])
print(json.dumps(results))
"""


def _child_env():
    import cohomkit

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohomkit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_with_import_blocked(module, goldens):
    import subprocess
    import sys

    argvs = [argv for argv, _, _ in goldens]
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_IMPORT_RUNNER, module, json.dumps(argvs)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == [[code, out] for _, code, out in goldens]


def test_exact_path_runs_without_sympy():
    _run_with_import_blocked("sympy", _NO_SYMPY_GOLDENS)


def test_exact_path_runs_without_numpy():
    _run_with_import_blocked("numpy", _NO_NUMPY_GOLDENS)


def _packages_loaded_by_importing(package, names):
    """The modules of `package` in sys.modules after importing `names` in a
    fresh interpreter."""
    import subprocess
    import sys

    script = ("import importlib, sys\n"
              "for name in sys.argv[2:]:\n"
              "    importlib.import_module(name)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[1]))")
    proc = subprocess.run([sys.executable, "-c", script, package, *names],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_cohomkit_loads_no_sympy():
    import pkgutil

    import cohomkit

    names = ["cohomkit"] + [f"cohomkit.{m.name}" for m in pkgutil.iter_modules(cohomkit.__path__)]
    assert {"cohomkit.cli", "cohomkit.liealg", "cohomkit.spacetime"} <= set(names)
    assert _packages_loaded_by_importing("sympy", names) == "[]"


def test_importing_exact_modules_loads_no_numpy():
    names = [f"cohomkit.{m}" for m in ("cli", "exactmat", "liealg", "liecoh", "grpcoh",
                                        "ext", "spacetime")]
    assert _packages_loaded_by_importing("numpy", names) == "[]"


def test_group_extension_build_writes_reloadable_table(capsys, tmp_path):
    from cohomkit.ext import CentralExtensionTable

    w = _nontrivial_cocycle_file(tmp_path)
    out = tmp_path / "ext.json"
    code, rep = run_json(capsys, "group", "extension", "build", "--group", "z2",
                         "--coeff", "z2", "--cocycle", str(w), "--out", str(out))
    assert code == EXIT_OK
    reloaded = CentralExtensionTable.from_json(out.read_text())
    reloaded.validate()
    assert reloaded.to_json() == out.read_text()


def test_closed_stdout_exits_141_without_traceback():
    # the reader of the pipe is gone before the child writes its report
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cohomkit.cli", "group", "correspondence",
                               "--cover", "z8", "--base", "z4", "--coeff", "z2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_child_env(),
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == b""


def test_group_h_does_not_import_the_extension_module():
    import subprocess
    import sys

    script = ("import sys\n"
              "from cohomkit.cli import main\n"
              "main(sys.argv[1:])\n"
              "sys.exit(3 if 'cohomkit.ext' in sys.modules else 0)")
    h = ["group", "h", "--group", "q8", "--coeff", "z2", "--degree", "2"]
    cocycles = ["group", "cocycles", "--group", "s3", "--coeff", "z2", "--degree", "1"]
    correspondence = ["group", "correspondence", "--cover", "z4", "--base", "z2", "--coeff", "z2"]
    codes = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            env=_child_env(), timeout=120).returncode
             for argv in (h, cocycles, correspondence)]
    assert codes == [0, 0, 3]  # the last one needs ext and loads it
