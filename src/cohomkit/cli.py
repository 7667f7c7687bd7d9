"""Command-line front end.

Subcommands mirror the library layers:

    cohomkit lie        validate | perfect | cohomology | generate | ideal
    cohomkit group      h | cocycles | extension build/equiv/split | correspondence
    cohomkit modular    analyze
    cohomkit spacetime  boost | boost-generation | complement

Every command prints a report (JSON by default, `--format text` for humans)
and exits 0 on success, 1 on mathematical failure (validation defect, failed
generation, refusal), 2 on usage or parse errors.  Reports are deterministic
for fixed inputs and seed: timing is only included under `--timing`, and any
randomized computation requires an explicit `--seed`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from math import prod

from . import __version__

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout went away


class MathFailure(Exception):
    """Carries a payload describing a mathematically failed run."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "mathematical failure"))
        self.payload = payload


def _load(path: str, inputs: dict, parse):
    """parse(obj) for the JSON document at `path`, whose SHA-256 goes into
    `inputs`.  Every load error becomes a usage error (exit 2) naming the
    file and, if one is missing, the key."""
    import hashlib  # here, not at the top: most commands read no file

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        inputs[path] = hashlib.sha256(data).hexdigest()
        return parse(json.loads(data, parse_float=_finite, parse_constant=_finite))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except ZeroDivisionError as exc:
        raise ValueError(f"{path}: zero denominator in {exc}") from exc
    # what a missing, unparsable (JSONDecodeError is a ValueError) or
    # malformed input raises while it is read and parsed (an integer too
    # large for a float field is an OverflowError, a too deeply nested
    # document a RecursionError)
    except (OSError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _finite(text: str) -> float:
    """A JSON number as a float; Infinity, NaN and overflowing decimals
    such as 1e400 are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not accepted")
    return value


def _fractions(values):
    """Exact entries; a JSON decimal is read as written, so 0.6 is 3/5."""
    return [Fraction(str(v)) if isinstance(v, float) else Fraction(v) for v in values]


def _emit(args, payload: dict, inputs: dict[str, str], started: float,
          seed=None, failed: bool = False) -> int:
    report = {
        "command": args._command_echo,
        "inputs": inputs,
        "result": payload,
        "version": __version__,
    }
    if seed is not None:
        report["seed"] = seed
    if args.timing:
        report["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        _print_text(report)
    return EXIT_MATH if failed else EXIT_OK


def _print_text(report: dict, indent: int = 0) -> None:
    for key in sorted(report):
        value = report[key]
        pad = "  " * indent
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}: [{len(value)} entries]")
        else:
            print(f"{pad}{key}: {value}")


# ---------------------------------------------------------------------------
# lie


def _get_algebra(spec: str, inputs: dict):
    from . import liealg

    if os.path.exists(spec):
        g = _load(spec, inputs, lambda obj: liealg.algebra_from_json(
            obj, name=os.path.basename(spec), validate=False))
        g.validate()  # a StructureConstantError is lie validate's finding
        return g
    return liealg.builtin(spec)


def cmd_lie(args, inputs: dict[str, str]) -> tuple[dict, bool]:
    from . import liealg, liecoh

    failed = False
    if args.lie_cmd == "validate":
        from .liealg import StructureConstantError

        try:
            g = _get_algebra(args.algebra, inputs)
            payload = {
                "algebra": g.name,
                "dim": g.dim,
                "valid": True,
                "antisymmetry_defect": str(g.antisymmetry_defect()),
                "jacobi_defect": str(g.jacobi_defect()),
            }
        except StructureConstantError as exc:
            payload = {"valid": False, "error": str(exc),
                       "violating_indices": list(exc.triple)}
            failed = True
    elif args.lie_cmd == "perfect":
        g = _get_algebra(args.algebra, inputs)
        der = liealg.derived_subalgebra(g)
        payload = {"algebra": g.name, "dim": g.dim,
                   "derived_dim": der.dim, "perfect": der.dim == g.dim}
    elif args.lie_cmd == "cohomology":
        g = _get_algebra(args.algebra, inputs)
        payload = liecoh.cohomology_report(g, args.degree)
    elif args.lie_cmd == "generate":
        g = _get_algebra(args.algebra, inputs)
        gens = _load(args.generators, inputs, lambda obj: [
            g.element(_fractions(vec)) for vec in obj["generators"]])
        span = liealg.generated_subalgebra(g, gens)
        payload = {"algebra": g.name, "generator_count": len(gens),
                   "closure_dim": span.dim, "full": span.dim == g.dim}
    elif args.lie_cmd == "ideal":
        g = _get_algebra(args.algebra, inputs)
        x = _load(args.element, inputs, lambda obj: g.element(_fractions(obj["element"])))
        ideal = liealg.ideal_closure(g, x)
        payload = {"algebra": g.name, "ideal_dim": ideal.dim}
        if g.name.startswith("poincare"):
            trans = [g.by_label(l) for l in g.labels if l.startswith("P_")]
            payload["contains_translations"] = all(ideal.contains(t) for t in trans)
    else:  # pragma: no cover
        raise SystemExit(f"unknown lie subcommand {args.lie_cmd}")
    return payload, failed


# ---------------------------------------------------------------------------
# group


def _get_group(spec: str, inputs: dict):
    from . import grpcoh

    def parse(obj):
        group = grpcoh.FiniteGroup.from_table(obj["table"], obj.get("identity"),
                                              name=os.path.basename(spec))
        order = obj.get("order", group.order)
        if type(order) is not int or order != group.order:
            raise ValueError(f"'order' is {order!r}, but the table has {group.order} rows")
        return group

    if os.path.exists(spec):
        return _load(spec, inputs, parse)
    return grpcoh.group_by_name(spec)


def cmd_group(args, inputs: dict[str, str]) -> tuple[dict, bool]:
    from . import grpcoh

    failed = False
    if args.group_cmd == "h":
        P = _get_group(args.group, inputs)
        A = grpcoh.coefficients_by_name(args.coeff)
        factors = grpcoh.cohomology_group(P, A, args.degree)
        payload = {"group": P.name, "coefficients": list(A.orders),
                   "degree": args.degree, "invariant_factors": factors,
                   "order": prod(factors),
                   "trivial": not factors}
    elif args.group_cmd == "cocycles":
        P = _get_group(args.group, inputs)
        A = grpcoh.coefficients_by_name(args.coeff)
        space = grpcoh.cocycle_space(P, A, args.degree)
        payload = {"group": P.name, "coefficients": list(A.orders),
                   "degree": args.degree, "order": space.order,
                   "generator_orders": [o for _, o in space.generators],
                   "generators": [[list(v) for v in gen.values]
                                  for gen, _ in space.generators]}
    elif args.group_cmd == "extension":
        payload, failed = _cmd_group_extension(args, inputs)
    elif args.group_cmd == "correspondence":
        from . import ext

        E = _get_group(args.cover, inputs)
        P = _get_group(args.base, inputs)
        A = grpcoh.coefficients_by_name(args.coeff)
        sigma = _get_sigma(args, E, P, inputs)
        report = ext.h1_h2_correspondence_check(E, sigma, A)
        payload = report.to_json()
        failed = not report.applicable
    else:  # pragma: no cover
        raise SystemExit(f"unknown group subcommand {args.group_cmd}")
    return payload, failed


def _get_sigma(args, E, P, inputs):
    from .grpcoh import GroupHom, _check_indices

    if args.sigma == "canonical":
        if E.order % P.order:
            raise ValueError("canonical sigma needs |base| dividing |cover|")
        # canonical quotient for cyclic-style tables: x -> x mod |P|
        values = tuple(g % P.order for g in E.elements())
        hom = GroupHom(E, P, values)
        hom.validate()
        return hom

    def parse(obj):
        values = tuple(obj["values"])
        _check_indices(values, P.order, "'values' entry ")
        hom = GroupHom(E, P, values)
        hom.validate()
        return hom

    return _load(args.sigma, inputs, parse)


def _cmd_group_extension(args, inputs) -> tuple[dict, bool]:
    from . import ext, grpcoh

    P = _get_group(args.group, inputs)
    A = grpcoh.coefficients_by_name(args.coeff)

    def load_extension(path):
        omega = _load(path, inputs, lambda obj: grpcoh.Cochain.from_json(obj, P, A))
        try:
            return ext.build_extension(P, A, omega)
        except ext.NotACocycleError as exc:
            raise MathFailure({"error": str(exc), "violating_triple": list(exc.triple)})

    if args.ext_cmd == "build":
        built = load_extension(args.cocycle)
        split = ext.is_split(built)
        payload = {
            "base": P.name, "kernel": list(A.orders),
            "carrier_order": built.carrier.order,
            "carrier_table": [list(r) for r in built.carrier.table],
            "projection": list(built.projection.values),
            "is_split": split is not None,
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(built.to_json())
            payload["written"] = args.out
        return payload, False
    if args.ext_cmd == "equiv":
        e1 = load_extension(args.cocycle1)
        e2 = load_extension(args.cocycle2)
        phi = ext.are_equivalent(e1, e2)
        payload = {"equivalent": phi is not None}
        if phi is not None:
            payload["witness"] = [list(v) for v in phi.values]
        return payload, phi is None
    if args.ext_cmd == "split":
        built = load_extension(args.cocycle)
        hom = ext.is_split(built)
        payload = {"is_split": hom is not None}
        if hom is not None:
            payload["splitting_section"] = list(hom.values)
        return payload, hom is None
    raise SystemExit(f"unknown extension subcommand {args.ext_cmd}")


# ---------------------------------------------------------------------------
# modular


def _complex_matrix(entries):
    import numpy as np

    return np.array([[complex(re, im) for re, im in row] for row in entries])


def cmd_modular(args, inputs: dict[str, str]) -> tuple[dict, bool]:
    import numpy as np

    from . import modular

    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, not {args.samples}")
    if args.example:
        if args.example == "tracial":
            algebra = modular.qubit_factor()
            omega = modular.schmidt_state(0.5)
        elif args.example == "product":
            algebra = modular.qubit_factor()
            omega = modular.StateVector(np.array([1, 0, 0, 0], dtype=complex))
        elif args.example.startswith("p:"):
            try:
                p = Fraction(args.example[2:])
            except ZeroDivisionError:
                raise ValueError(f"--example {args.example} has a zero denominator") from None
            algebra = modular.qubit_factor()
            omega = modular.schmidt_state(float(p))
        else:
            raise ValueError(f"unknown --example {args.example}; "
                             "use tracial, product, or p:<value>")
    else:
        if not (args.algebra and args.state):
            raise ValueError("modular analyze needs --algebra and --state, or --example")
        algebra = _load(args.algebra, inputs, lambda obj: modular.algebra_closure(
            [_complex_matrix(m) for m in obj["generators"]]))

        def parse_state(obj):
            vector = [complex(re, im) for re, im in obj["vector"]]
            if len(vector) != algebra.dim:
                raise ValueError(f"the state has {len(vector)} entries, but the generators "
                                 f"are {algebra.dim}x{algebra.dim}")
            return modular.StateVector(np.array(vector))

        omega = _load(args.state, inputs, parse_state)

    frame = modular.Frame.of(algebra, omega)
    cyclic = frame.cyclic
    witness = frame.annihilator()
    payload = {
        "ambient_dim": algebra.dim,
        "algebra_dim": algebra.size,
        "cyclic": cyclic,
        "separating": witness is None,
    }
    if witness is not None or not cyclic:
        payload["error"] = "state is not cyclic and separating; no modular data"
        if witness is not None:
            payload["annihilating_element"] = [
                [[round(z.real, 12), round(z.imag, 12)] for z in row] for row in witness]
        raise MathFailure(payload)

    try:
        triple = modular.tomita(algebra, omega, frame=frame)
    except modular.IdentityDefect as exc:
        payload.update({"error": str(exc), "identity": exc.identity,
                        "residual": exc.residual, "bound": exc.bound})
        raise MathFailure(payload) from exc
    comm = modular.commutant(algebra)
    t_samples = [0.1, 0.5, 1.0, float(np.pi)]
    jmj_defect = max(np.max(comm.distance(triple.conjugate_by_j(algebra.basis))),
                     np.max(algebra.distance(triple.conjugate_by_j(comm.basis))))
    payload.update({
        "delta_spectrum": [round(float(v), 12) for v in np.sort(triple.eigenvalues)],
        "basis_conditioning": round(triple.basis_conditioning, 6),
        "flow_defect": float(modular.modular_flow_defect(triple, algebra, t_samples)),
        "kms_defect": float(modular.kms_defect(
            algebra, omega, samples=args.samples, seed=args.seed, triple=triple)),
        "jmj_commutant_defect": float(jmj_defect),
        "t_samples": t_samples,
        "samples": args.samples,
    })
    return payload, False


# ---------------------------------------------------------------------------
# spacetime


def _load_wedge(path, inputs):
    from . import spacetime

    return _load(path, inputs, lambda obj: spacetime.Wedge.from_frame(
        [_fractions(row) for row in obj["lorentz"]],
        _fractions(obj.get("translation", [0, 0, 0, 0]))))


def cmd_spacetime(args, inputs: dict[str, str]) -> tuple[dict, bool]:
    from . import spacetime

    failed = False
    if args.st_cmd == "boost":
        import numpy as np

        if not math.isfinite(args.t):
            raise ValueError(f"--t must be a finite number, not {args.t}")
        try:
            m = spacetime.boost_matrix(args.t)
        except ValueError as exc:
            raise ValueError(f"--t is out of range: {exc}") from None
        payload = {"t": args.t, "matrix": [[float(x) for x in row] for row in m],
                   "is_identity": bool(np.allclose(m, np.eye(4)))}
    elif args.st_cmd == "boost-generation":
        if args.wedges == "six":
            family = spacetime.six_wedge_family()
        else:
            family = spacetime.coordinate_wedge_family()
        payload = spacetime.boost_generation_check(family)
        payload["wedges"] = args.wedges
        failed = not payload["success"]
    elif args.st_cmd == "complement":
        wedge = _load_wedge(args.wedge, inputs) if args.wedge else spacetime.Wedge.standard()
        comp = spacetime.wedge_complement(wedge)
        ts = [0.1, 0.5, 1.0]
        defect = 0.0
        for t in ts:
            lhs = spacetime.wedge_boost(comp, t)
            rhs = spacetime.wedge_boost(wedge, -t)
            defect = max(defect, *(abs(float(a) - float(b)) for a, b in zip(
                sum(lhs.lorentz, lhs.translation), sum(rhs.lorentz, rhs.translation))))
        payload = {
            "complement_lorentz": [[str(x) for x in row] for row in comp.frame.lorentz],
            "complement_translation": [str(x) for x in comp.frame.translation],
            "boost_identity_defect": defect,
            "involution": spacetime.wedge_complement(comp) == wedge,
            "t_samples": ts,
        }
    else:  # pragma: no cover
        raise SystemExit(f"unknown spacetime subcommand {args.st_cmd}")
    return payload, failed


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomkit",
        description="group/Lie cohomology, central extensions, wedge boosts, "
                    "and finite-dimensional modular theory")
    # the leaf copies of the global flags default to SUPPRESS, so they never
    # overwrite a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    suppress = argparse.SUPPRESS
    for p, fmt, timing in ((parser, "json", False), (common, suppress, suppress)):
        p.add_argument("--format", choices=("json", "text"), default=fmt)
        p.add_argument("--timing", action="store_true", default=timing,
                       help="include elapsed time (breaks byte-identical output)")
    sub = parser.add_subparsers(dest="domain", required=True)

    lie = sub.add_parser("lie", help="Lie algebra computations")
    lie_sub = lie.add_subparsers(dest="lie_cmd", required=True)
    for name in ("validate", "perfect"):
        p = lie_sub.add_parser(name, parents=[common])
        p.add_argument("--algebra", required=True, help="builtin name or JSON file")
    p = lie_sub.add_parser("cohomology", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--degree", type=int, required=True)
    p = lie_sub.add_parser("generate", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--generators", required=True, help="JSON file with coefficient vectors")
    p = lie_sub.add_parser("ideal", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True, help="JSON file with one coefficient vector")

    grp = sub.add_parser("group", help="finite group cohomology and extensions")
    grp_sub = grp.add_subparsers(dest="group_cmd", required=True)
    p = grp_sub.add_parser("h", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--degree", type=int, required=True)
    p = grp_sub.add_parser("cocycles", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--degree", type=int, required=True)
    extp = grp_sub.add_parser("extension")
    ext_sub = extp.add_subparsers(dest="ext_cmd", required=True)
    p = ext_sub.add_parser("build", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--out")
    p = ext_sub.add_parser("equiv", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--cocycle1", required=True)
    p.add_argument("--cocycle2", required=True)
    p = ext_sub.add_parser("split", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--cocycle", required=True)
    p = grp_sub.add_parser("correspondence", parents=[common])
    p.add_argument("--cover", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--sigma", default="canonical",
                   help="'canonical' (x mod |base|) or a JSON hom table")

    mod = sub.add_parser("modular", help="modular objects of a matrix algebra")
    mod_sub = mod.add_subparsers(dest="mod_cmd", required=True)
    p = mod_sub.add_parser("analyze", parents=[common])
    p.add_argument("--algebra", help="JSON file with complex generator matrices")
    p.add_argument("--state", help="JSON file with a complex vector")
    p.add_argument("--example", help="tracial | product | p:<value>")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True,
                   help="seed for the randomized KMS sampling")

    st = sub.add_parser("spacetime", help="wedges and boosts")
    st_sub = st.add_subparsers(dest="st_cmd", required=True)
    p = st_sub.add_parser("boost", parents=[common])
    p.add_argument("--t", type=float, required=True)
    p = st_sub.add_parser("boost-generation", parents=[common])
    p.add_argument("--wedges", default="six", choices=("six", "coordinate-only"))
    p = st_sub.add_parser("complement", parents=[common])
    p.add_argument("--wedge", help="JSON wedge file (default: the standard wedge)")

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader gone early (`| head -c 300`) shows here
        return code
    except BrokenPipeError:  # no traceback, and no second failure at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    args._command_echo = " ".join(argv if argv is not None else sys.argv[1:])
    started = time.perf_counter()
    seed = getattr(args, "seed", None)
    # file digests, filled as inputs are read, so failure reports carry them too
    inputs: dict[str, str] = {}
    try:
        if args.domain == "lie":
            payload, failed = cmd_lie(args, inputs)
        elif args.domain == "group":
            payload, failed = cmd_group(args, inputs)
        elif args.domain == "modular":
            payload, failed = cmd_modular(args, inputs)
        elif args.domain == "spacetime":
            payload, failed = cmd_spacetime(args, inputs)
        else:  # pragma: no cover
            return EXIT_USAGE
    except MathFailure as exc:
        return _emit(args, exc.payload, inputs, started, seed=seed, failed=True)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(args, payload, inputs, started, seed=seed, failed=failed)


if __name__ == "__main__":
    sys.exit(main())
