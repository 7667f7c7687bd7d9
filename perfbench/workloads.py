"""The four workloads: seeded task lists with their expected answers.

A task is one call a desk user would make.  ``run`` is the timed call into
cohomkit; ``summarize`` turns its result into a small answer outside the
timing; ``expected`` comes from ``refs`` or from a fact that holds by
construction of the seeded input, never from the route under test.  The
task grid of each workload is fixed; the seed draws cochains, sections,
generators and states, so another seed changes the inputs but not the
number of tasks.

Layer calls go through module attributes (``grpcoh.cohomology_group``), so
the tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from math import gcd, prod
from typing import Any, Callable

import refs
import spans


@dataclass
class Task:
    id: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    expected: Any
    inputs: Any = None  # description of the seeded inputs, for the self-tests


@dataclass
class Context:
    root: Path
    seed: int
    traced: bool = False  # read by CLI tasks when they start their child

    @property
    def out_dir(self) -> Path:
        path = self.root / "perfbench" / "out"
        path.mkdir(parents=True, exist_ok=True)
        return path


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _random_values(rng: random.Random, count: int, orders) -> tuple:
    return tuple(tuple(rng.randrange(m) for m in orders) for _ in range(count))


def _add(x: tuple, y: tuple, orders) -> tuple:
    return tuple(tuple((a + b) % m for a, b, m in zip(u, v, orders)) for u, v in zip(x, y))


def _neg(x: tuple, orders) -> tuple:
    return tuple(tuple(-a % m for a, m in zip(u, orders)) for u in x)


# ---------------------------------------------------------------------------
# group-cohomology

GC_GROUPS = ("z2", "z4", "z6", "z8", "klein4", "s3", "q8", "a4")
GC_MODULI = (2, 3, 4, 6)
GC_COCYCLE_SPACES = (("z8", (2,)), ("z8", (4,)), ("z8", (2, 2)),
                     ("q8", (2,)), ("q8", (4,)), ("q8", (2, 2)))


def group_cohomology(ctx: Context) -> list[Task]:
    from cohomkit import grpcoh

    rng = random.Random(ctx.seed)
    groups = {name: grpcoh.group_by_name(name) for name in GC_GROUPS}
    tasks = []
    for name in GC_GROUPS:
        P = groups[name]
        for m in GC_MODULI:
            A = grpcoh.AbelianCoefficients.of(m)
            for n in (1, 2):
                tasks.append(Task(
                    f"h{n}:{name}:z{m}",
                    lambda P=P, A=A, n=n: grpcoh.cohomology_group(P, A, n),
                    refs.primary,
                    refs.uct(name, m, n)))

    for name, orders in GC_COCYCLE_SPACES:
        P = groups[name]
        A = grpcoh.AbelianCoefficients(orders)
        weights = [rng.randrange(1 << 16) for _ in range(64)]

        def combo_is_cocycle(space, P=P, orders=orders, weights=weights):
            # a seeded combination of the generators, checked with refs' d
            vals = tuple((0,) * len(orders) for _ in range(P.order ** 2))
            for (gen, _), w in zip(space.generators, weights):
                vals = _add(vals, tuple(tuple(w * x for x in v) for v in gen.values), orders)
            zero = (0,) * len(orders)
            return all(v == zero for v in refs.coboundary_values(P.table, vals, 2, orders))

        tasks.append(Task(
            f"z2:{name}:{'x'.join(map(str, orders))}",
            lambda P=P, A=A: grpcoh.cocycle_space(P, A, 2),
            lambda s, f=combo_is_cocycle: (s.order, f(s)),
            (refs.cocycle_count(name, P.order, orders), True),
            inputs=weights))

    for name in GC_GROUPS:
        P = groups[name]
        for degree, orders in ((1, (4,)), (2, (2, 2))):
            A = grpcoh.AbelianCoefficients(orders)
            vals = _random_values(rng, P.order ** degree, orders)
            f = grpcoh.Cochain(P, A, degree, vals)
            tasks.append(Task(
                f"d{degree}:{name}",
                lambda f=f: grpcoh.coboundary(f),
                lambda c: digest(c.values),
                digest(refs.coboundary_values(P.table, vals, degree, orders)),
                inputs=vals))
    return tasks


# ---------------------------------------------------------------------------
# extensions

EXT_GROUPS = ("z2", "z4", "klein4", "s3", "z8", "q8")
EXT_COEFFS = ((2,), (4,), (2, 2))
EXT_DRAWS = 3
# cyclic quotient orders with a split surjection, for nontrivial classes
EXT_QUOTIENT = {"z2": 2, "z4": 4, "z8": 8, "klein4": 2, "s3": 2}
EXT_COVERS = ((4, 2), (8, 4), (8, 2))


def _split_quotient(P, n: int) -> tuple[int, ...]:
    """A surjective homomorphism P -> Z_n with a section, as a value table."""
    if P.table == tuple(tuple((i + j) % n for j in range(n)) for i in range(n)):
        return tuple(range(n))
    if n != 2:
        raise ValueError("only cyclic groups or Z_2 quotients are searched")
    for bits in range(1, 2 ** P.order):
        pi = tuple((bits >> g) & 1 for g in range(P.order))
        if pi[P.identity] or not all(pi[P.table[a][b]] == (pi[a] + pi[b]) % 2
                                     for a in range(P.order) for b in range(P.order)):
            continue
        # a section exists when some t with pi(t) = 1 has order 2
        if any(pi[t] and P.table[t][t] == P.identity for t in range(P.order)):
            return pi
    raise ValueError("no split surjection onto Z_2")


def _carry(pi, n: int, a: tuple, orders) -> tuple:
    """a * carry(pi g, pi h): the pullback along pi of the standard class
    of H^2(Z_n, A)."""
    zero = (0,) * len(orders)
    return tuple(a if x + y >= n else zero for x in pi for y in pi)


def _decode(index: int, orders) -> tuple:
    """The element of A with mixed-radix index ``index`` (carrier encoding)."""
    out = []
    for m in reversed(orders):
        index, r = divmod(index, m)
        out.append(r)
    return tuple(reversed(out))


def _is_trivial_class(a: tuple, n: int, orders) -> bool:
    """a lies in nA, i.e. the class of a * carry in H^2(Z_n, A) = A / nA is 0."""
    return all(x % gcd(n, m) == 0 for x, m in zip(a, orders))


def extensions(ctx: Context) -> list[Task]:
    from cohomkit import ext, grpcoh

    rng = random.Random(ctx.seed)
    tasks = []
    for name in EXT_GROUPS:
        P = grpcoh.group_by_name(name)
        N = P.order
        p_abelian = refs.is_abelian_table(P.table)
        n = EXT_QUOTIENT.get(name)
        pi = _split_quotient(P, n) if n else None
        for orders in EXT_COEFFS:
            A = grpcoh.AbelianCoefficients(orders)
            size = A.size
            for draw in range(EXT_DRAWS):
                tag = f"{name}:{'x'.join(map(str, orders))}:{draw}"
                phi = _random_values(rng, N, orders)
                dphi = refs.coboundary_values(P.table, phi, 1, orders)
                # the grid fixes which draws are nontrivial; the seed draws
                # the class within that kind, phi, psi and the section
                if pi is not None and draw % 2 == 1:
                    while True:
                        a = tuple(rng.randrange(m) for m in orders)
                        if not _is_trivial_class(a, n, orders):
                            break
                    trivial = False
                    vals = _add(_carry(pi, n, a, orders), dphi, orders)
                else:
                    trivial = True
                    vals = dphi
                omega = grpcoh.Cochain(P, A, 2, vals)
                symmetric = all(vals[g * N + h] == vals[h * N + g]
                                for g in range(N) for h in range(N))

                tasks.append(Task(
                    f"build:{tag}",
                    lambda P=P, A=A, w=omega: ext.build_extension(P, A, w),
                    lambda E: (E.carrier.order, refs.is_abelian_table(E.carrier.table)),
                    (size * N, p_abelian and symmetric),
                    inputs=vals))

                section_seed = rng.randrange(1 << 31)

                def section_round_trip(P=P, A=A, w=omega, s=section_seed):
                    E = ext.build_extension(P, A, w)
                    sec = ext.extract_section(E, "random", seed=s)
                    return ext.cocycle_of_section(E, sec).values, sec.values

                def section_matches(result, vals=vals, P=P, orders=orders):
                    # omega' = omega - d c for the section's A-coordinate c
                    got, sec = result
                    c = tuple(_decode(v // P.order, orders) for v in sec)
                    dc = refs.coboundary_values(P.table, c, 1, orders)
                    return got == _add(vals, _neg(dc, orders), orders)

                tasks.append(Task(f"section:{tag}", section_round_trip, section_matches,
                                  True, inputs=section_seed))

                psi = _random_values(rng, N, orders)
                dpsi = refs.coboundary_values(P.table, psi, 1, orders)
                shifted = grpcoh.Cochain(P, A, 2, _add(vals, dpsi, orders))

                def witness_ok(phi_w, dpsi=dpsi, P=P, orders=orders):
                    # omega - (omega + d psi) = d phi_w
                    if phi_w is None:
                        return False
                    dw = refs.coboundary_values(P.table, phi_w.values, 1, orders)
                    return dw == _neg(dpsi, orders)

                tasks.append(Task(
                    f"equiv:{tag}",
                    lambda P=P, A=A, w=omega, v=shifted: ext.are_equivalent(
                        ext.build_extension(P, A, w), ext.build_extension(P, A, v)),
                    witness_ok, True, inputs=psi))

                if pi is not None:
                    while True:
                        b = tuple(rng.randrange(m) for m in orders)
                        if not _is_trivial_class(b, n, orders):
                            break
                    other = grpcoh.Cochain(P, A, 2, _add(vals, _carry(pi, n, b, orders), orders))
                    tasks.append(Task(
                        f"inequiv:{tag}",
                        lambda P=P, A=A, w=omega, v=other: ext.are_equivalent(
                            ext.build_extension(P, A, w), ext.build_extension(P, A, v)),
                        lambda r: r is not None, False, inputs=b))

                tasks.append(Task(
                    f"split:{tag}",
                    lambda P=P, A=A, w=omega: ext.is_split(ext.build_extension(P, A, w)),
                    lambda hom: hom is not None, trivial))

    for big, small in EXT_COVERS:
        E = grpcoh.group_by_name(f"z{big}")
        P = grpcoh.group_by_name(f"z{small}")
        sigma = grpcoh.GroupHom(E, P, tuple(x % small for x in range(big)))
        for orders in EXT_COEFFS:
            A = grpcoh.AbelianCoefficients(orders)
            # S = ker sigma ~ Z_{big/small}; H^2(Z_n, A) = A / nA; inflation to
            # Z_big multiplies by big/small, so every class dies iff
            # gcd(big, m) = gcd(big/small, m) on each factor
            h1 = prod(gcd(big // small, m) for m in orders)
            h2 = prod(gcd(small, m) for m in orders)
            applicable = all(gcd(big, m) == gcd(big // small, m) for m in orders)
            tasks.append(Task(
                f"corr:z{big}->z{small}:{'x'.join(map(str, orders))}",
                lambda E=E, s=sigma, A=A: ext.h1_h2_correspondence_check(E, s, A),
                lambda r: (r.h1_order, r.h2_order, r.applicable,
                           r.injective if r.applicable else None, len(r.class_to_hom)),
                (h1, h2, applicable, True if applicable else None, h2 if applicable else 0)))
    return tasks


# ---------------------------------------------------------------------------
# lie-modular

LIE_COHOMOLOGY = (("poincare4", "poincare(4)"), ("poincare3", "poincare(3)"),
                  ("lorentz4", "lorentz(4)"), ("sl2", "sl2"), ("heisenberg", "heisenberg"),
                  ("abelian4", "abelian(4)"))
MODULAR_SIZES = (2, 3, 4, 5)
LIE_GENERATE_DRAWS = 6
LIE_IDEAL_DRAWS = 4
MODULAR_TOL = 1e-7


def _factor_algebra(modular, k: int):
    """M_k x 1 on C^k x C^k from its trace-orthonormal matrix units."""
    import numpy as np

    eye = np.eye(k)
    units = []
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = 1.0
            units.append(np.kron(e, eye))
    return units, modular.MatrixAlgebra(k * k, np.stack(units) / np.sqrt(k))


def _faithful_state(rng, k: int):
    """sum_i sqrt(l_i) u_i x v_i with random unitaries and l_i bounded away from 0."""
    import numpy as np

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        return q
    lam = 0.5 + rng.random(k)
    lam /= lam.sum()
    u, v = unitary(), unitary()
    psi = sum(np.sqrt(lam[i]) * np.kron(u[:, i], v[:, i]) for i in range(k))
    return psi / np.linalg.norm(psi)


def lie_modular(ctx: Context) -> list[Task]:
    import numpy as np
    from cohomkit import liealg, liecoh, modular, spacetime

    rng = random.Random(ctx.seed)
    nrng = np.random.default_rng(ctx.seed)
    tasks = []
    for key, spec in LIE_COHOMOLOGY:
        g = liealg.builtin(spec)
        betti = refs.BETTI[key]
        if key.startswith("poincare") and not refs.poincare_duality_holds(betti):
            raise AssertionError(f"reference Betti numbers of {key} break duality")
        if key == "poincare4" and betti[2] != 0:
            raise AssertionError("reference H^2(poincare4) must vanish")
        for k in range(g.dim + 1):
            tasks.append(Task(
                f"lie-h:{key}:{k}",
                lambda g=g, k=k: liecoh.cohomology_report(g, k),
                lambda r: r["dim_H"], betti[k]))

    p4 = liealg.builtin("poincare(4)")
    lorentz = [i for i, lab in enumerate(p4.labels) if lab.startswith("J")]
    trans = [i for i, lab in enumerate(p4.labels) if lab.startswith("P")]
    for draw in range(LIE_GENERATE_DRAWS):
        family = ("generic", "lorentz", "translations")[draw % 3]
        support = {"generic": range(p4.dim), "lorentz": lorentz, "translations": trans}[family]
        gens = []
        for _ in range(2 + draw % 2):
            vec = [0] * p4.dim
            while not any(vec):
                for i in support:
                    vec[i] = rng.randint(-3, 3)
            gens.append(vec)
        elems = [p4.element(v) for v in gens]
        tasks.append(Task(
            f"generate:{family}:{draw}",
            lambda e=elems: liealg.generated_subalgebra(p4, e),
            lambda s: s.dim, refs.float_closure_dim(p4.constants, gens), inputs=gens))
    for draw in range(LIE_IDEAL_DRAWS):
        pure_translation = draw % 2 == 0
        vec = [0] * p4.dim
        while not any(vec[i] for i in (trans if pure_translation else lorentz)):
            for i in trans:
                vec[i] = rng.randint(-3, 3)
            if not pure_translation:
                for i in lorentz:
                    vec[i] = rng.randint(-3, 3)
        # translations form the ideal a nonzero translation generates; any
        # Lorentz part generates everything (so(1,3) is simple and acts
        # irreducibly on R^4)
        tasks.append(Task(
            f"ideal:{'translation' if pure_translation else 'mixed'}:{draw}",
            lambda x=p4.element(vec): liealg.ideal_closure(p4, x),
            lambda s: s.dim, 4 if pure_translation else 10, inputs=vec))
    for family, expected in (("six", (10, True)), ("coordinate", (6, False))):
        wedges = (spacetime.six_wedge_family if family == "six"
                  else spacetime.coordinate_wedge_family)()
        tasks.append(Task(
            f"boost-generation:{family}",
            lambda w=wedges: spacetime.boost_generation_check(w),
            lambda r: (r["closure_dim"], r["success"]), expected))

    t_samples = [0.1, 0.5, 1.0, float(np.pi)]
    for k in MODULAR_SIZES:
        units, M = _factor_algebra(modular, k)
        state = _faithful_state(nrng, k)
        omega = modular.StateVector(state)
        spectrum = refs.delta_spectrum(state, k)
        kms_seed = rng.randrange(1 << 31)

        def commutes(C, units=units):
            return all(np.linalg.norm(b @ u - u @ b) < MODULAR_TOL for b in C.basis for u in units)

        tasks += [
            Task(f"closure:M{k}", lambda u=units: modular.algebra_closure(u),
                 lambda A: A.size, k * k),
            Task(f"commutant:M{k}", lambda M=M: modular.commutant(M),
                 lambda C, f=commutes: (C.size, f(C)), (k * k, True)),
            Task(f"tomita:M{k}", lambda M=M, w=omega: modular.tomita(M, w),
                 lambda t, s=spectrum: bool(np.allclose(np.sort(t.eigenvalues), s,
                                                        rtol=MODULAR_TOL, atol=MODULAR_TOL)),
                 True, inputs=state),
            Task(f"flow:M{k}",
                 lambda M=M, w=omega: modular.modular_flow_defect(modular.tomita(M, w), M, t_samples),
                 lambda d: d <= MODULAR_TOL, True),
            Task(f"kms:M{k}",
                 lambda M=M, w=omega, s=kms_seed: modular.kms_defect(M, w, samples=20, seed=s),
                 lambda d: d <= MODULAR_TOL, True, inputs=kms_seed),
            Task(f"separating:M{k}", lambda M=M, w=omega: modular.is_separating(M, w),
                 bool, True),
        ]

    # control: a vector state with a zero coordinate annihilates that
    # diagonal matrix unit, so the diagonal algebra must be refused
    d = 4
    D = modular.diagonal_algebra(d)
    state = nrng.standard_normal(d) + 1j * nrng.standard_normal(d)
    state[rng.randrange(d)] = 0
    bad = modular.StateVector.normalized(state)

    def refused(M=D, w=bad):
        try:
            modular.tomita(M, w)
        except ValueError:
            return "refused"
        return "accepted"

    tasks += [
        Task("control:tomita", refused, str, "refused", inputs=state),
        Task("control:separating", lambda: modular.is_separating(D, bad), bool, False),
    ]
    return tasks


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class CliResult:
    code: int
    report: dict | None
    wall_s: float
    rss_kb: int
    trace: dict | None = None
    imports: dict = field(default_factory=dict)


def parse_importtime(lines) -> dict:
    """Seconds spent importing cohomkit (top-level cohomkit entries, nested
    imports included), numpy and sympy, from ``-X importtime`` lines.
    ``cohomkit_lazy`` is the part the CLI imports inside a command (the
    layer modules), which its elapsed_ms also covers."""
    out = {"cohomkit": 0.0, "cohomkit_lazy": 0.0, "numpy": 0.0, "sympy": 0.0}
    for line in lines:
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        cumulative, name_field = parts[1], parts[2]
        name = name_field.strip()
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        try:
            seconds = int(cumulative) / 1e6
        except ValueError:  # the header line
            continue
        if name.startswith("cohomkit") and level == 0:
            out["cohomkit"] += seconds
            if name.startswith("cohomkit."):
                out["cohomkit_lazy"] += seconds
        elif name in ("numpy", "sympy"):
            out[name] += seconds
    return out


def run_child(ctx: Context, argv: list[str], env: dict) -> CliResult:
    """One fresh CLI process, waited for with its own resource usage."""
    if ctx.traced:
        cmd = [sys.executable, "-X", "importtime",
               str(ctx.root / "perfbench" / "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "cohomkit.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report, trace, lines = None, None, output.splitlines()
    for line in lines:
        if line.startswith("{"):
            report = json.loads(line)
        elif line.startswith(spans.TRACE_MARK):
            trace = json.loads(line[len(spans.TRACE_MARK):])
    imports = parse_importtime(lines) if ctx.traced else {}
    return CliResult(proc.returncode, report, wall, usage.ru_maxrss, trace, imports)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_cold(ctx: Context) -> list[Task]:
    rng = random.Random(ctx.seed)
    env = child_env(ctx.root)

    # a seeded cocycle on Z_8 with values in Z_4, in the CLI's cochain format
    n, orders = 8, (4,)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    phi = _random_values(rng, n, orders)
    vals = refs.coboundary_values(table, phi, 1, orders)
    a = (rng.randrange(1, 4),)  # every nonzero class of H^2(Z_8, Z_4) = Z_4
    trivial = _is_trivial_class(a, n, orders)
    vals = _add(_carry(tuple(range(n)), n, a, orders), vals, orders)
    cocycle = {"degree": 2, "group_order": n, "coefficient_orders": list(orders),
               "values": [{"args": [g, h], "value": list(vals[g * n + h])}
                          for g in range(n) for h in range(n)]}
    cocycle_path = ctx.out_dir / f"cli-cocycle-{ctx.seed}.json"
    cocycle_path.write_text(json.dumps(cocycle))
    cocycle_arg = os.path.relpath(cocycle_path, ctx.root)

    def spectrum_ok(r):  # p = 2/3: ratios of (2/3, 1/3)
        got = sorted(r["delta_spectrum"])
        return len(got) == 4 and all(abs(x - y) < 1e-9 for x, y in zip(got, (0.5, 1, 1, 2)))

    commands = [
        ("lie-h2-poincare4", ["lie", "cohomology", "--algebra", "poincare4", "--degree", "2"],
         lambda r: r["dim_H"], refs.BETTI["poincare4"][2]),
        ("lie-h3-poincare4", ["lie", "cohomology", "--algebra", "poincare4", "--degree", "3"],
         lambda r: r["dim_H"], refs.BETTI["poincare4"][3]),
        ("group-h-q8-z4", ["group", "h", "--group", "q8", "--coeff", "z4", "--degree", "2"],
         lambda r: refs.primary(r["invariant_factors"]), refs.uct("q8", 4, 2)),
        ("group-h-a4-z2", ["group", "h", "--group", "a4", "--coeff", "z2", "--degree", "2"],
         lambda r: refs.primary(r["invariant_factors"]), refs.uct("a4", 2, 2)),
        ("group-cocycles-q8-z4", ["group", "cocycles", "--group", "q8", "--coeff", "z4",
                                  "--degree", "2"],
         lambda r: r["order"], refs.cocycle_count("q8", 8, (4,))),
        ("modular-analyze", ["modular", "analyze", "--example", "p:2/3", "--seed", "7"],
         lambda r: (r["cyclic"], r["separating"], spectrum_ok(r)), (True, True, True)),
        ("spacetime-boost-generation", ["spacetime", "boost-generation"],
         lambda r: (r["closure_dim"], r["success"]), (10, True)),
        ("spacetime-complement", ["spacetime", "complement"],
         lambda r: (r["involution"], r["boost_identity_defect"] < 1e-9), (True, True)),
        ("group-extension-build", ["group", "extension", "build", "--group", "z8",
                                   "--coeff", "z4", "--cocycle", cocycle_arg],
         lambda r: (r["carrier_order"], r["is_split"]), (32, trivial)),
    ]

    def summarize(res: CliResult, facts):
        # --timing sits after the leaf subcommand; a report without
        # elapsed_ms means the flag was dropped, which counts as a failure
        if res.code != 0 or res.report is None:
            return ("exit", res.code)
        if "elapsed_ms" not in res.report:
            return ("missing elapsed_ms",)
        return facts(res.report["result"])

    return [Task(name, lambda argv=argv: run_child(ctx, argv + ["--timing"], env),
                 lambda res, f=facts: summarize(res, f), expected,
                 inputs=vals if name == "group-extension-build" else None)
            for name, argv, facts, expected in commands]


WORKLOADS = {
    "group-cohomology": group_cohomology,
    "extensions": extensions,
    "lie-modular": lie_modular,
    "cli-cold": cli_cold,
}
