"""Acceptance criteria, one test per criterion, each printing a status line.

Every comparison is exact (scalars in Q(sqrt(q)), integers, sets); there
are no tolerances anywhere.
"""

import json
import time

import pytest

from hallalg import ClassTable, DoubleHall, GroundField
from hallalg.cli import parse_config, run_command
from hallalg.hallhopf import AlgElt
from hallalg.primitives import extend_datum, primitive_space
from hallalg.verify import (
    SUITES,
    suite_character,
    suite_composition,
    suite_kac,
    suite_sv,
)

from conftest import CONFIGS, a2, jordan, kronecker

QUIVERS = {"a2": a2(), "jordan": jordan(), "kronecker": kronecker()}
BOUNDS = {"a2": (2, 2), "jordan": (4,), "kronecker": (2, 2)}

_tables = {}


def table(name, q, bound=None):
    bound = BOUNDS[name] if bound is None else bound
    key = (name, q, bound)
    if key not in _tables:
        _tables[key] = ClassTable(QUIVERS[name], GroundField(q), bound)
    return _tables[key]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _suite_ok(report):
    return report.overall == "pass", [
        (c.name, c.witness) for c in report.checks if c.status == "fail"
    ][:3]


def _suite_result(suite, name, q, cli_json):
    """_suite_ok of one suite on table(name, q).

    configs/kronecker.cfg is table("kronecker", 2), so its suites are read
    from the `verify --suite all` report that test_golden also pins.
    """
    if (name, q) != ("kronecker", 2):
        return _suite_ok(SUITES[suite](table(name, q)))
    config = parse_config((CONFIGS / "kronecker.cfg").read_text())
    assert (config.arrows, config.q, config.bound) == (QUIVERS[name].arrows, q, BOUNDS[name])
    _, out = cli_json("kronecker", ["verify", "--suite", "all"])
    report = next(r for r in json.loads(out) if r["suite"] == suite)
    return report["overall"] == "pass", [
        (c["name"], c["witness"]) for c in report["checks"] if c["status"] == "fail"
    ][:3]


def test_criterion_1_kac_theorem():
    t0 = time.time()
    ok = True
    details = []
    for name, q, height in (("a2", 2, 2), ("jordan", 2, 4), ("kronecker", 2, 4)):
        bound = (height,) * QUIVERS[name].vertices
        rep = suite_kac(table(name, q, bound), height)
        good, wit = _suite_ok(rep)
        ok = ok and good
        if not good:
            details.append(f"{name}: {wit}")
    if table("kronecker", 2, (4, 4)).indec_count((1, 1)) != 3:
        ok = False
        details.append("I((1,1),2) != 3")
    elapsed = time.time() - t0
    if elapsed >= 60:
        ok = False
        details.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(1, "kac-theorem", ok, f"{elapsed:.1f}s " + "; ".join(details))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2", "jordan", "kronecker"])
def test_criterion_2_hopf(name, q, cli_json):
    good, wit = _suite_result("hopf", name, q, cli_json)
    _report(2, f"hopf[{name},q={q}]", good, str(wit) if not good else "")


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2", "jordan", "kronecker"])
def test_criterion_3_pairing(name, q, cli_json):
    good, wit = _suite_result("pairing", name, q, cli_json)
    _report(3, f"pairing[{name},q={q}]", good, str(wit) if not good else "")


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2", "jordan", "kronecker"])
def test_criterion_4_commutators(name, q):
    t = table(name, q)
    H = DoubleHall(t)
    ok = True
    simples = t.simple_ids()
    for i, si in enumerate(simples):
        for sj in simples:
            lhs = H.mult(H.u_plus(si), H.u_minus(sj)) - H.mult(
                H.u_minus(sj), H.u_plus(si)
            )
            ei = t.quiver.unit_dim(i)
            rhs = (H.torus(ei) - H.torus(tuple(-x for x in ei))).scaled(
                -H.phi(H.u_plus(si), H.u_minus(sj))
            )
            ok = ok and lhs == rhs
    # generalization to every computed pair of primitive generators
    ext = extend_datum(H)
    for theta, _, _, lsp in ext.records:
        kt = H.torus(theta)
        kn = H.torus(tuple(-x for x in theta))
        for x in lsp.basis:
            for xp in lsp.basis:
                y = H.omega(xp)
                lhs = H.mult(x, y) - H.mult(y, x)
                rhs = (kt - kn).scaled(-H.phi(x, y))
                ok = ok and lhs == rhs
    _report(4, f"commutators[{name},q={q}]", ok)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2", "jordan", "kronecker"])
def test_criterion_5_composition(name, q):
    good, wit = _suite_ok(suite_composition(table(name, q)))
    _report(5, f"composition[{name},q={q}]", good, str(wit) if not good else "")


@pytest.mark.parametrize("q", [2, 3])
def test_criterion_5_kronecker_serre_in_bound(q):
    rep = suite_composition(table("kronecker", q, (3, 1)))
    good, wit = _suite_ok(rep)
    ran = any(c.name == "serre-E[0;1]" and c.status == "pass" for c in rep.checks)
    _report(5, f"composition-serre[kronecker,q={q}]", good and ran)


def test_criterion_5_a2_serre_sum_vanishes():
    t = table("a2", 2)
    H = DoubleHall(t)
    s1, s2 = t.simple_ids()
    u1, u2 = H.u_plus(s1), H.u_plus(s2)
    total = AlgElt()
    for p in range(3):
        term = H.one()
        for _ in range(p):
            term = H.mult_plus(term, u1)
        term = H.mult_plus(term, u2)
        for _ in range(2 - p):
            term = H.mult_plus(term, u1)
        coef = H.field.q_binom(2, p, 1)
        if p % 2:
            coef = -coef
        total = total + term.scaled(coef)
    _report(5, "a2-serre-sum", total == AlgElt())


def test_criterion_6_sv_extension():
    ok = True
    details = []
    Hk = DoubleHall(table("kronecker", 2))
    if primitive_space(Hk, (1, 1)).dim != 2:
        ok, details = False, details + ["kronecker dim L(1,1) != 2"]
    Hj = DoubleHall(table("jordan", 2))
    for n in (2, 3):
        if primitive_space(Hj, (n,)).dim != 1:
            ok, details = False, details + [f"jordan dim L({n}) != 1"]
    for name, q in (("a2", 2), ("jordan", 2), ("kronecker", 2), ("jordan", 3), ("kronecker", 3)):
        rep = suite_sv(table(name, q))
        good, wit = _suite_ok(rep)
        if not good:
            ok, details = False, details + [f"{name} q={q}: {wit}"]
    _report(6, "sv-extension", ok, "; ".join(details))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", ["a2", "jordan", "kronecker"])
def test_criterion_7_character(name, q):
    rep = suite_character(table(name, q))
    good, wit = _suite_ok(rep)
    _report(7, f"character[{name},q={q}]", good, str(wit) if not good else "")


def test_criterion_7_jordan_partition_coefficients():
    t = table("jordan", 2)
    counts = [t.class_count((n,)) for n in (1, 2, 3, 4)]
    _report(7, "jordan-partition-counts", counts == [1, 2, 3, 5], str(counts))


def test_criterion_8_determinism():
    text = (
        "[quiver]\nvertices = 2\narrows = [[1, 2]]\n[field]\nq = 2\n"
        "[limits]\nbound = [2, 2]\nheight = 2\n[output]\nformat = json\n"
    )
    outputs = []
    for _ in range(2):
        config = parse_config(text)
        code, out = run_command("verify", config, suite="all")
        assert code == 0
        outputs.append(out.encode())
    _report(8, "deterministic-reports", outputs[0] == outputs[1])
