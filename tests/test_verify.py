import json
from typing import NamedTuple

import pytest

from hallalg import ClassTable, GroundField, Quiver
from hallalg.cli import parse_config
from hallalg.repcat import dim_leq, dims_below
from hallalg.verify import (
    SUITES,
    CheckReport,
    run_suite,
    suite_character,
    suite_composition,
    suite_kac,
    suite_pairing,
    suite_sv,
)

from conftest import CONFIGS, a2, jordan, kronecker


def _assert_pass(report, allow_skips=True):
    p, f, s = report.counts()
    failures = [c for c in report.checks if c.status == "fail"]
    assert report.overall == "pass", failures[:5]
    assert p > 0
    if not allow_skips:
        assert s == 0


def test_report_overall_logic():
    rep = CheckReport("demo")
    rep.check("ok", 1, 1)
    rep.skip("later", "needs a bigger bound")
    assert rep.overall == "pass"
    rep.check("bad", 1, 2)
    assert rep.overall == "fail"
    assert rep.counts() == (1, 1, 1)
    d = rep.to_dict()
    assert set(d) == {"suite", "checks", "overall"}
    assert d["checks"][2]["witness"] == "lhs=1 rhs=2"


def test_hopf_suites_pass(a2_q2, jordan_q2, kronecker_q2, cli_json):
    # configs/{a2,jordan,kronecker}.cfg are these three tables, so their hopf
    # reports are read from the `verify --suite all` runs test_golden pins.
    for name, table in (("a2", a2_q2), ("jordan", jordan_q2), ("kronecker", kronecker_q2)):
        config = parse_config((CONFIGS / f"{name}.cfg").read_text())
        assert (config.vertices, config.arrows, config.q, config.bound) == (
            table.quiver.vertices,
            table.quiver.arrows,
            table.q,
            table.bound,
        )
        _, out = cli_json(name, ["verify", "--suite", "all"])
        report = next(r for r in json.loads(out) if r["suite"] == "hopf")
        statuses = [c["status"] for c in report["checks"]]
        assert report["overall"] == "pass", [c for c in report["checks"] if c["status"] == "fail"][:5]
        assert "pass" in statuses
        assert "skipped" not in statuses


def test_pairing_suite_passes(a2_q2, jordan_q3):
    _assert_pass(suite_pairing(a2_q2), allow_skips=False)
    _assert_pass(suite_pairing(jordan_q3), allow_skips=False)


def test_composition_suite_passes(a2_q2, jordan_q2):
    rep = suite_composition(a2_q2)
    _assert_pass(rep, allow_skips=False)
    # the two quantum Serre instances of the pair both fit the bound
    assert any(c.name.startswith("serre-E") for c in rep.checks)
    _assert_pass(suite_composition(jordan_q2))


def test_composition_disconnected_quiver_commuting_relation():
    from hallalg import Quiver

    table = ClassTable(Quiver(2, []), GroundField(2), (1, 1))
    rep = suite_composition(table)
    _assert_pass(rep)
    assert any(c.name == "commuting-E[0;1]" and c.status == "pass" for c in rep.checks)


def test_composition_skips_out_of_bound_serre(kronecker_q2):
    rep = suite_composition(kronecker_q2)
    _assert_pass(rep)
    skips = [c for c in rep.checks if c.status == "skipped"]
    assert skips and all("needs" in (c.witness or "") for c in skips)
    assert any("(3, 1)" in (c.witness or "") for c in skips)


def test_composition_serre_runs_at_31():
    table = ClassTable(kronecker(), GroundField(2), (3, 1))
    rep = suite_composition(table)
    _assert_pass(rep)
    assert any(
        c.name == "serre-E[0;1]" and c.status == "pass" for c in rep.checks
    )
    assert any(
        c.name == "serre-F[0;1]" and c.status == "pass" for c in rep.checks
    )


def test_sv_suite_passes(a2_q2, jordan_q2, kronecker_q2):
    for table in (a2_q2, jordan_q2, kronecker_q2):
        _assert_pass(suite_sv(table))


def test_sv_commutators_present(kronecker_q2):
    rep = suite_sv(kronecker_q2)
    names = [c.name for c in rep.checks if c.status == "pass"]
    assert any(n.startswith("commutator[(1, 1)") for n in names)
    assert any(n.startswith("serre-new-E") for n in names)
    assert any(n.startswith("commuting-new") for n in names)


def test_kac_suite(a2_q2):
    rep = suite_kac(a2_q2, 2)
    _assert_pass(rep, allow_skips=False)
    rep = suite_kac(ClassTable(jordan(), GroundField(2), (4,)), 4)
    _assert_pass(rep, allow_skips=False)


def test_kac_detects_missing_coverage(a2_q2):
    rep = suite_kac(a2_q2, 5)
    assert rep.overall == "fail"


@pytest.mark.parametrize(
    "quiver,bound",
    [
        (a2(), (2, 2)),
        (a2(), (3, 1)),
        (a2(), (1, 3)),
        (Quiver(3, [(0, 1), (1, 2)]), (2, 1, 2)),
        (Quiver(3, [(0, 1), (1, 2)]), (1, 2, 1)),
        (jordan(), (3,)),
    ],
)
def test_kac_cover_check_names_the_first_vector_outside_the_bound(quiver, bound):
    table = ClassTable(quiver, GroundField(2), bound)
    for height in range(6):
        # Oracle: list every vector up to the height in (height, lex) order
        # and take the first one outside the bound.
        listed = [mu for mu in dims_below((height,) * len(bound)) if 0 < sum(mu) <= height]
        outside = [mu for mu in listed if not dim_leq(mu, bound)]
        rep = suite_kac(table, height)
        if outside:
            assert [c.name for c in rep.checks] == ["table-covers-height"]
            assert rep.checks[0].status == "fail"
            assert rep.checks[0].witness == (
                f"dimension {outside[0]} of height <= {height} is outside bound {bound}"
            )
        else:
            assert "table-covers-height" not in [c.name for c in rep.checks]
            _assert_pass(rep, allow_skips=False)


def test_character_suite(a2_q2, jordan_q2, kronecker_q2):
    for table in (a2_q2, jordan_q2, kronecker_q2):
        _assert_pass(suite_character(table), allow_skips=False)


def test_character_counts_jordan(jordan_q2):
    rep = suite_character(jordan_q2)
    by_name = {c.name: c for c in rep.checks}
    for n, expect in ((1, 1), (2, 2), (3, 3), (4, 5)):
        assert by_name[f"coefficient[({n},)]"].status == "pass"


def test_run_suite_dispatch(a2_q2):
    assert run_suite("hopf", a2_q2).suite == "hopf"
    assert run_suite("kac", a2_q2, height=2).overall == "pass"
    with pytest.raises(ValueError):
        run_suite("nope", a2_q2)


def test_reports_deterministic(a2_q2):
    r1 = suite_composition(a2_q2)
    r2 = suite_composition(ClassTable(a2(), GroundField(2), (2, 2)))
    assert r1.to_dict() == r2.to_dict()


class _LiteralClass(NamedTuple):
    cid: tuple
    dim: tuple
    aut: int


class JordanF2:
    """The Jordan quiver over F_2 up to degree 2, written out as literal data.

    It has the members of the table protocol in `ClassTable`'s docstring and
    nothing else: no quiver, no `q`, no `max_classes`.  Label 0 of degree 2 is
    the semisimple S + S, label 1 the Jordan block J_2.
    """

    field = GroundField(2)
    bound = (2,)

    def __init__(self, lines_in_semisimple=3):
        self._classes = {
            (0,): (_LiteralClass(((0,), 0), (0,), 1),),
            (1,): (_LiteralClass(((1,), 0), (1,), 1),),
            (2,): (_LiteralClass(((2,), 0), (2,), 6), _LiteralClass(((2,), 1), (2,), 2)),
        }
        self._indec = {(0,): 0, (1,): 1, (2,): 1}
        s = ((1,), 0)
        # Subobjects of dimension 1: every line of S + S, the socle of J_2.
        self._hall = {
            (((2,), 0), (1,)): {(s, s): lines_in_semisimple},
            (((2,), 1), (1,)): {(s, s): 1},
        }

    def degrees(self):
        return list(self._classes)

    def classes(self, mu):
        if tuple(mu) not in self._classes:
            raise ValueError(f"dimension {mu} outside the bound")
        return self._classes[tuple(mu)]

    def cls(self, cid):
        classes = self.classes(cid[0])
        if not 0 <= cid[1] < len(classes):
            raise ValueError(f"no class {cid}")
        return classes[cid[1]]

    def aut(self, cid):
        return self.cls(cid).aut

    def class_count(self, mu):
        return len(self.classes(mu))

    def indec_count(self, mu):
        return self._indec[tuple(mu)]

    def euler(self, a, b):
        return 0

    def sym(self, a, b):
        return 0

    def zero_id(self):
        return ((0,), 0)

    def simple_ids(self):
        return [((1,), 0)]

    def hall_distribution(self, gamma, nu):
        mu, nu = self.cls(gamma).dim, tuple(nu)
        if nu == (0,):
            return {(gamma, self.zero_id()): 1}
        if nu == mu:
            return {(self.zero_id(), gamma): 1}
        return self._hall.get((gamma, nu), {})

    def hall(self, quot, sub, gamma):
        for cid in (quot, sub, gamma):
            self.cls(cid)
        return self.hall_distribution(gamma, sub[0]).get((quot, sub), 0)


@pytest.mark.parametrize("suite", list(SUITES))
def test_suites_read_only_the_table_protocol(suite):
    report = run_suite(suite, JordanF2())
    _assert_pass(report)
    oracle = run_suite(suite, ClassTable(Quiver(1, [(0, 0)]), GroundField(2), (2,)))
    assert report.to_dict() == oracle.to_dict()


def test_literal_table_with_a_wrong_hall_number_fails():
    table = JordanF2(lines_in_semisimple=4)
    for suite in ("hopf", "pairing"):
        assert run_suite(suite, table).overall == "fail"
