import json

import pytest

from hallalg import ClassTable, GroundField
from hallalg.cli import parse_config
from hallalg.verify import (
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
