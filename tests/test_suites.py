"""Theorem suite registry: coverage, determinism, and failure reporting."""

import pytest

from cubecat import BrokenNerveSystem, bundled_category, fillers, nerve, run_axiom_suite
from cubecat.core import REGISTRY, run_law
from cubecat.errors import UnknownLaw
from cubecat.shells import is_commutative, shell_system
from cubecat.suites import SUITES, run_suite, run_suites
from conftest import CompositeSpy, nerve_of, tower_of

EXPECTED_IDS = [
    "lemma-1.1", "prop-1.2", "lemma-1.3", "thm-1.4", "lemma-1.5",
    "lemma-2.3", "lemma-2.4", "lemma-2.5", "lemma-2.6", "prop-2.1",
    "prop-2.2", "cor-2.7", "thm-2.8", "cor-2.9", "thm-3.1",
]


def test_registry_ids_and_order():
    assert list(SUITES) == EXPECTED_IDS


def test_all_suites_pass_on_small_models():
    cfg = dict(max_dim=2, exhaustive_dim=2, samples=50, seed=3)
    for system in (nerve_of("parallel_pair", 2), tower_of("poset22", 2)):
        reports = run_suites(system, **cfg)
        assert [r.law_id for r in reports if not r.passed] == []
        assert all(r.instances > 0 for r in reports)


def test_unknown_suite_rejected(poset_nerve):
    with pytest.raises(UnknownLaw):
        run_suite(poset_nerve, "thm-0.0", max_dim=2)
    with pytest.raises(UnknownLaw):
        run_suites(poset_nerve, ["lemma-1.1", "nope"])


def test_selection_preserves_registry_order(poset_nerve):
    cfg = dict(max_dim=1, exhaustive_dim=1, samples=10, seed=0)
    reports = run_suites(poset_nerve, ["thm-2.8", "lemma-1.1"], **cfg)
    assert [r.law_id for r in reports] == ["lemma-1.1", "thm-2.8"]


def test_suites_catch_broken_models():
    # the corrupted degeneracy still lands on thin elements, so thinness
    # suites pass; the boundary-morphism suite sees the wrong formal shell
    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    cfg = dict(max_dim=2, exhaustive_dim=2, samples=20, seed=0)
    report = run_suite(broken, "lemma-1.3", **cfg)
    assert not report.passed
    # the law counterexample shape: the binding's elements parse back, a
    # label names the failing part, and the two compared shells are given
    payload = report.counterexample
    assert set(payload) == {"binding", "equation", "lhs", "rhs"}
    x = broken.parse(payload["binding"]["x"])
    assert broken.dim(x) == 1
    assert payload["equation"].startswith("eps: ")
    assert payload["lhs"] != payload["rhs"]
    # a suite whose model raises keeps the binding it raised on
    report = run_suite(broken, "cor-2.7", **cfg)
    assert report.counterexample["error"] == "NotComposable"
    assert set(report.counterexample["binding"]) == {"x"}


def test_a_failing_pool_part_names_its_own_binding(monkeypatch):
    # cor-2.7 (ii) binds two shells and a direction itself: a wrong composite
    # of commutative shells fails it under that dict
    system = nerve(bundled_category("parallel_pair"), 2)  # fresh: no composite is stored yet
    ext = shell_system(system, 2)
    shells = ext.id_view
    # every 2-shell is folded now, so later folds, the lifts' of part (i) too, compose nothing
    commutes = {t: is_commutative(system, shells.elements[t]) for t in shells.pool(2)}
    wrong = next(t for t, yes in commutes.items() if not yes)
    monkeypatch.setattr(shells, "composites", CompositeSpy(lambda key: wrong))
    report = run_suite(system, "cor-2.7", max_dim=2)
    payload = report.counterexample
    assert not report.passed and set(payload) == {"binding", "equation"}
    assert set(payload["binding"]) == {"s", "t", "i"}
    assert payload["equation"] == f"ii: s o{payload['binding']['i']} t commutes"
    s, t = (ext.parse(payload["binding"][k]) for k in "st")
    assert s.dim == t.dim == 2 and is_commutative(system, s) and is_commutative(system, t)


@pytest.mark.parametrize("run, what", [
    (run_law, REGISTRY["GAMMA-FACE"]), (run_suite, "lemma-1.3"),
    (run_suites, ["lemma-1.1", "thm-3.1"]), (run_axiom_suite, ["EPS-FACE", "ASSOC"]),
], ids=["run_law", "run_suite", "run_suites", "run_axiom_suite"])
def test_max_dim_defaults_to_the_systems(run, what):
    system = nerve_of("poset22", 2)

    def reports(**options):
        got = run(system, what, **options)
        return [r.as_dict() for r in (got if isinstance(got, list) else [got])]

    given = reports(max_dim=system.max_dim)
    assert reports() == given and all(r["passed"] and r["instances"] for r in given)


def test_suite_reports_are_seed_stable(square_tower):
    cfg = dict(max_dim=3, exhaustive_dim=2, samples=40, seed=9)
    first = run_suite(square_tower, "prop-2.2", **cfg)
    second = run_suite(square_tower, "prop-2.2", **cfg)
    assert first.as_dict() == second.as_dict()


def test_thm_3_1_builds_theta_once(monkeypatch, poset_nerve):
    built = []
    theta_from_connections = fillers.theta_from_connections

    def counted(system, *args, **kwargs):
        built.append(system)
        return theta_from_connections(system, *args, **kwargs)

    monkeypatch.setattr(fillers, "theta_from_connections", counted)
    # enumerated top: theta, then theta2 from the connections read off it
    assert run_suite(poset_nerve, "thm-3.1", max_dim=3, exhaustive_dim=3).passed
    assert len(built) == 2 and built[0] is poset_nerve and built[1] is not poset_nerve
    # sampled top: only the lifts run, on one theta
    built.clear()
    assert run_suite(poset_nerve, "thm-3.1", max_dim=3, exhaustive_dim=2, samples=5).passed
    assert built == [poset_nerve]
