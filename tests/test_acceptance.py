"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All checks are exact
(structural equality, zero tolerance); sampled checks are seeded and
deterministic.
"""

import time

from cubecat import (
    MINUS,
    PLUS,
    BrokenNerveSystem,
    big_psi,
    boundary,
    bundled_category,
    check_axiom,
    enumerate_shells,
    is_base_free,
    is_commutative,
    is_thin,
    evaluate,
    filler_from_fold,
    make_shell,
    run_axiom_suite,
    shell_system,
    thin_decompose,
)
from cubecat.suites import run_suite
from conftest import edge_cube, nerve_of, tower_of

CATS = ("terminal", "poset22", "free_square", "parallel_pair")
SEED = 20240917
SAMPLES_DIM4 = 500


def all_systems(top: int):
    for name in CATS:
        yield f"nerve({name})", nerve_of(name, top)
        yield f"tower({name})", tower_of(name, top)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_axiom_suite():
    """Every registry law, exhaustive at dims <= 3 plus 500 seeded samples at 4."""
    start = time.perf_counter()
    failures = []
    checked = 0
    for label, system in all_systems(4):
        reports = run_axiom_suite(
            system, max_dim=4, exhaustive_dim=3, samples=SAMPLES_DIM4, seed=SEED
        )
        checked += sum(r.instances for r in reports)
        failures += [f"{label}:{r.law_id}" for r in reports if not r.passed]
    elapsed = time.perf_counter() - start
    verdict(
        1, not failures,
        f"axiom registry on 8 models, {checked} instances in {elapsed:.0f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_folding_boundaries():
    """Folded degeneracies and folded faces degenerate; N and P share boundaries."""
    failures = []
    for label, system in all_systems(4):
        cfg = dict(max_dim=4, exhaustive_dim=3, samples=SAMPLES_DIM4, seed=SEED)
        for suite_id in ("lemma-1.1", "prop-1.2"):
            report = run_suite(system, suite_id, **cfg)
            if not report.passed:
                failures.append(f"{label}:{suite_id}")
    verdict(2, not failures, "folding boundary suites on 8 models at dims 2-4"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_unique_filler_round_trip():
    """Round trip on 100% of elements; enumeration finds exactly one filler
    per valid (fold, boundary) pair and zero otherwise."""
    start = time.perf_counter()
    failures = []
    cfg = dict(max_dim=3, exhaustive_dim=3, samples=0, seed=SEED)
    for label, system in (
        ("nerve(poset22)", nerve_of("poset22", 3)),
        ("tower(free_square)", tower_of("free_square", 3)),
    ):
        report = run_suite(system, "thm-1.4", **cfg)
        if not report.passed:
            failures.append(f"{label}: {report.counterexample}")
    # round-trip across the remaining models as well
    for label, system in all_systems(3):
        for n in (1, 2, 3):
            for x in system.cubes(n):
                folded = big_psi(system, x).folded
                if filler_from_fold(system, folded, boundary(system, x)) != x:
                    failures.append(f"{label}: dim-{n} round trip")
                    break
    elapsed = time.perf_counter() - start
    verdict(3, not failures,
            f"unique filler reconstruction and enumeration in {elapsed:.0f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_thin_fillers():
    """Commutative shells at dims <= 3 have unique thin fillers; others none."""
    failures = []
    noncommutative_seen = 0
    cfg = dict(max_dim=3, exhaustive_dim=3, samples=0, seed=SEED)
    for label, system in all_systems(3):
        report = run_suite(system, "prop-2.1", **cfg)
        if not report.passed:
            failures.append(f"{label}: {report.counterexample}")
    for name in ("free_square", "parallel_pair"):
        system = nerve_of(name, 3)
        for s in enumerate_shells(system, 2):
            if not is_commutative(system, s):
                noncommutative_seen += 1
                if any(boundary(system, x) == s for x in system.cubes(2)):
                    failures.append(f"nerve({name}): filler for a non-commutative shell")
    verdict(4, not failures and noncommutative_seen > 0,
            f"thin fillers on 8 models; {noncommutative_seen} non-commutative"
            " shells all unfillable"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_thinness_closure():
    """Degeneracies/connections thin; 1000 random thin composites thin;
    commutative 2-shell composites commutative, exhaustively."""
    failures = []
    for label, system in all_systems(3):
        cfg = dict(max_dim=3, exhaustive_dim=3, samples=200, seed=SEED)
        report = run_suite(system, "prop-2.2", **cfg)
        if not report.passed:
            failures.append(f"{label}:prop-2.2")
    # 1000 seeded random composites of thin dimension-3 tower elements
    tower = tower_of("free_square", 3)
    cfg = dict(max_dim=3, exhaustive_dim=3, samples=1000, seed=SEED)
    report = run_suite(tower, "prop-2.2", **cfg)
    if not report.passed:
        failures.append("tower(free_square):prop-2.2 (1000 samples)")
    # commutative shell composites, exhaustive over the free square category
    for label, system in (
        ("nerve(free_square)", nerve_of("free_square", 3)),
        ("tower(free_square)", tower),
    ):
        report = run_suite(system, "cor-2.7", **cfg)
        if not report.passed:
            failures.append(f"{label}:cor-2.7")
    verdict(5, not failures, "thinness and commutativity closed under composition"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_thin_decomposition():
    """Every thin element at dims <= 3 decomposes base-free and re-evaluates."""
    failures = []
    count = 0
    for label, system in all_systems(3):
        for n in (1, 2, 3):
            for x in system.cubes(n):
                if not is_thin(system, x):
                    continue
                expr = thin_decompose(system, x)
                count += 1
                if not is_base_free(expr) or evaluate(system, expr) != x:
                    failures.append(f"{label} dim {n}")
                    break
    verdict(6, not failures, f"{count} thin elements decomposed exactly"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_thin_structures():
    """Thin structures and connections round-trip at dimension 3 with
    identical thin classes."""
    start = time.perf_counter()
    failures = []
    cfg = dict(max_dim=3, exhaustive_dim=3, samples=0, seed=SEED)
    for label, system in (
        ("nerve(poset22)", nerve_of("poset22", 3)),
        ("nerve(free_square)", nerve_of("free_square", 3)),
        ("tower(poset22)", tower_of("poset22", 3)),
        ("tower(free_square)", tower_of("free_square", 3)),
    ):
        report = run_suite(system, "thm-3.1", **cfg)
        if not report.passed:
            failures.append(f"{label}: {report.counterexample}")
    elapsed = time.perf_counter() - start
    verdict(7, not failures,
            f"thin structure round trips at dim 3 in {elapsed:.0f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_8_negative_controls():
    """The broken fixture fails with a re-checkable counterexample; the
    non-commuting square is non-thin with distinct fold witnesses."""
    problems = []
    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    reports = run_axiom_suite(broken, max_dim=2, exhaustive_dim=2, seed=SEED)
    failed = [r for r in reports if not r.passed]
    if not failed:
        problems.append("broken fixture passed the registry")
    else:
        target = next(r for r in failed if r.law_id == "EPS-FACE")
        payload = target.counterexample["binding"]["x"]
        recheck = check_axiom(broken, "EPS-FACE", [broken.parse(payload)])
        if recheck.passed:
            problems.append("counterexample did not re-check")
    system = nerve_of("free_square", 2)
    bad = make_shell(system, 2, {
        (1, MINUS): edge_cube(system, "f"),
        (1, PLUS): edge_cube(system, "k"),
        (2, MINUS): edge_cube(system, "h"),
        (2, PLUS): edge_cube(system, "g"),
    })
    folded = big_psi(shell_system(system, 2), bad)
    n_face, p_face = folded.n_face, folded.p_face
    tower = tower_of("free_square", 2)
    if is_thin(tower, bad):
        problems.append("the non-commuting square counts as thin")
    if n_face == p_face:
        problems.append("no distinct fold witnesses")
    verdict(8, not problems,
            f"broken model rejected; non-thin witness {n_face.edges[0]} != "
            f"{p_face.edges[0]}"
            + (f"; problems: {problems}" if problems else ""))
