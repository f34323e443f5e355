"""The correspondence between thin structures and connections."""

import pytest

from cubecat import (
    MINUS,
    PLUS,
    ThinStructure,
    BrokenNerveSystem,
    boundary,
    bundled_category,
    connections_from_theta,
    is_commutative,
    is_thin,
    shell_system,
    theta_from_connections,
)
from cubecat.core import composable_pairs
from cubecat.errors import (
    MorphismViolation,
    NotCommutative,
    PreconditionFailed,
)
from cubecat.suites import run_suite
from conftest import nerve_of, tower_of


def test_theta_sends_formal_generators_to_real_ones(square_nerve):
    theta = theta_from_connections(square_nerve, 2)
    ext = shell_system(square_nerve, 2)
    for a in square_nerve.cubes(1):
        for i in (1, 2):
            assert theta(ext.degeneracy(a, i)) == square_nerve.degeneracy(a, i)
        for sign in (MINUS, PLUS):
            assert theta(ext.connection(a, 1, sign)) == square_nerve.connection(a, 1, sign)


def test_theta_rejects_noncommutative_shells(square_nerve):
    theta = theta_from_connections(square_nerve, 2)
    ext = shell_system(square_nerve, 2)
    bad = next(s for s in ext.cubes(2) if not is_commutative(square_nerve, s))
    with pytest.raises(NotCommutative):
        theta(bad)


def test_theta_rejects_wrong_dimension(square_nerve):
    theta = theta_from_connections(square_nerve, 2)
    one_shell = boundary(square_nerve, square_nerve.cubes(1)[0])
    with pytest.raises(PreconditionFailed):
        theta(one_shell)


def test_theta_is_memoized_and_stable(square_nerve):
    theta = theta_from_connections(square_nerve, 2)
    s = theta.domain()[0]
    assert theta(s) is theta(s)


def test_theta_preserves_composition(poset_nerve):
    theta = theta_from_connections(poset_nerve, 2)
    domain = theta.domain()
    ext = shell_system(poset_nerve, 2)
    for i in (1, 2):
        for s, t in composable_pairs(ext, domain, i):
            assert theta(ext.compose(s, t, i)) == poset_nerve.compose(theta(s), theta(t), i)


def test_connections_round_trip(poset_nerve, square_nerve):
    for system in (poset_nerve, square_nerve):
        theta = theta_from_connections(system, 2)
        override = connections_from_theta(theta)
        for a in system.cubes(1):
            for sign in (MINUS, PLUS):
                assert override.connection(a, 1, sign) == system.connection(a, 1, sign)
        theta2 = theta_from_connections(override, 2)
        for s in theta.domain():
            assert theta2(s) == theta(s)


def test_thin_classes_coincide(square_nerve):
    theta = theta_from_connections(square_nerve, 2)
    images = {theta(s) for s in theta.domain()}
    for x in square_nerve.cubes(2):
        assert is_thin(square_nerve, x) == (x in images)


def test_towers_support_thin_structures():
    system = tower_of("free_square", 2)
    theta = theta_from_connections(system, 2)
    override = connections_from_theta(theta)
    for a in system.cubes(1):
        assert override.connection(a, 1, PLUS) == system.connection(a, 1, PLUS)


@pytest.mark.parametrize("system", [
    pytest.param(nerve_of("poset22", 3), id="nerve-poset22"),
    pytest.param(tower_of("free_square", 3), id="tower-free_square"),
])
def test_theta_is_the_connection_set_it_induces(system):
    top = 3
    theta = theta_from_connections(system, top)
    assert connections_from_theta(theta) is theta
    for a in system.cubes(top - 1):
        for i in range(1, top):
            for sign in (MINUS, PLUS):
                assert theta.connection(a, i, sign) == system.connection(a, i, sign)


@pytest.mark.parametrize("system, instances", [
    pytest.param(nerve_of("parallel_pair", 3), 556, id="nerve-parallel_pair"),
    pytest.param(nerve_of("poset22", 3), 9_496, id="nerve-poset22"),
    pytest.param(tower_of("free_square", 3), 70_792, id="tower-free_square"),
])
def test_exhaustive_thm_3_1_instance_counts_are_pinned(system, instances):
    report = run_suite(system, "thm-3.1", max_dim=3, exhaustive_dim=3)
    assert report.passed
    assert report.instances == instances


def test_badly_wired_theta_is_rejected(poset_nerve):
    # send every commutative shell to the degeneracy of one face; faces no
    # longer match, so reading connections back off it must fail
    def wrong_fill(s):
        return poset_nerve.degeneracy(s.face(1, MINUS), 1)

    fake = ThinStructure(poset_nerve, 2, wrong_fill)
    with pytest.raises(MorphismViolation, match="GAMMA-FACE"):
        connections_from_theta(fake)


def test_broken_model_is_refused_where_its_connections_are_read_back():
    # theta is built without a law check; reading its connections back is the check
    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    with pytest.raises(MorphismViolation, match="TRANSPORT"):
        connections_from_theta(theta_from_connections(broken, 2))
    assert not run_suite(broken, "thm-3.1", max_dim=2, exhaustive_dim=2).passed
