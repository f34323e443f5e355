"""Named theorem suites runnable over any enumerable model.

Each suite turns one statement about folding, shells, fillers or thin
structures into an executable check and reports it in the same shape as a
registry-law run.  Suite ids are stable strings used by the command line
and the acceptance tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import fillers, folding
from .core import (
    MINUS,
    PLUS,
    SIGNS,
    CubeSystem,
    LawReport,
    composable_pairs,
    dim_range,
    is_degenerate_at,
)
from .errors import CubicalError, UnknownLaw
from .shells import (
    boundary,
    enumerate_shells,
    is_commutative,
    shell_big_fold,
    shell_compose,
    shell_connection,
    shell_degeneracy,
    shell_fold,
    shell_system,
)


@dataclass
class SuiteConfig:
    max_dim: int = 3
    exhaustive_dim: int = 3
    samples: int = 500
    seed: int = 0


class _Fail(Exception):
    def __init__(self, payload: dict):
        super().__init__("suite check failed")
        self.payload = payload


class _Run:
    """Instance counter plus failure capture for one suite execution."""

    def __init__(self, system: CubeSystem, config: SuiteConfig, suite_id: str):
        self.system = system
        self.config = config
        self.rng = random.Random((config.seed, suite_id).__repr__())
        self.instances = 0

    def need(self, condition: bool, **payload) -> None:
        self.instances += 1
        if not condition:
            described = {
                k: (self.system.describe(v) if _looks_like_element(v) else v)
                for k, v in payload.items()
            }
            raise _Fail(described)

    def dims(self, lowest: int, lift: int = 0, exhaustive: bool = False):
        """Dimensions from ``lowest`` whose terms, ``lift`` above, the system can build;
        only those checked exhaustively if ``exhaustive``."""
        top = self.config.max_dim
        if exhaustive:
            top = min(top, self.config.exhaustive_dim)
        return dim_range(self.system, lowest, lift, top)

    def elements(self, d: int, system: Optional[CubeSystem] = None):
        """Exhaustive below the cap, seeded samples above it."""
        system = system or self.system
        if d <= self.config.exhaustive_dim:
            return system.cubes(d)
        samples = (system.sample_element(d, self.rng) for _ in range(self.config.samples))
        return [x for x in samples if x is not None]

    def shells_at(self, d: int):
        return self.elements(d, shell_system(self.system, d))


def _looks_like_element(v) -> bool:
    return not isinstance(v, (bool, int, str, float, tuple, list, dict, type(None)))


# ---------------------------------------------------------------------------
# folding suites


def _suite_lemma_1_1(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, lift=1):
        for y in run.elements(d):
            n = d + 1
            for r in range(1, n):
                lhs = folding.fold_through(sys, sys.degeneracy(y, r), r - 1)
                run.need(lhs == sys.degeneracy(y, 1), part="i", r=r, y=y, got=lhs)
            for j in range(1, n):
                folded = folding.fold_through(sys, sys.degeneracy(y, j), n - 1)
                run.need(
                    is_degenerate_at(sys, folded, 1),
                    part="ii", j=j, y=y, folded=folded,
                )


def _suite_prop_1_2(run: _Run) -> None:
    sys = run.system
    for d in run.dims(2):
        for x in run.elements(d):
            result = folding.big_psi(sys, x, verify=False)
            for i in range(2, d + 1):
                for sign in SIGNS:
                    face = sys.face(result.folded, i, sign)
                    run.need(
                        is_degenerate_at(sys, face, 1),
                        part="i", i=i, sign=sign, x=x, face=face,
                    )
            run.need(
                boundary(sys, result.n_face) == boundary(sys, result.p_face),
                part="ii", x=x,
            )
            rebuilt = folding.reconstruct_folded_shell(sys, result.n_face, result.p_face)
            run.need(
                rebuilt == boundary(sys, result.folded),
                part="iii", x=x,
            )


def _suite_lemma_1_3(run: _Run) -> None:
    """Taking boundaries is a morphism into the shell extension."""
    sys = run.system
    for d in run.dims(1):
        lifted = sys.within_ceiling(d + 1)
        for x in run.elements(d):
            if lifted:
                for j in range(1, d + 2):
                    run.need(
                        shell_degeneracy(sys, x, j)
                        == boundary(sys, sys.degeneracy(x, j)),
                        part="eps", j=j, x=x,
                    )
                for i in range(1, d + 1):
                    for sign in SIGNS:
                        run.need(
                            shell_connection(sys, x, i, sign)
                            == boundary(sys, sys.connection(x, i, sign)),
                            part="gamma", i=i, sign=sign, x=x,
                        )
            if d >= 2:
                b = boundary(sys, x)
                for j in range(1, d):
                    run.need(
                        shell_fold(sys, b, j) == boundary(sys, folding.psi(sys, x, j)),
                        part="psi", j=j, x=x,
                    )
                folded_shell, n_face, p_face = shell_big_fold(sys, b)
                result = folding.big_psi(sys, x, verify=False)
                run.need(
                    folded_shell == boundary(sys, result.folded), part="Psi", x=x
                )
                run.need(n_face == result.n_face, part="N", x=x)
                run.need(p_face == result.p_face, part="P", x=x)
        if d >= 1:
            elements = run.elements(d)
            for i in range(1, d + 1):
                for x, y in composable_pairs(sys, elements, i):
                    run.need(
                        shell_compose(sys, boundary(sys, x), boundary(sys, y), i)
                        == boundary(sys, sys.compose(x, y, i)),
                        part="compose", i=i, x=x, y=y,
                    )


def _suite_thm_1_4(run: _Run) -> None:
    """Unique reconstruction from boundary and full folding, by enumeration."""
    sys = run.system
    for d in run.dims(1, exhaustive=True):
        elements = sys.cubes(d)
        realized: dict = {}
        bidx: dict = {}
        for x in elements:
            b = boundary(sys, x)
            folded = folding.fold_through(sys, x, d - 1)
            back = fillers.filler_from_fold(sys, folded, b)
            run.need(back == x, part="roundtrip", x=x, got=back)
            key = (b, folded)
            run.need(
                realized.get(key, x) == x,
                part="uniqueness", x=x, other=realized.get(key),
            )
            realized[key] = x
            bidx.setdefault(b, []).append(x)
        for s in enumerate_shells(sys, d):
            folded_shell = shell_big_fold(sys, s)[0] if d >= 2 else s
            for a in bidx.get(folded_shell, ()):
                run.need(
                    (s, a) in realized,
                    part="existence", shell=s, a=a,
                )
        for (s, a) in realized:
            folded_shell = shell_big_fold(sys, s)[0] if d >= 2 else s
            run.need(
                boundary(sys, a) == folded_shell,
                part="necessity", shell=s, a=a,
            )


def _suite_lemma_1_5(run: _Run) -> None:
    sys = run.system
    for d in run.dims(2):
        for x in run.elements(d):
            b = boundary(sys, x)
            for j in range(1, d):
                back = fillers.unfold_step(sys, folding.psi(sys, x, j), b, j)
                run.need(back == x, j=j, x=x, got=back)


def _suite_lemma_2_3(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, lift=1):
        for c in run.elements(d):
            for i in range(1, d + 1):
                for sign in SIGNS:
                    lhs = folding.psi(sys, sys.connection(c, i, sign), i)
                    run.need(
                        lhs == sys.degeneracy(c, i),
                        part="i", i=i, sign=sign, c=c, got=lhs,
                    )
                    for j in range(i + 2, d + 1):
                        lhs = folding.psi(sys, sys.connection(c, i, sign), j)
                        rhs = sys.connection(folding.psi(sys, c, j - 1), i, sign)
                        run.need(lhs == rhs, part="ii", i=i, j=j, sign=sign, c=c)
            for i in range(1, d):
                plus = folding.psi(
                    sys, folding.psi(sys, sys.connection(c, i, PLUS), i + 1), i
                )
                rhs = sys.degeneracy(
                    sys.compose(
                        sys.connection(sys.face(c, i + 1, MINUS), i, PLUS), c, i + 1
                    ),
                    i,
                )
                run.need(plus == rhs, part="iii+", i=i, c=c)
                minus = folding.psi(
                    sys, folding.psi(sys, sys.connection(c, i, MINUS), i + 1), i
                )
                rhs = sys.degeneracy(
                    sys.compose(
                        c, sys.connection(sys.face(c, i + 1, PLUS), i, MINUS), i + 1
                    ),
                    i,
                )
                run.need(minus == rhs, part="iii-", i=i, c=c)


def _suite_lemma_2_4(run: _Run) -> None:
    sys = run.system
    for d in run.dims(2):
        for x in run.elements(d):
            for j in range(1, d):
                run.need(
                    folding.is_j_thin(sys, x, j)
                    == folding.is_j_thin(sys, folding.psi(sys, x, j), j - 1),
                    j=j, x=x,
                )


def _suite_lemma_2_5(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1):
        elements = run.elements(d)
        for j in range(1, d + 1):
            degenerate = [y for y in elements if is_degenerate_at(sys, y, j)]
            for i in range(1, d + 1):
                for y, z in composable_pairs(sys, degenerate, i):
                    x = sys.compose(y, z, i)
                    run.need(
                        is_degenerate_at(sys, x, j),
                        i=i, j=j, y=y, z=z, got=x,
                    )


def _suite_lemma_2_6(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, lift=1):
        for y in run.elements(d):
            for k in range(1, d + 2):
                run.need(
                    folding.is_j_thin(sys, sys.degeneracy(y, k), k - 1),
                    k=k, y=y,
                )


def _suite_prop_2_1(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1):
        elements = run.elements(d)
        thin_by_boundary: dict = {}
        for x in elements:
            if folding.is_thin(sys, x):
                thin_by_boundary.setdefault(boundary(sys, x), []).append(x)
                run.need(
                    is_commutative(sys, boundary(sys, x)),
                    part="i", x=x,
                )
        ext = shell_system(sys, d)
        for s in run.shells_at(d):
            commutative = is_commutative(sys, s)
            run.need(
                commutative == folding.is_thin(ext, s),
                part="ii", shell=s,
            )
            if d > run.config.exhaustive_dim:
                continue
            fillers_of_s = thin_by_boundary.get(s, [])
            if commutative:
                filler = fillers.thin_filler(sys, s)
                run.need(
                    boundary(sys, filler) == s and folding.is_thin(sys, filler),
                    part="iii-exists", shell=s, filler=filler,
                )
                run.need(
                    fillers_of_s == [filler],
                    part="iii-unique", shell=s, enumerated=len(fillers_of_s),
                )
            else:
                run.need(
                    not fillers_of_s,
                    part="iii-none", shell=s, enumerated=len(fillers_of_s),
                )


def _suite_prop_2_2(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, lift=1):
        for c in run.elements(d):
            for i in range(1, d + 2):
                run.need(
                    folding.is_thin(sys, sys.degeneracy(c, i)),
                    part="i-eps", i=i, c=c,
                )
            for i in range(1, d + 1):
                for sign in SIGNS:
                    run.need(
                        folding.is_thin(sys, sys.connection(c, i, sign)),
                        part="i-gamma", i=i, sign=sign, c=c,
                    )
    # closure under composition: seeded random thin pairs at the top dimension
    top = min(run.config.max_dim, sys.max_dim)
    produced, attempts = 0, 0
    while produced < run.config.samples and attempts < run.config.samples * 30:
        attempts += 1
        i = run.rng.randint(1, top)
        got = sys.sample_pair(top, i, run.rng)
        if got is None:
            continue
        a, b = got
        if not (folding.is_thin(sys, a) and folding.is_thin(sys, b)):
            continue
        c = sys.compose(a, b, i)
        run.need(folding.is_thin(sys, c), part="ii", i=i, a=a, b=b, got=c)
        produced += 1


def _suite_cor_2_7(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, lift=1):
        for c in run.elements(d):
            for i in range(1, d + 2):
                run.need(
                    is_commutative(sys, shell_degeneracy(sys, c, i)),
                    part="i-eps", i=i, c=c,
                )
            for i in range(1, d + 1):
                for sign in SIGNS:
                    run.need(
                        is_commutative(sys, shell_connection(sys, c, i, sign)),
                        part="i-gamma", i=i, sign=sign, c=c,
                    )
    for d in run.dims(2, exhaustive=True):
        commutative = [
            s for s in shell_system(sys, d).cubes(d) if is_commutative(sys, s)
        ]
        ext = shell_system(sys, d)
        for i in range(1, d + 1):
            for s, t in composable_pairs(ext, commutative, i):
                run.need(
                    is_commutative(sys, shell_compose(sys, s, t, i)),
                    part="ii", i=i, s=s, t=t,
                )


def _suite_thm_2_8(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, exhaustive=True):
        for x in sys.cubes(d):
            if not folding.is_thin(sys, x):
                continue
            expr = fillers.thin_decompose(sys, x)
            run.need(fillers.is_base_free(expr), part="base-free", x=x)
            run.need(
                fillers.evaluate(sys, expr) == x,
                part="evaluates", x=x,
            )


def _suite_cor_2_9(run: _Run) -> None:
    sys = run.system
    for d in run.dims(1, exhaustive=True):
        ext = shell_system(sys, d)
        for s in ext.cubes(d):
            if not is_commutative(sys, s):
                continue
            expr = fillers.thin_decompose(ext, s)
            run.need(fillers.is_base_free(expr), part="base-free", shell=s)
            run.need(
                fillers.evaluate(ext, expr) == s,
                part="evaluates", shell=s,
            )


def _suite_thm_3_1(run: _Run) -> None:
    sys = run.system
    top = min(run.config.max_dim, sys.max_dim)
    if top < 2:
        return
    theta = fillers.theta_from_connections(sys, top, spot_check=False)
    lower = sys.cubes(top - 1)
    for a in lower:
        for i in range(1, top + 1):
            run.need(
                theta(shell_degeneracy(sys, a, i)) == sys.degeneracy(a, i),
                part="eps", i=i, a=a,
            )
        for i in range(1, top):
            for sign in SIGNS:
                run.need(
                    theta(shell_connection(sys, a, i, sign))
                    == sys.connection(a, i, sign),
                    part="gamma", i=i, sign=sign, a=a,
                )
    # theta is a morphism on commutative shells
    domain = theta.domain() if top <= run.config.exhaustive_dim else None
    if domain is not None:
        ext = shell_system(sys, top)
        for s in domain:
            image = theta(s)
            run.need(boundary(sys, image) == s, part="faces", shell=s)
        for i in range(1, top + 1):
            for s, t in composable_pairs(ext, domain, i):
                run.need(
                    theta(shell_compose(sys, s, t, i))
                    == sys.compose(theta(s), theta(t), i),
                    part="compose", i=i, s=s, t=t,
                )
        # the connections read back off theta agree with the model's own,
        # and re-deriving theta from them closes the loop
        override = fillers.connections_from_theta(theta)
        for a in lower:
            for i in range(1, top):
                for sign in SIGNS:
                    run.need(
                        override.connection(a, i, sign) == sys.connection(a, i, sign),
                        part="roundtrip-gamma", i=i, sign=sign, a=a,
                    )
        theta2 = fillers.theta_from_connections(override, top, spot_check=False)
        for s in domain:
            run.need(theta2(s) == theta(s), part="roundtrip-theta", shell=s)
        # thin classes coincide element for element
        images = {theta(s) for s in domain}
        for x in sys.cubes(top):
            native = folding.is_thin(sys, x)
            run.need(
                native == (x in images),
                part="thin-class", x=x, native=native,
            )
            run.need(
                native == folding.is_thin(override, x),
                part="thin-class-override", x=x, native=native,
            )


@dataclass(frozen=True)
class Suite:
    suite_id: str
    description: str
    func: Callable


SUITES = (
    Suite("lemma-1.1", "folding a degeneracy collapses to the first degeneracy",
          _suite_lemma_1_1),
    Suite("prop-1.2", "folded cubes are degenerate beyond direction 1 and their"
          " two main faces share a boundary", _suite_prop_1_2),
    Suite("lemma-1.3", "taking boundaries commutes with every operation and fold",
          _suite_lemma_1_3),
    Suite("thm-1.4", "an element is uniquely determined by boundary plus full fold,"
          " and every compatible pair is realized", _suite_thm_1_4),
    Suite("lemma-1.5", "one folding step is invertible given the boundary",
          _suite_lemma_1_5),
    Suite("lemma-2.3", "foldings of connections reduce to degeneracies",
          _suite_lemma_2_3),
    Suite("lemma-2.4", "partial thinness transfers along one folding step",
          _suite_lemma_2_4),
    Suite("lemma-2.5", "composites of j-degenerate elements are j-degenerate",
          _suite_lemma_2_5),
    Suite("lemma-2.6", "a k-th degeneracy is (k-1)-fold partially thin",
          _suite_lemma_2_6),
    Suite("prop-2.1", "commutative shells are exactly the thin shells and have"
          " unique thin fillers", _suite_prop_2_1),
    Suite("prop-2.2", "degeneracies and connections are thin; thinness is closed"
          " under composition", _suite_prop_2_2),
    Suite("cor-2.7", "degenerate and connection shells commute; composites of"
          " commutative shells commute", _suite_cor_2_7),
    Suite("thm-2.8", "thin elements decompose into degeneracies and connections",
          _suite_thm_2_8),
    Suite("cor-2.9", "commutative shells decompose into degenerate and connection"
          " shells", _suite_cor_2_9),
    Suite("thm-3.1", "thin structures and connection sets determine each other"
          " with the same thin class", _suite_thm_3_1),
)

SUITE_INDEX = {s.suite_id: s for s in SUITES}


def run_suite(system: CubeSystem, suite_id: str, config: Optional[SuiteConfig] = None) -> LawReport:
    if suite_id not in SUITE_INDEX:
        raise UnknownLaw(suite_id)
    config = config or SuiteConfig()
    run = _Run(system, config, suite_id)
    report = LawReport(law_id=suite_id)
    start = time.perf_counter()
    try:
        SUITE_INDEX[suite_id].func(run)
    except _Fail as fail:
        report.passed = False
        report.counterexample = fail.payload
    except CubicalError as exc:
        report.passed = False
        report.counterexample = {"error": type(exc).__name__, "message": str(exc)}
    report.instances = run.instances
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report


def run_suites(system: CubeSystem, suite_ids=None, config: Optional[SuiteConfig] = None):
    if suite_ids is None:
        selected = [s.suite_id for s in SUITES]
    else:
        unknown = set(suite_ids) - set(SUITE_INDEX)
        if unknown:
            raise UnknownLaw(", ".join(sorted(unknown)))
        selected = [s.suite_id for s in SUITES if s.suite_id in set(suite_ids)]
    return [run_suite(system, sid, config) for sid in selected]
