"""Cubical categories with connections, checked over finite models.

The library implements the folding calculus (elementary foldings, the
partial folding, thinness), shells and their extension systems, unique and
thin fillers, thin decompositions into generators, and the correspondence
between thin structures and connections.  Models live in
:mod:`cubecat.models`; the registry of checkable laws in
:mod:`cubecat.core`; named theorem suites in :mod:`cubecat.suites`; the
``cubecat`` command line in :mod:`cubecat.cli`.
"""

from .core import (
    MINUS,
    PLUS,
    SIGNS,
    CubeSystem,
    LawReport,
    REGISTRY,
    check_axiom,
    run_axiom_suite,
)
from .arrays import (
    ComposablePartition,
    PartitionCell,
    compose_partition,
    render_ascii,
    resolve_symbols,
    tile_grid,
)
from .folding import (
    FoldResult,
    big_psi,
    fold_chain,
    is_j_thin,
    is_thin,
    psi,
    reconstruct_folded_shell,
)
from .shells import (
    Shell,
    ShellExtension,
    boundary,
    enumerate_shells,
    is_commutative,
    make_shell,
    shell_system,
    shell_tower,
)
from .fillers import (
    Base,
    Compose,
    Eps,
    Gamma,
    GeneratorExpression,
    ThinStructure,
    connections_from_theta,
    evaluate,
    expression_from_doc,
    expression_to_doc,
    filler_from_fold,
    is_base_free,
    theta_from_connections,
    thin_decompose,
    thin_filler,
    unfold_expression,
    unfold_step,
)
from .models import (
    BUNDLED,
    BrokenNerveSystem,
    FinCatPresentation,
    NerveCube,
    NerveSystem,
    bundled_category,
    load_fincat,
    nerve,
)
from .suites import SUITES, run_suite, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
