"""Factorial sequences of rooted metric trees with leaf capacities.

The weighting process walks a tree from its root, repeatedly selecting a
nearest vertex in a growing weighted metric and emitting that distance; the
emitted sequence generalizes factorials of integer sets to arbitrary rooted
trees.  This package computes those sequences exactly, cross-checks them
against two independent formulations, links them to electrical flows on the
same tree, and inverts the process for sufficiently biased target sequences.
"""

from .engine import (
    Canonical,
    OrderedTieBreak,
    SeededRandom,
    TraceStep,
    WeightingRun,
    capacity_bound,
    factorials_greedy_oracle,
    factorials_minmax,
    factorials_removed,
    factorials_weighting,
)
from .errors import (
    AllOpenCircuit,
    DepthBudgetExceeded,
    Exhausted,
    Inconclusive,
    IndexOutOfRange,
    Mismatch,
    NotBiased,
    ParseError,
    StructureError,
    TreeFactorialError,
)
from .adelic import (
    bhargava_factorials,
    factorials_prime,
    greedy_bhargava_oracle,
    legendre,
)
from .flow import (
    BranchingReport,
    EquidistributionReport,
    FlowAssignment,
    ResistanceResult,
    WalkResult,
    branching_number_estimate,
    effective_resistance,
    equidistribution_check,
    exact_escape_probability,
    laplacian_voltage_gap,
    random_walk_escape,
    unit_current_flow,
)
from .realize import (
    BiasedSequence,
    OrderChoice,
    RoundtripReport,
    is_sufficiently_biased,
    realize_lengths,
    verify_roundtrip,
)
from .sequences import FactorialSequence, LimitEstimate, limit_estimate, superadditivity_gap
from .sources import (
    AdelicSetSource,
    LambdaScaledSource,
    RegularSource,
    SphericalSource,
    expand,
    level_branching,
    parse_generator_spec,
)
from .trees import INF, RootedTree, parse_tree_file, serialize_tree

__version__ = "0.1.0"

__all__ = [
    "INF",
    "RootedTree",
    "parse_tree_file",
    "serialize_tree",
    "RegularSource",
    "SphericalSource",
    "LambdaScaledSource",
    "AdelicSetSource",
    "expand",
    "level_branching",
    "parse_generator_spec",
    "FactorialSequence",
    "LimitEstimate",
    "limit_estimate",
    "superadditivity_gap",
    "Canonical",
    "SeededRandom",
    "OrderedTieBreak",
    "TraceStep",
    "WeightingRun",
    "factorials_weighting",
    "factorials_removed",
    "factorials_greedy_oracle",
    "factorials_minmax",
    "capacity_bound",
    "legendre",
    "factorials_prime",
    "bhargava_factorials",
    "greedy_bhargava_oracle",
    "ResistanceResult",
    "effective_resistance",
    "laplacian_voltage_gap",
    "FlowAssignment",
    "unit_current_flow",
    "EquidistributionReport",
    "equidistribution_check",
    "WalkResult",
    "exact_escape_probability",
    "random_walk_escape",
    "BranchingReport",
    "branching_number_estimate",
    "BiasedSequence",
    "OrderChoice",
    "is_sufficiently_biased",
    "realize_lengths",
    "RoundtripReport",
    "verify_roundtrip",
    "TreeFactorialError",
    "ParseError",
    "StructureError",
    "DepthBudgetExceeded",
    "Exhausted",
    "IndexOutOfRange",
    "AllOpenCircuit",
    "Inconclusive",
    "NotBiased",
    "Mismatch",
]
