"""Every name in the package's __all__, and in each module's, resolves, and
the package exports exactly its public names."""

import importlib
import pkgutil

import pytest

import treefactorials

MODULES = ["treefactorials"] + [f"treefactorials.{m.name}" for m in pkgutil.iter_modules(treefactorials.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


PUBLIC = {
    "AdelicSetSource", "AllOpenCircuit", "BiasedSequence", "BranchingReport", "Canonical",
    "DepthBudgetExceeded", "EquidistributionReport", "Exhausted", "FactorialSequence",
    "FlowAssignment", "INF", "Inconclusive", "IndexOutOfRange", "LambdaScaledSource",
    "LimitEstimate", "Mismatch", "NotBiased", "OrderChoice", "OrderedTieBreak", "ParseError",
    "RegularSource", "ResistanceResult", "RootedTree", "RoundtripReport", "SeededRandom",
    "SphericalSource", "StructureError", "TraceStep", "TreeFactorialError", "WalkResult",
    "WeightingRun", "bhargava_factorials", "branching_number_estimate", "capacity_bound",
    "effective_resistance", "equidistribution_check", "exact_escape_probability", "expand",
    "factorials_greedy_oracle", "factorials_minmax", "factorials_prime", "factorials_removed",
    "factorials_weighting", "greedy_bhargava_oracle", "is_sufficiently_biased",
    "laplacian_voltage_gap", "legendre", "level_branching", "limit_estimate",
    "parse_generator_spec", "parse_tree_file", "random_walk_escape", "realize_lengths",
    "serialize_tree", "superadditivity_gap", "unit_current_flow", "verify_roundtrip",
}


def test_package_exports_exactly_the_public_names():
    names = treefactorials.__all__
    assert len(PUBLIC) == 57
    assert len(names) == len(set(names)) and set(names) == PUBLIC
