"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treefactorials import INF, cli, flow, format_length, parse_tree_file, serialize_tree
from treefactorials.cli import build_parser, main
from treefactorials.realize import BiasedSequence, verify_roundtrip


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli_exit(*argv):
    """run_cli, with an argparse usage error read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def star3(tmp_path):
    path = tmp_path / "star3.tree"
    path.write_text(serialize_tree(helpers.star([1, 2, 3], [1, 1, 1])))
    return str(path)


class TestFactorials:
    def test_csv_binary(self):
        code, out, err = run_cli("factorials", "--gen", "regular d=2 length=1", "--n", "8", "--csv")
        lines = out.strip().splitlines()
        assert code == 0 and err == ""
        assert lines[0] == "n,a_n_num,a_n_den,a_n_float"
        assert lines[-1] == "8,7,1,7.0"

    def test_plain_output(self):
        code, out, _ = run_cli("factorials", "--gen", "regular d=2", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["a_0 = 0", "a_1 = 0", "a_2 = 1"]

    def test_fractional_lengths_kept_exact(self, tmp_path):
        path = tmp_path / "edge.tree"
        path.write_text(serialize_tree(helpers.single_edge(length="3/2")))
        code, out, _ = run_cli("factorials", "--tree", str(path), "--n", "2", "--csv")
        assert code == 0
        assert out.strip().splitlines()[2] == "1,3,2,1.5"

    def test_infinite_path_is_domain_error(self):
        code, _, err = run_cli("factorials", "--gen", "regular d=1", "--n", "2")
        assert code == 1
        assert err.startswith("StructureError:")

    @pytest.mark.parametrize(
        "spec",
        (
            "regular d=1",
            "spherical b=1",
            "spherical b=1,1 length=1/2,2",
            "lambda base=(regular d=1) lambda=1/2",
            "lambda base=(spherical b=1) lambda=3",
        ),
    )
    def test_ray_fails_fast(self, spec):
        with helpers.deadline(1):
            code, out, err = run_cli("factorials", "--gen", spec, "--n", "3")
        assert (code, out) == (1, "")
        assert err.startswith("StructureError: a single infinite ray has no finite a_1")

    def test_trace(self):
        code, out, _ = run_cli("factorials", "--gen", "regular d=2", "--n", "2", "--trace")
        assert code == 0
        trace_lines = [l for l in out.splitlines() if l.startswith("#")]
        assert trace_lines[0].startswith("# step 0: case init at vertex")
        assert any(": case 2.1 at vertex" in l or ": case 1 at vertex" in l for l in trace_lines)

    def test_removed_variant_flag(self):
        code, out, _ = run_cli("factorials", "--gen", "regular d=2", "--n", "6", "--t", "1", "--csv")
        vals = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert vals == ["0", "0", "0", "0", "1", "1", "2"]

    def test_tree_file_input(self, tmp_path):
        path = tmp_path / "two.tree"
        path.write_text(serialize_tree(helpers.two_leaf_star()))
        code, out, _ = run_cli("factorials", "--tree", str(path), "--n", "4", "--csv")
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,0,1,0.0", "1,0,1,0.0", "2,1,1,1.0", "3,1,1,1.0", "4,2,1,2.0"]

    def test_depth_is_a_usage_error(self):
        # factorials runs on the whole (lazy) tree; it takes no truncation.
        with pytest.raises(SystemExit) as e:
            run_cli("factorials", "--gen", "regular d=2", "--n", "2", "--depth", "3")
        assert e.value.code == 2

    def test_determinism(self):
        a = run_cli("factorials", "--gen", "regular d=3", "--n", "30", "--csv", "--seed", "7")
        b = run_cli("factorials", "--gen", "regular d=3", "--n", "30", "--csv", "--seed", "7")
        assert a == b


class TestOracleCheck:
    def test_star_ok(self, star3):
        code, out, _ = run_cli("oracle-check", "--tree", star3, "--n", "3")
        assert code == 0
        assert "OK: weighting == greedy == minmax" in out

    def test_gen_requires_depth(self):
        code, out, err = run_cli("oracle-check", "--gen", "regular d=2", "--n", "4")
        assert code == 1
        assert "depth" in err

    def test_tree_file_cut_at_depth(self, tmp_path, monkeypatch):
        path = tmp_path / "binary.tree"
        path.write_text(serialize_tree(helpers.binary_tree(3)))
        calls = helpers.count_calls(monkeypatch, cli, "factorials_weighting")
        for extra, vertices in (((), 15), (("--depth", "1"), 3)):
            calls.clear()
            code, out, _ = run_cli("oracle-check", "--tree", str(path), "--n", "3", *extra)
            assert (code, out) == (0, "OK: weighting == greedy == minmax\n")
            assert [len(tree) for tree, _ in calls] == [vertices]

    def test_gen_with_depth(self):
        code, out, _ = run_cli("oracle-check", "--gen", "regular d=2", "--n", "4", "--depth", "3")
        assert code == 0
        assert "OK" in out

    def test_deep_path_ok(self, tmp_path):
        # Deeper than the interpreter's recursion limit.
        path = tmp_path / "deep.tree"
        path.write_text(serialize_tree(helpers.path_tree([1] * 3000, cap=2)))
        code, out, err = run_cli("oracle-check", "--tree", str(path), "--n", "1")
        assert (code, out, err) == (0, "OK: weighting == greedy == minmax\n", "")

    def test_depth_12_subprocess(self):
        # 4,096 leaves: the greedy oracle's leaf-range steps, not a pairing matrix.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "treefactorials.cli", "oracle-check", "--gen", "regular d=2"]
        start = time.perf_counter()
        done = subprocess.run([*argv, "--depth", "12", "--n", "1000"], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "OK: weighting == greedy == minmax\n", "")
        assert time.perf_counter() - start < 10

    def test_mismatch_is_reported(self, monkeypatch):
        real = cli.factorials_minmax

        def shifted(tree, n):
            values = list(real(tree, n).values)
            values[2] += 1
            return SimpleNamespace(values=values)

        monkeypatch.setattr(cli, "factorials_minmax", shifted)
        code, out, err = run_cli("oracle-check", "--gen", "regular d=2", "--depth", "3", "--n", "4")
        assert (code, out, err) == (1, "", "Mismatch at n=2: weighting=1 greedy=1 minmax=2\n")


class TestAdelic:
    def test_initial_segment(self):
        code, out, _ = run_cli("adelic", "--set", "0,1,2,3,4,5", "--n", "5", "--csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,factorial"
        assert lines[-1] == "5,120"

    def test_plain_format(self):
        code, out, _ = run_cli("adelic", "--set", "1,3,5", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["factorial(0) = 1", "factorial(1) = 2", "factorial(2) = 8"]

    def test_single_prime_part(self):
        # With --p the factorial column is the p-part itself, not the valuation.
        code, out, _ = run_cli("adelic", "--set", "0,1,2,3", "--p", "3", "--n", "3", "--csv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "3,3"

    def test_out_of_range_is_domain_error(self):
        code, _, err = run_cli("adelic", "--set", "0,1", "--n", "5")
        assert code == 1
        assert err.startswith("IndexOutOfRange:")

    @pytest.mark.parametrize("spaced", [True, False])
    def test_set_value_starting_with_minus(self, spaced):
        # argparse reads -5,3 as an option unless it is joined to --set.
        argv = ("--set", "-5,3") if spaced else ("--set=-5,3",)
        assert run_cli("adelic", *argv, "--n", "1") == (0, "factorial(0) = 1\nfactorial(1) = 8\n", "")
        assert run_cli("adelic", "--n", "1", *argv, "--p", "2") == (0, "factorial(0) = 1\nfactorial(1) = 8\n", "")

    def test_negative_n_is_domain_error(self):
        code, out, err = run_cli("adelic", "--set", "0,1", "--n", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("StructureError:")

    def test_large_prime_part_is_fast(self):
        with helpers.deadline(2):
            code, out, _ = run_cli("adelic", "--set", "0,1,2", "--p", str(2**61 - 1), "--n", "2")
        assert code == 0
        assert out.splitlines() == ["factorial(0) = 1", "factorial(1) = 1", "factorial(2) = 1"]

    def test_unprovable_prime_is_domain_error(self):
        with helpers.deadline(2):
            code, out, err = run_cli("adelic", "--set", "0,1,2", "--p", str(2**89 - 1), "--n", "2")
        assert code == 1 and out == ""
        assert err.startswith("StructureError: cannot prove")

    def test_composite_p_is_domain_error(self):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        for p in ("4", "3215031751"):
            code, out, err = run_cli("adelic", "--set", "0,1", "--p", p, "--n", "1")
            assert code == 1 and out == ""
            assert err == f"StructureError: {p} is not prime\n"

    def test_huge_prime_dividing_a_difference(self):
        p89 = 2**89 - 1
        with helpers.deadline(2):
            code, out, _ = run_cli("adelic", "--set", f"0,{p89},{2 * p89}", "--n", "2")
        assert code == 0
        assert out.splitlines()[-1] == f"factorial(2) = {2 * p89**2}"

    def test_runs_without_sympy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)
        code, out, _ = run_cli("adelic", "--set", "0,4,6,9,18,35", "--n", "5", "--csv")
        assert code == 0
        assert out.splitlines()[1:3] == ["0,1", "1,1"]


class TestFlow:
    def test_report(self):
        code, out, _ = run_cli("flow", "--gen", "regular d=2", "--depth", "3")
        assert code == 0
        assert "resistance = 7/8" in out
        assert "energy = 7/8" in out
        assert "escape = 4/7" in out

    def test_csv_flows(self):
        code, out, _ = run_cli("flow", "--gen", "regular d=2", "--depth", "2", "--csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "edge_parent,edge_child,flow_num,flow_den"
        assert len(lines) == 7  # six edges
        assert lines[1].endswith("1,2")

    def test_monte_carlo_line(self):
        code, out, _ = run_cli(
            "flow", "--gen", "regular d=2", "--depth", "3", "--trials", "400", "--seed", "3",
        )
        assert code == 0
        assert "escape_mc = " in out and "trials=400" in out

    def test_all_open_is_domain_error(self, star3):
        code, _, err = run_cli("flow", "--tree", star3, "--depth", "2")
        assert code == 1
        assert err.startswith("AllOpenCircuit:")

    def test_negative_trials_is_domain_error(self):
        code, out, err = run_cli("flow", "--gen", "regular d=2", "--depth", "3", "--trials", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("StructureError:")
        code, out, _ = run_cli("flow", "--gen", "regular d=2", "--depth", "3", "--trials", "0")
        assert code == 0 and "escape = 4/7" in out and "escape_mc" not in out

    @pytest.mark.parametrize(
        "extra", [(), ("--trials", "3"), ("--depth", "2")], ids=["plain", "trials", "depth"]
    )
    def test_edgeless_tree_is_domain_error(self, tmp_path, extra):
        path = tmp_path / "root.tree"
        path.write_text("node 0 parent=- capacity=inf\n")
        code, out, err = run_cli("flow", "--tree", str(path), *extra)
        assert (code, out) == (1, "")
        assert err.startswith("StructureError:")

    def test_one_expansion_per_run(self, monkeypatch):
        # Every run walks its source once; only per-edge flows and the walk
        # unroll that (state, depth) DAG into the tree vertex by vertex.
        walks = helpers.count_calls(monkeypatch, flow, "_dag")
        unrolls = helpers.count_calls(monkeypatch, flow, "_unroll")
        runs = (((), 0), (("--float",), 0), (("--csv",), 1), (("--trials", "50", "--seed", "1"), 1))
        for extra, want in runs:
            walks.clear()
            unrolls.clear()
            code, _, _ = run_cli("flow", "--gen", "regular d=2", "--depth", "4", *extra)
            assert code == 0 and [depth for _, depth in walks] == [4] and len(unrolls) == want

    @pytest.mark.parametrize("extra", [("--csv",), ("--trials", "10")], ids=["csv", "trials"])
    def test_vertex_budget_refuses_a_huge_truncation(self, extra):
        # 2**31 - 1 vertices: refused from the DAG's counts, before any is built.
        with helpers.deadline(2):
            code, out, err = run_cli("flow", "--gen", "regular d=2", "--depth", "30", *extra)
        assert (code, out) == (1, "")
        assert err == "DepthBudgetExceeded: the truncation has 2147483647 vertices, past the budget of 1000000\n"

    def test_deep_binary_report_is_fast(self):
        with helpers.deadline(2):
            code, out, err = run_cli("flow", "--gen", "regular d=2", "--depth", "64")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "resistance = 18446744073709551615/18446744073709551616"

    @pytest.mark.parametrize(
        "cap, want",
        [(INF, (0, "resistance = 3000\nenergy = 3000\nescape = 1/3000\n", "")),
         (2, (1, "", "AllOpenCircuit: no infinite-capacity leaf at truncation depth 3000\n"))],
    )
    def test_deep_path(self, tmp_path, cap, want):
        # Deeper than the interpreter's recursion limit.
        path = tmp_path / "deep.tree"
        path.write_text(serialize_tree(helpers.path_tree([1] * 3000, cap=cap)))
        assert run_cli("flow", "--tree", str(path)) == want


class TestGoldenFlowOutputs:
    """One digest over the exit code, stdout and stderr of flow and equidist
    runs on generated and explicit trees, so any change to a printed flow
    quantity or to an open-circuit message shows up."""

    DIGEST = "1774add2e0eb552a5b06c0ea3723c29ec03ec71221b835b98140ac4b3a6f7e6b"

    SPECS = (
        ("regular d=2", (1, 2, 5)),
        # A path, finite so that equidist's weighting run ends.
        ("spherical b=1,1,1,1,1,1,1,1,1,1,1,0", (10,)),
        ("regular d=3 length=3/2", (4,)),
        ("spherical b=2,3 length=1/2,2/3", (5,)),
        ("spherical b=3,1 length=1/3,2", (4,)),
        # Open circuits: the message names the depth where the tree ends.
        ("spherical b=2,0", (1, 2, 3)),
        ("spherical b=2,1,0", (5,)),
        ("lambda base=(regular d=2) lambda=3/2", (5,)),
        ("lambda base=(spherical b=2,3) lambda=2/3", (4,)),
        ("adelic p=2 set=0,1,3,4,9,12,20", (3, 6)),
        ("adelic p=3 set=1,2,4,10,28,29", (4,)),
    )

    @classmethod
    def inputs(cls, tmp_path):
        for spec, depths in cls.SPECS:
            for h in depths:
                yield ("--gen", spec, "--depth", str(h))
        rng = random.Random(2026)
        lengths = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))
        trees = [helpers.random_tree(rng, max_edges=12, lengths=lengths, caps=(1, 2, INF)) for _ in range(10)]
        # Finite capacities only: grounded while cut above the bottom level,
        # open from the tree's height down.
        trees.append(helpers.binary_tree(3, cap=2))
        for i, tree in enumerate(trees):
            path = tmp_path / f"t{i}.tree"
            path.write_text(serialize_tree(tree))
            height = max(tree.depths)
            for extra in ((), ("--depth", "1"), ("--depth", str(height + 2))):
                yield ("--tree", str(path), *extra)

    @classmethod
    def outcomes(cls, tmp_path):
        for argv in cls.inputs(tmp_path):
            for extra in ((), ("--float",), ("--csv",), ("--trials", "200", "--seed", "1")):
                yield repr(run_cli("flow", *argv, *extra))
            yield repr(run_cli("equidist", *argv, "--n", "40", "--csv"))

    def test_outputs_match_the_pinned_digest(self, tmp_path):
        outcomes = list(self.outcomes(tmp_path))
        assert len(outcomes) == (16 + 11 * 3) * 5
        assert sum("AllOpenCircuit" in o for o in outcomes) > 20
        assert sum(o.startswith("(0, ") for o in outcomes) > 150
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST


def biased_rows(rng, d, depth, denominator=1):
    """Rows 'generation,position,value' of a sufficiently biased sequence,
    each value past generation 0 plus a random fraction with the given
    denominator (none at 1): a generation starts far above the sum of the
    earlier ones and climbs by steps of at least 1."""
    rows = [f"0,{i + 1},0" for i in range(d)]
    running = value = 0
    for n in range(1, depth + 1):
        running += value
        step = running + 1
        value = 4 * d**n * (running + 2 * d**n * step) + d**n + rng.randrange(step)
        for i in range(d**n):
            if i:
                value += step + rng.randrange(step)
            extra = Fraction(rng.randrange(denominator), denominator)
            rows.append(f"{n},{i + 1},{format_length(value + extra)}")
    return "\n".join(rows) + "\n"


class TestGoldenAdelicRealizeOutputs:
    """One digest over the exit code, stdout and stderr of adelic and realize
    runs, so any change to a printed factorial, a realized length or an
    error message shows up."""

    DIGEST = "d79611c7a6a59c755c3aaa7eaecf912e1d96ab6a9897997122e34280925e1e62"

    @staticmethod
    def adelic_inputs():
        rng = random.Random(20261019)
        sets = [[start + i for i in range(k)] for start, k in ((0, 1), (0, 2), (999983, 13), (10**6 + 7, 40), (-50, 25))]
        sets += [rng.sample(range(10**11, 10**12), 20) for _ in range(3)]
        p14 = 30000000000011
        offset = rng.randrange(10**17, 9 * 10**17)
        sets += [[offset + p14 * k for k in rng.sample(range(10**17 // p14), 16)] for _ in range(2)]
        sets += [rng.sample(range(10**17, 10**18), 12)]
        sets += [[rng.randrange(10**39, 10**40) for _ in range(10)] for _ in range(2)]
        sets += [[2**64 * rng.randrange(-10**20, 10**20) + 7 for _ in range(9)]]
        sets += [[0] + [2**k for k in range(40)], [x * 3**30 for x in (1, 4, 10, 28, 82)]]
        for s in sets:
            text = "--set=" + ",".join(map(str, s))
            last = str(len(s) - 1)
            yield ("adelic", text, "--n", last)
            yield ("adelic", text, "--n", last, "--csv")
            for p in ("2", "3", "4", "3215031751", str(2**61 - 1), str(2**89 - 1)):
                yield ("adelic", text, "--n", last, "--p", p)
            yield ("adelic", text, "--n", str(len(s)))
            yield ("adelic", text, "--n", "-1")
        yield ("adelic", "--set", "1,2,2", "--n", "1")

    @staticmethod
    def realize_inputs(tmp_path):
        rng = random.Random(20261020)
        files = []
        for d, depth in ((2, 0), (2, 1), (2, 4), (2, 6), (3, 2), (3, 3), (4, 2)):
            for denominator in (1, 6, 35):
                files.append((d, biased_rows(rng, d, depth, denominator)))
        files.append((2, "0,1,0\n0,2,0\n1,1,10\n1,2,12\n2,1,30\n2,2,31\n2,3,32\n2,4,33\n"))
        files.append((2, "0,1,0\n0,2,0\n1,1,1/3\n1,2,1/2\n2,1,7/2\n2,2,4\n2,3,9/2\n2,4,5\n"))
        orders = tmp_path / "orders.txt"
        orders.write_text("1: 1,0\n2: 3,0,2,1\n3: 7,6,5,4,3,2,1,0\n")
        for i, (d, rows) in enumerate(files):
            path = tmp_path / f"seq{i}.csv"
            path.write_text(rows)
            for extra in ((), ("--verify",)):
                yield ("realize", "--d", str(d), "--seq", str(path), *extra)
                if d == 2 and rows.count("\n") >= 14:
                    yield ("realize", "--d", "2", "--seq", str(path), "--orders", str(orders), *extra)

    def test_outputs_match_the_pinned_digest(self, tmp_path):
        outcomes = [repr(run_cli(*argv)) for argv in self.adelic_inputs()]
        outcomes += [repr(run_cli(*argv)) for argv in self.realize_inputs(tmp_path)]
        assert len(outcomes) == 161 + 58
        assert sum(o.startswith("(0, ") for o in outcomes) == 80 + 54
        assert sum("NotBiased" in o for o in outcomes) == 4
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST


class TestBranching:
    def test_binary_bracket(self):
        code, out, _ = run_cli(
            "branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", "4",
        )
        assert code == 0
        assert "low = 127/64" in out
        assert "high = 65/32" in out
        assert "status = bracketed" in out
        assert any(l.startswith("# lam=") for l in out.splitlines())

    def test_path_collapses(self):
        code, out, _ = run_cli(
            "branching", "--gen", "regular d=1", "--lambda-lo", "1", "--lambda-hi", "2",
        )
        assert code == 0
        assert "status = collapsed-low" in out

    def test_deep_explicit_path_is_fast(self, tmp_path):
        # Each schedule depth is one single-depth solve, not a sweep of every
        # truncation up to 4096.
        path = tmp_path / "path.tree"
        path.write_text(serialize_tree(helpers.path_tree([1] * 800, cap=INF)))
        with helpers.deadline(5):
            code, out, err = run_cli("branching", "--tree", str(path), "--lambda-lo", "1", "--lambda-hi", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[-3:] == ["low = 1", "high = 33/32", "status = bracketed"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--tol", "0"), "tol must be > 0, got 0"),
            (("--tol=-1/2",), "tol must be > 0, got -1/2"),
            (("--tol", "-1/2"), "tol must be > 0, got -1/2"),
            (("--depth", "0"), "depth must be >= 1, got 0"),
        ],
        ids=["tol-zero", "tol-negative", "tol-negative-spaced", "depth-zero"],
    )
    def test_bad_parameter_is_structure_error(self, extra, message):
        code, out, err = run_cli("branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", "2", *extra)
        assert (code, out, err) == (1, "", f"StructureError: {message}\n")

    def test_negative_lambda_is_structure_error(self):
        # argparse reads -1/2 as an option unless it is joined to --lambda-lo.
        code, out, err = run_cli("branching", "--gen", "regular d=2", "--lambda-lo", "-1/2", "--lambda-hi", "2")
        assert (code, out, err) == (1, "", "StructureError: need 0 < lam_lo < lam_hi\n")

    @pytest.mark.parametrize("cap", ["inf", "2"])
    def test_edgeless_tree_is_domain_error(self, tmp_path, cap):
        # A grounded root alone has R = 0 at every lambda: no branch to count.
        path = tmp_path / "root.tree"
        path.write_text(f"node 0 parent=- capacity={cap}\n")
        code, out, err = run_cli("branching", "--tree", str(path), "--lambda-lo", "1", "--lambda-hi", "2")
        assert (code, out) == (1, "")
        assert err.startswith("StructureError: the tree has no edge")


HUGE = "1" + "0" * 400  # past the float range


class TestDigitCap:
    """Exact values past the interpreter's 4,300-digit cap on int-string
    conversion are read and printed in full, and the cap is left as it is."""

    def test_resistance_past_the_cap(self, tmp_path):
        rng = random.Random(5)
        lengths = [Fraction(rng.randrange(10**399, 10**400), rng.randrange(10**399, 10**400)) for _ in range(12)]
        path = tmp_path / "star.tree"
        path.write_text(serialize_tree(helpers.star(lengths, [INF] * 12)))
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("flow", "--tree", str(path))
        assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
        want = 1 / sum(1 / ln for ln in lengths)
        assert want.denominator > 10**limit
        sys.set_int_max_str_digits(0)
        try:
            assert out.splitlines()[0] == f"resistance = {format_length(want)}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_length_past_the_cap(self, tmp_path):
        length = "9" * 5000
        path = tmp_path / "edge.tree"
        path.write_text(f"node 0 parent=-\nnode 1 parent=0 length={length} capacity=inf\n")
        assert run_cli("factorials", "--tree", str(path), "--n", "1") == (0, f"a_0 = 0\na_1 = {length}\n", "")

    # 10**5000 + 7, 5,001 digits.
    BIG = "1" + "0" * 4999 + "7"

    def test_adelic_set_past_the_cap(self):
        assert run_cli("adelic", f"--set=0,{self.BIG}", "--n", "1") == (
            0, f"factorial(0) = 1\nfactorial(1) = {self.BIG}\n", "",
        )

    def test_csv_length_past_the_cap(self, tmp_path):
        path = tmp_path / "edge.tree"
        path.write_text(f"node 0 parent=-\nnode 1 parent=0 length={self.BIG} capacity=inf\n")
        assert run_cli("factorials", "--tree", str(path), "--n", "1", "--csv") == (
            0, f"n,a_n_num,a_n_den,a_n_float\n0,0,1,0.0\n1,{self.BIG},1,inf\n", "",
        )

    def test_realize_mismatch_past_the_cap(self, tmp_path):
        # B = 10**4400; generation 2's first vertex is visited at 101 * B.
        b = "1" + "0" * 4400
        path = tmp_path / "seq.csv"
        rows = ["0,1,0", "0,2,0", f"1,1,{b}", f"1,2,{b[:-1]}1"]
        rows += [f"2,{i},{b}00" for i in (1, 2, 3)] + [f"2,4,{b}000"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli("realize", "--d", "2", "--seq", str(path))
        assert (code, out) == (1, "")
        assert err == f"Mismatch: generation 2, position 1: first visit at 101{b[1:]}, wanted {b}00\n"


@contextlib.contextmanager
def digit_cap(limit: int):
    """The interpreter's int-string digit cap set to `limit` inside the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestHugeIntegers:
    """A 5,001-digit value in every integer option, generator spec field and
    tree, sequence or orders file field, under the interpreter's default
    4,300-digit int-string cap.  Every run exits 0, 1 or 2 with nothing
    escaping main, and the outcomes match a pinned digest.  Left out are
    runs whose work grows with the value itself: a huge --n, or --depth, on
    an infinite generated source, and a huge --trials."""

    BIG = "1" + "0" * 4999 + "7"  # 10**5000 + 7
    # An even p, refused at once; proving 10**5000 + 7 composite takes seconds.
    EVEN = "1" + "0" * 4999 + "8"
    DIGEST = "ef451fd798576f946552038d98f7f969c49e4d67070c9139220dc08788dc15b5"

    def files(self, tmp_path):
        big, paths = self.BIG, {}
        texts = {
            "finite": "node 0 parent=-\nnode 1 parent=0 length=1 capacity=2\nnode 2 parent=0 length=1 capacity=1\n",
            "grounded": "node 0 parent=-\nnode 1 parent=0 length=1 capacity=inf\nnode 2 parent=0 length=1 capacity=inf\n",
            "lengths": f"node 0 parent=-\nnode 1 parent=0 length=1/{big} capacity=inf\n"
            f"node 2 parent=0 length={big}/3 capacity=inf\n",
            "capacity": f"node 0 parent=-\nnode 1 parent=0 length=1 capacity={big}\nnode 2 parent=0 length=1 capacity=inf\n",
            "node_id": f"node 0 parent=-\nnode {big} parent=0 length=1\n",
            "parent": f"node 0 parent=-\nnode 1 parent={big} length=1\n",
            "negative_parent": f"node 0 parent=-\nnode 1 parent=-{big} length=1\n",
            "seq": "0,1,0\n0,2,0\n1,1,2\n1,2,2\n",
            "seq_generation": f"0,1,0\n0,2,0\n{big},1,2\n",
            "seq_position": f"0,1,0\n0,2,0\n1,{big},2\n1,2,2\n",
            "seq_values": f"0,1,0\n0,2,0\n1,1,{big}\n1,2,{big}\n",
            "seq_biased": f"0,1,0\n0,2,0\n1,1,{big}\n1,2,{big}1\n",
            "orders_generation": f"{big}: 0,1\n",
            "orders_slot": f"1: 0,{big}\n",
        }
        for name, text in texts.items():
            (path := tmp_path / name).write_text(text)
            paths[name] = str(path)
        return SimpleNamespace(**paths)

    def inputs(self, f):
        big, even = self.BIG, self.EVEN
        for tree in (f.finite, f.grounded, f.lengths, f.capacity):
            yield ("factorials", "--tree", tree, "--n", "3", "--csv")
            yield ("oracle-check", "--tree", tree, "--n", "3", "--depth", big)
            yield ("flow", "--tree", tree, "--depth", big, "--csv")
        yield ("factorials", "--tree", f.finite, "--n", big)
        yield ("factorials", "--tree", f.finite, "--n", "3", "--t", big)
        yield ("factorials", "--tree", f.grounded, "--n", "3", "--seed", big, "--trace")
        yield ("factorials", "--tree", f.grounded, "--n", "3", "--seed", f"-{big}")
        yield ("factorials", "--tree", f.grounded, "--n", f"-{big}")
        yield ("factorials", "--tree", f.grounded, "--n", f"{big}x")
        yield ("oracle-check", "--tree", f.finite, "--n", big)
        yield ("oracle-check", "--gen", "regular d=2", "--n", "2", "--depth", f"-{big}")
        yield ("adelic", "--set", "0,1,2", "--n", big)
        yield ("adelic", "--set", "0,1,2", "--n", "1", "--p", even)
        yield ("adelic", "--set", "0,1,2", "--n", "1", "--p", f"-{big}")
        yield ("adelic", "--set", f"0,{big}", "--n", "1", "--csv")
        yield ("adelic", "--set", f"0,{big}", "--n", "1", "--p", "7")
        yield ("adelic", "--set", f"-{big},0,3", "--n", "2")
        yield ("flow", "--tree", f.grounded, "--trials", f"-{big}")
        yield ("flow", "--tree", f.grounded, "--trials", "10", "--seed", big)
        yield ("flow", "--tree", f.lengths)
        yield ("branching", "--tree", f.grounded, "--lambda-lo", "1", "--lambda-hi", "3", "--depth", big)
        yield ("branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", big)
        yield ("branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", "3", "--tol", f"1/{big}")
        yield ("equidist", "--tree", f.finite, "--n", big)
        yield ("equidist", "--tree", f.grounded, "--n", "3", "--seed", big)
        yield ("equidist", "--tree", f.grounded, "--n", "3", "--depth", big, "--csv")
        yield ("factorials", "--gen", f"regular d=2 length={big}", "--n", "3", "--csv")
        yield ("flow", "--gen", f"spherical b=2,{big}", "--depth", "1")
        yield ("flow", "--gen", f"spherical b=2 length=1,{big}", "--depth", "2")
        yield ("flow", "--gen", f"lambda base=(regular d=2) lambda={big}", "--depth", "2")
        yield ("factorials", "--gen", f"adelic p={even} set=0,1", "--n", "1")
        yield ("factorials", "--gen", f"adelic p=2 set=0,{big}", "--n", "1")
        yield ("flow", "--gen", f"adelic p=3 set=0,{big},1", "--depth", "3")
        yield ("factorials", "--gen", f"regular d=x{big}", "--n", "1")
        for tree in (f.node_id, f.parent, f.negative_parent):
            yield ("factorials", "--tree", tree, "--n", "1")
        for seq in (f.seq_generation, f.seq_position, f.seq_values, f.seq_biased):
            yield ("realize", "--d", "2", "--seq", seq, "--verify")
        for orders in (f.orders_generation, f.orders_slot):
            yield ("realize", "--d", "2", "--seq", f.seq, "--orders", orders)

    def test_outcomes_match_the_pinned_digest(self, tmp_path):
        outcomes = []
        with digit_cap(4300):
            for argv in self.inputs(self.files(tmp_path)):
                outcome = run_cli_exit(*argv)
                assert outcome[0] in (0, 1, 2) and "Traceback" not in outcome[2]
                outcomes.append(repr(outcome))
        assert len(outcomes) == 52
        assert sum(o.startswith("(0, ") for o in outcomes) == 32
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_commands_keep_the_callers_cap(self, monkeypatch):
        # main changes no process-wide setting: the library runs under the
        # cap its caller chose.
        seen = []
        weighting = cli.factorials_weighting

        def spy(*args, **kwargs):
            seen.append(sys.get_int_max_str_digits())
            return weighting(*args, **kwargs)

        monkeypatch.setattr(cli, "factorials_weighting", spy)
        with digit_cap(5000):
            assert run_cli("factorials", "--gen", "regular d=2", "--n", "2")[0] == 0
        assert seen == [5000]

    def test_infinite_explicit_tree_past_any_list(self, tmp_path):
        path = tmp_path / "grounded.tree"
        path.write_text(serialize_tree(helpers.two_leaf_star()))
        want = f"IndexOutOfRange: requested index {self.BIG}: the terms would not fit in a list\n"
        for argv in (("factorials",), ("factorials", "--t", "1"), ("oracle-check",)):
            with digit_cap(4300), helpers.deadline(5):
                assert run_cli(*argv, "--tree", str(path), "--n", self.BIG) == (1, "", want)

    @pytest.mark.parametrize(
        "argv",
        [
            ("factorials", "--n", "1"),
            ("oracle-check", "--depth", "1", "--n", "1"),
            ("flow", "--depth", "1"),
            ("equidist", "--depth", "1", "--n", "1"),
            ("branching", "--lambda-lo", "1", "--lambda-hi", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_branching_value_past_any_list(self, argv):
        want = f"DepthBudgetExceeded: depth 0: {self.BIG} children per vertex, more than a list holds\n"
        with digit_cap(4300):
            assert run_cli(argv[0], "--gen", f"regular d={self.BIG}", *argv[1:]) == (1, "", want)

    def test_branching_depth_past_any_list(self):
        want = f"DepthBudgetExceeded: depth {self.BIG}: its levels would not fit in a list\n"
        with digit_cap(4300):
            assert run_cli(
                "branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", "3", "--depth", self.BIG
            ) == (1, "", want)

    def test_realize_width_past_any_list(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("0,1,0\n0,2,0\n1,1,2\n1,2,2\n")
        want = f"ParseError: generation 0 needs positions 1..{self.BIG}\n"
        with digit_cap(4300):
            assert run_cli("realize", "--d", self.BIG, "--seq", str(path)) == (1, "", want)


class TestFloatRange:
    """A value past the float range prints as inf; a branching evaluation
    that reaches it is divergent."""

    def test_exact_resistance_past_the_range(self, tmp_path):
        path = tmp_path / "path.tree"
        path.write_text(serialize_tree(helpers.path_tree([1] * 450, cap=INF)))
        with helpers.deadline(5):
            code, out, err = run_cli("branching", "--tree", str(path), "--lambda-lo", "1", "--lambda-hi", "5")
        assert (code, err) == (0, "") and "Traceback" not in out
        lines = out.splitlines()
        assert "# lam=5: divergent (R=inf)" in lines
        assert lines[-3:] == ["low = 1", "high = 33/32", "status = bracketed"]

    def test_lambda_past_the_range(self):
        with helpers.deadline(5):
            code, out, err = run_cli("branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", HUGE)
        assert (code, err) == (0, "") and "Traceback" not in out
        lines = out.splitlines()
        assert f"# lam={HUGE}: divergent (R=inf)" in lines
        assert lines[-1] == "status = bracketed"
        assert Fraction(lines[-3][len("low = "):]) <= 2 <= Fraction(lines[-2][len("high = "):])

    def test_walk_past_the_range(self, tmp_path):
        # Conductances 10**400 and 1: the walk from the root takes the
        # short edge to its grounded leaf every time.
        path = tmp_path / "short.tree"
        path.write_text(
            f"node 0 parent=-\nnode 1 parent=0 length=1/{HUGE} capacity=inf\n"
            "node 2 parent=0 length=1 capacity=inf\n"
        )
        code, out, err = run_cli("flow", "--tree", str(path), "--trials", "10")
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["escape = 1", "escape_mc = 1.0 (trials=10, timeouts=0)"]

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("factorials", "--n", "1", "--csv"), "1,{big},1,inf"),
            (("flow", "--float"), "resistance = inf"),
            (("branching", "--lambda-lo", HUGE, "--lambda-hi", "1" + HUGE, "--float"), "low = inf"),
            (("branching", "--lambda-lo", "1", "--lambda-hi", "2", "--tol", HUGE), "status = collapsed-high"),
        ],
        ids=["factorials-csv", "flow-float", "branching-float", "branching-tol"],
    )
    def test_printed_floats(self, tmp_path, argv, want):
        path = tmp_path / "long.tree"
        path.write_text(f"node 0 parent=-\nnode 1 parent=0 length={HUGE} capacity=inf\n")
        code, out, err = run_cli(argv[0], "--tree", str(path), *argv[1:])
        assert (code, err) == (0, "")
        assert want.format(big=HUGE) in out.splitlines()


class TestRealize:
    def seq_file(self, tmp_path, rows):
        path = tmp_path / "seq.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_build_and_verify(self, tmp_path):
        path = self.seq_file(tmp_path, ["0,1,0", "0,2,0", "1,1,10", "1,2,12"])
        code, out, _ = run_cli("realize", "--d", "2", "--seq", path, "--verify")
        assert code == 0
        tree = parse_tree_file("\n".join(l for l in out.splitlines() if not l.startswith("# roundtrip")))
        assert tree.lengths[1:] == (10, 12)
        assert "# roundtrip: first visits match" in out
        assert "# roundtrip: full prefix match" in out

    def test_orders_file_changes_tree(self, tmp_path):
        rows = [
            "0,1,0", "0,2,0",
            "1,1,100", "1,2,130",
            "2,1,3000", "2,2,3400", "2,3,3900", "2,4,4500",
        ]
        path = self.seq_file(tmp_path, rows)
        orders = tmp_path / "orders.txt"
        orders.write_text("2: 0,2,1,3\n")
        _, out_a, _ = run_cli("realize", "--d", "2", "--seq", path)
        code, out_b, _ = run_cli("realize", "--d", "2", "--seq", path, "--orders", str(orders))
        assert code == 0
        assert out_a != out_b

    def test_not_biased_is_domain_error(self, tmp_path):
        path = self.seq_file(tmp_path, ["0,1,0", "0,2,0", "1,1,10", "1,2,12",
                                        "2,1,30", "2,2,31", "2,3,32", "2,4,33"])
        code, _, err = run_cli("realize", "--d", "2", "--seq", path)
        assert code == 1
        assert err.startswith("NotBiased:")

    def test_tree_missing_its_targets_is_a_mismatch(self, tmp_path):
        # The table passes the bias check and every computed length lies in
        # its window, but the second child of the first generation-1 vertex
        # gets length 350 - 3*36 = 242 and is first visited at 314, before
        # its sibling; no tree is printed, with or without --verify.
        rows = ["0,1,0", "0,2,0", "1,1,36", "1,2,41", "2,1,344", "2,2,350", "2,3,350", "2,4,362"]
        path = self.seq_file(tmp_path, rows)
        want = (1, "", "Mismatch: generation 2, position 1: first visit at 380, wanted 344\n")
        assert run_cli("realize", "--d", "2", "--seq", path) == want
        assert run_cli("realize", "--d", "2", "--seq", path, "--verify") == want

    @pytest.mark.parametrize("d, rows", [
        (2, ["0,1,0", "0,2,0", "1,1,1", "1,2,1000"]),
        (3, ["0,1,0", "0,2,0", "0,3,0", "1,1,1", "1,2,2", "1,3,1000"]),
    ])
    def test_late_first_visit_is_within_the_step_budget(self, tmp_path, d, rows):
        # The last vertex is first visited after about 1000 steps, far past
        # 2 * d**(depth + 1); the run goes on until it is.
        code, out, err = run_cli("realize", "--d", str(d), "--seq", self.seq_file(tmp_path, rows), "--verify")
        assert (code, err) == (0, "")
        tree = parse_tree_file("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert tree.lengths[1:] == tuple(Fraction(r.split(",")[2]) for r in rows[d:])
        assert "# roundtrip: first visits match" in out

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_printed_tree_realizes_its_table(self, tmp_path_factory, data):
        """On random nondecreasing tables, ties allowed, exit 0 prints the
        tree that --verify prints and that passes verify_roundtrip; any other
        run is exit 1 with Mismatch or NotBiased and nothing on stdout."""
        d, depth = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        groups, running = [(0,) * d], 0
        for n in range(1, depth + 1):
            value = max(1, 2 * d**n * running + data.draw(st.integers(-3, 40)))
            group = []
            for _ in range(d**n):
                group.append(value)
                value += data.draw(st.sampled_from((0, 1, 2, 5)) | st.integers(0, value))
            groups.append(tuple(group))
            running += group[-1]
        rows = [f"{n},{i},{v}" for n, group in enumerate(groups) for i, v in enumerate(group, 1)]
        path = self.seq_file(tmp_path_factory.mktemp("realize"), rows)
        code, out, err = run_cli("realize", "--d", str(d), "--seq", path)
        checked = run_cli("realize", "--d", str(d), "--seq", path, "--verify")
        if code == 0:
            assert checked[0] == 0 and checked[1].startswith(out)
            report = verify_roundtrip(BiasedSequence(d, tuple(groups)))
            assert serialize_tree(report.tree) == out
        else:
            assert (code, out) == (1, "") and err.split(":")[0] in ("Mismatch", "NotBiased")
            assert checked == (code, out, err)

    def test_zero_denominator_is_a_parse_error(self, tmp_path):
        path = self.seq_file(tmp_path, ["0,1,0", "0,2,1/0"])
        code, _, err = run_cli("realize", "--d", "2", "--seq", path)
        assert code == 1
        assert err.startswith("ParseError:")

    def test_bad_rows_are_parse_errors(self, tmp_path):
        path = self.seq_file(tmp_path, ["0,1,0", "0,2,0", "1,1"])
        code, _, err = run_cli("realize", "--d", "2", "--seq", path)
        assert code == 1
        assert err.startswith("ParseError:")


class TestEquidist:
    def test_report_line(self):
        code, out, _ = run_cli("equidist", "--gen", "regular d=2", "--n", "256", "--depth", "2")
        assert code == 0
        assert out.startswith("max_deviation = ")

    def test_csv_rows(self):
        code, out, _ = run_cli("equidist", "--gen", "regular d=2", "--n", "64", "--depth", "2", "--csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "address,depth,omega_tilde,eta,deviation"
        assert len(lines) == 7
        assert lines[1].split(",")[0] in {"0", "1"}
        assert any(line.split(",")[0].count(".") == 1 for line in lines[1:])

    def test_tree_depth_defaults_to_height(self, tmp_path):
        path = tmp_path / "binary.tree"
        path.write_text(serialize_tree(helpers.binary_tree(2)))
        implicit = run_cli("equidist", "--tree", str(path), "--n", "64", "--csv")
        assert implicit == run_cli("equidist", "--tree", str(path), "--n", "64", "--csv", "--depth", "2")
        code, out, _ = implicit
        assert code == 0 and len(out.splitlines()) == 7


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        code, _, err = run_cli("factorials", "--tree", "/nonexistent.tree", "--n", "3")
        assert code == 2
        assert "cannot read input" in err
        seq = tmp_path / "seq.csv"
        seq.write_text("0,1,0\n0,2,0\n1,1,10\n1,2,12\n")
        missing = str(tmp_path / "missing.txt")
        for argv in (("--seq", missing), ("--seq", str(seq), "--orders", missing)):
            code, out, err = run_cli("realize", "--d", "2", *argv)
            assert code == 2 and out == ""
            assert err.startswith("cannot read input")

    def test_oserror_during_computation_propagates(self, monkeypatch):
        # only reading an input file maps OSError to exit code 2
        def alarm(*args, **kwargs):
            raise TimeoutError("deadline passed")

        monkeypatch.setattr(cli, "factorials_weighting", alarm)
        with pytest.raises(TimeoutError):
            run_cli("factorials", "--gen", "regular d=2", "--n", "3")

    def test_domain_error(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("node 0 parent=-\nnode 1 parent=0 length=0\n")
        code, _, err = run_cli("factorials", "--tree", str(path), "--n", "3")
        assert code == 1
        assert err.startswith("ParseError:")

    def test_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run_cli("factorials", "--n", "3")
        assert e.value.code == 2

    def test_negative_t_is_domain_error(self):
        code, out, err = run_cli("factorials", "--gen", "regular d=2", "--n", "3", "--t", "-1")
        assert (code, out, err) == (1, "", "StructureError: t must be >= 0\n")

    @pytest.mark.parametrize(
        "kind, text, want",
        [
            ("tree", "nod 0 parent=-", "ParseError: line 1: expected 'node', got 'nod'"),
            ("tree", "node 0", "ParseError: line 1: need at least 'node <id> parent=<id|->'"),
            ("tree", "node x parent=-", "ParseError: line 1: bad node id 'x'"),
            ("tree", "node 0 parent", "ParseError: line 1: bad field 'parent'"),
            ("tree", "node 0 parent=- parent=-", "ParseError: line 1: bad field 'parent=-'"),
            ("tree", "node 0 capacity=1", "ParseError: line 1: missing parent field"),
            ("tree", "node 0 parent=-\nnode 1 parent=x length=1", "ParseError: line 2: bad parent 'x'"),
            ("tree", "node 0 parent=1 length=1", "ParseError: line 1: node 0 must have parent=-"),
            ("tree", "node 0 parent=-\nnode 1 parent=0 length=1 capacity=0", "ParseError: line 2: bad capacity '0'"),
            ("gen", "lambda base=(regular d=2 lambda=2", "ParseError: unbalanced '(' in generator spec"),
            ("gen", "regular d=2)", "ParseError: unbalanced ')' in generator spec"),
            ("gen", "regular d", "ParseError: bad generator field 'd'"),
            ("gen", "lambda base=regular d=2 lambda=2",
             "ParseError: lambda spec takes fields ['base', 'lambda'], got ['base', 'd', 'lambda']"),
            ("gen", "lambda base=regular lambda=2", "ParseError: lambda base spec must be parenthesized"),
            ("gen", "spherical b=2,-1", "StructureError: branching values must be >= 0"),
            ("gen", "adelic p=2 set=1,1", "StructureError: set elements must be distinct"),
            ("seq", "# no rows", "ParseError: empty sequence file"),
            ("seq", "0,1,0\n0,2,0\n1,1,10", "ParseError: generation 1 needs positions 1..2"),
            ("orders", "1 0,1", "ParseError: line 1: expected 'generation: slot,slot,...'"),
            ("orders", "1: 0,x", "ParseError: line 1: bad order row '1: 0,x'"),
        ],
    )
    def test_rejected_input(self, tmp_path, kind, text, want):
        path = tmp_path / "input"
        path.write_text(text + "\n")
        seq = tmp_path / "seq.csv"
        seq.write_text("0,1,0\n0,2,0\n1,1,10\n1,2,12\n")
        argv = {
            "tree": ("factorials", "--tree", str(path), "--n", "2"),
            "gen": ("factorials", "--gen", text, "--n", "2"),
            "seq": ("realize", "--d", "2", "--seq", str(path)),
            "orders": ("realize", "--d", "2", "--seq", str(seq), "--orders", str(path)),
        }[kind]
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (1, "", want + "\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("branching", "--gen", "regular d=2", "--lambda-lo", "x", "--lambda-hi", "2"),
            ("branching", "--gen", "regular d=2", "--lambda-lo", "1/0", "--lambda-hi", "2"),
            ("branching", "--gen", "regular d=2", "--lambda-lo", "1", "--lambda-hi", "2", "--tol", "1/0"),
            ("adelic", "--set", "a,b", "--n", "1"),
        ],
        ids=["lambda-junk", "lambda-zero-denominator", "tol-zero-denominator", "set-junk"],
    )
    def test_malformed_number_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as e:
            run_cli(*argv)
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [("oracle-check", "--n", "4"), ("flow",), ("equidist", "--n", "4")], ids=" ".join)
    def test_every_truncating_command_needs_depth_with_gen(self, argv):
        code, out, err = run_cli(argv[0], "--gen", "regular d=2", *argv[1:])
        assert (code, out, err) == (1, "", "ParseError: --depth is required with --gen\n")

    def test_tree_and_gen_conflict(self, star3):
        with pytest.raises(SystemExit) as e:
            run_cli("factorials", "--tree", star3, "--gen", "regular d=2", "--n", "3")
        assert e.value.code == 2


@st.composite
def adelic_argv(draw):
    """An adelic command line: a set of 1- to 40-digit integers of either
    sign, maybe with a duplicate, --n within 2 of |S|, and maybe a --p that
    is prime, composite, below 2 or at least 3.3e24 (its primality is then
    not proven)."""
    digits = st.integers(1, 40).flatmap(lambda k: st.integers(0, 10**k - 1))
    signed = st.tuples(st.sampled_from((1, -1)), digits).map(lambda t: t[0] * t[1])
    elements = draw(st.lists(signed, min_size=1, max_size=8, unique=True))
    if draw(st.sampled_from((False, False, False, True))):
        elements.insert(draw(st.integers(0, len(elements))), draw(st.sampled_from(elements)))
    n = len(elements) - draw(st.sampled_from((1, 2, 0, -1)))
    argv = ["adelic", f"--set={','.join(map(str, elements))}", f"--n={n}"]
    if draw(st.booleans()):
        p = draw(
            st.sampled_from((2, 3, 5, 97, 10**9 + 7, 2**61 - 1, 2**89 - 1))
            | st.integers(-3, 10**6)
            | st.integers(3_317_044_064_679_887_385_961_981, 10**40)
        )
        argv.append(f"--p={p}")
    if draw(st.booleans()):
        argv.append("--csv")
    return argv


@st.composite
def realize_inputs(draw):
    """(argv, sequence file, orders file or None) for realize: a d-ary table
    of depth 1 or 2 that is sufficiently biased by construction or drawn at
    random, maybe with a row dropped, and maybe processing orders that are
    permutations or not."""
    d, depth = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    values = st.integers(-1, 60).map(Fraction) | st.fractions(0, 60, max_denominator=3)
    rows, running = [(0, i, Fraction(0)) for i in range(1, d + 1)], Fraction(0)
    biased = draw(st.booleans())
    for n in range(1, depth + 1):
        if biased:
            # Above the bound even when a drawn value is -1.
            start = 2 * d**n * running + draw(st.integers(2, 6))
            group = sorted(start + draw(values) for _ in range(d**n))
        else:
            group = draw(st.lists(values, min_size=d**n, max_size=d**n))
        running += group[-1]
        rows += [(n, i, v) for i, v in enumerate(group, 1)]
    if draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    seq = "".join(f"{n},{i},{format_length(v)}\n" for n, i, v in rows)
    orders = None
    if draw(st.booleans()):
        perms = {}
        for n in draw(st.lists(st.integers(0, depth + 1), max_size=3, unique=True)):
            size = d if n == 0 else d**n
            perms[n] = draw(st.permutations(range(size)) | st.lists(st.integers(-1, size), max_size=size + 1))
        orders = "".join(f"{n}: {','.join(map(str, perm))}\n" for n, perm in perms.items())
    argv = ["realize", f"--d={d}"] + (["--verify"] if draw(st.booleans()) else [])
    return argv, seq, orders


@st.composite
def tree_file_inputs(draw):
    """(argv without --tree, tree file text): a path of up to 3,000 edges or
    a star of up to 500 leaves, leaf capacities 1, 2 or inf, and each edge
    length drawn from a pool of up to 3 rationals whose numerators and
    denominators have 1 to 400 digits (or 1).  The pool bounds the size of
    the exact answers: k distinct d-digit denominators give values of up to
    k*d digits."""
    # Each size range is drawn with its ends weighted up.
    digits = (st.sampled_from((1, 400)) | st.integers(1, 400)).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))
    pool = draw(st.lists(st.just(Fraction(1)) | st.builds(Fraction, digits, digits), min_size=1, max_size=3))
    caps = (1, 2, INF)
    # Per-edge choices come from a seeded stream: 3,000 draws would overrun
    # an example's data.
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        k = draw(st.sampled_from((1, 3000)) | st.integers(1, 3000))
        tree = helpers.path_tree([rng.choice(pool) for _ in range(k)], rng.choice(caps))
    else:
        k = draw(st.sampled_from((1, 500)) | st.integers(1, 500))
        tree = helpers.star([rng.choice(pool) for _ in range(k)], [rng.choice(caps) for _ in range(k)])
    n = str(draw(st.integers(0, 4)))
    argv = draw(
        st.sampled_from(
            [
                ("factorials", "--n", n),
                ("factorials", "--n", n, "--t", "1", "--csv"),
                ("oracle-check", "--n", n),
                ("flow",),
                ("flow", "--csv"),
                ("flow", "--trials", "3", "--seed", n),
                ("equidist", "--n", n),
                ("equidist", "--n", n, "--csv"),
                ("branching", "--lambda-lo", "1", "--lambda-hi", "2"),
            ]
        )
    )
    return argv, serialize_tree(tree)


# Arguments that make each subcommand reading a tree run; the sweep below
# feeds every one of them degenerate trees.
SWEEP = {
    "factorials": [("--n", "0"), ("--n", "3"), ("--n", "3", "--t", "1"), ("--n", "2", "--trace", "--csv")],
    "oracle-check": [("--n", "2"), ("--n", "2", "--depth", "2")],
    "flow": [(), ("--csv",), ("--float",), ("--trials", "3"), ("--depth", "2")],
    "branching": [("--lambda-lo", "1", "--lambda-hi", "2"), ("--lambda-lo", "1", "--lambda-hi", "2", "--depth", "8")],
    "equidist": [("--n", "2"), ("--n", "2", "--depth", "2", "--csv")],
}


class TestRobustnessSweep:
    """Every outcome is an exit code: 0, 1 (domain error) or 2 (usage), with
    nothing on stdout unless it is 0.  An exception escaping main, which a
    shell would show as a traceback, fails the test."""

    def test_sweep_covers_every_tree_command(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        reads_tree = {name for name, p in sub.choices.items() if "--tree" in p._option_string_actions}
        assert reads_tree == set(SWEEP)

    @pytest.mark.parametrize("cap", ["inf", "2"])
    @pytest.mark.parametrize(
        "argv", [(cmd, *extra) for cmd, runs in SWEEP.items() for extra in runs], ids=" ".join
    )
    def test_one_vertex_tree(self, tmp_path, cap, argv):
        path = tmp_path / "root.tree"
        path.write_text(f"node 0 parent=- capacity={cap}\n")
        code, out, err = run_cli_exit(argv[0], "--tree", str(path), *argv[1:])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 0:
            assert out == ""

    @staticmethod
    def twice(argv):
        """Run argv twice; each outcome is an exit code, and both agree."""
        with helpers.deadline(5):
            first = run_cli_exit(*argv)
        with helpers.deadline(5):
            assert run_cli_exit(*argv) == first
        code, out, err = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 0:
            assert out == ""

    @settings(max_examples=80, deadline=None)
    @given(adelic_argv())
    def test_adelic_sweep(self, argv):
        self.twice(argv)

    @settings(max_examples=40, deadline=None)
    @given(tree_file_inputs())
    def test_tree_file_sweep(self, tmp_path_factory, inputs):
        (cmd, *extra), text = inputs
        path = tmp_path_factory.mktemp("sweep") / "input.tree"
        path.write_text(text)
        self.twice([cmd, "--tree", str(path), *extra])

    @settings(max_examples=80, deadline=None)
    @given(realize_inputs())
    def test_realize_sweep(self, tmp_path_factory, inputs):
        argv, seq, orders = inputs
        workdir = tmp_path_factory.mktemp("realize")
        (workdir / "seq.csv").write_text(seq)
        argv += ["--seq", str(workdir / "seq.csv")]
        if orders is not None:
            (workdir / "orders.txt").write_text(orders)
            argv += ["--orders", str(workdir / "orders.txt")]
        self.twice(argv)
