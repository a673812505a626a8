"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import helpers
from treefactorials import INF, cli, flow, format_length, parse_tree_file, serialize_tree
from treefactorials.cli import build_parser, main


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
        # The report reads the (state, depth) network; only per-edge flows
        # and the walk need the tree vertex by vertex.
        calls = helpers.count_calls(monkeypatch, flow, "expand")
        runs = (((), []), (("--float",), []), (("--csv",), [4]), (("--trials", "50", "--seed", "1"), [4]))
        for extra, want in runs:
            calls.clear()
            code, _, _ = run_cli("flow", "--gen", "regular d=2", "--depth", "4", *extra)
            assert code == 0 and [depth for _, depth in calls] == want

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

    @pytest.mark.parametrize("cap", ["inf", "2"])
    def test_edgeless_tree_is_domain_error(self, tmp_path, cap):
        # A grounded root alone has R = 0 at every lambda: no branch to count.
        path = tmp_path / "root.tree"
        path.write_text(f"node 0 parent=- capacity={cap}\n")
        code, out, err = run_cli("branching", "--tree", str(path), "--lambda-lo", "1", "--lambda-hi", "2")
        assert (code, out) == (1, "")
        assert err.startswith("StructureError: the tree has no edge")


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
