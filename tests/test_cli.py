"""Command-line interface: output formats, exit codes, determinism."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

import helpers
from treefactorials import INF, parse_tree_file, serialize_tree
from treefactorials.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
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
        assert err.startswith("DepthBudgetExceeded:")

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


class TestExitCodes:
    def test_missing_file_is_io_error(self):
        code, _, err = run_cli("factorials", "--tree", "/nonexistent.tree", "--n", "3")
        assert code == 2
        assert "cannot read input" in err

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

    def test_tree_and_gen_conflict(self, star3):
        with pytest.raises(SystemExit) as e:
            run_cli("factorials", "--tree", star3, "--gen", "regular d=2", "--n", "3")
        assert e.value.code == 2
