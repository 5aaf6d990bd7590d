import argparse
import copy
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from riskcalc import (
    DominanceConstraint,
    InfoPartition,
    MaxAffineIntegrand,
    ProbSpace,
    ProblemSpec,
    RandomVariable,
    SolveOptions,
    SpectralMeasure,
    cli,
    dominance,
)
from riskcalc.cli import load_problem, run_command
from riskcalc.errors import InvariantViolation, ProblemFormatError
from riskcalc.solver import CERT_TOL
from tests.conftest import instance_path


def minimal_doc():
    """Smallest valid problem: one scenario, one coordinate."""
    return {
        "space": {"probs": [1.0]},
        "objective": {
            "risk": {"kind": "expectation"},
            "integrand": [[{"a": [1.0], "b": 0.0}]],
        },
        "constraint": {
            "integrand": [[{"a": [1.0], "b": 0.0}]],
            "benchmark": [-10.0],
            "interval": [1.0, 1.0],
            "grid": [1.0],
        },
        "feasible_box": {"lower": [0.0], "upper": [1.0]},
    }


def write_doc(tmp_path, doc, name="problem.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def expect_code(tmp_path, doc, code):
    path = write_doc(tmp_path, doc)
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert err.value.code == code
    return err.value


def run(argv, capsys):
    exit_code = run_command(argv)
    captured = capsys.readouterr()
    return exit_code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def strip_timestamp(out):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', out)


class TestDiagnosticCodes:
    def test_minimal_document_loads(self, tmp_path):
        path = write_doc(str(tmp_path), minimal_doc())
        loaded = load_problem(path)
        assert loaded.spec.space.size == 1
        assert loaded.spec.dim == 1

    def test_io_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError) as err:
            load_problem(os.path.join(str(tmp_path), "nope.json"))
        assert err.value.code == "E_IO"

    def test_json_malformed(self, tmp_path):
        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(ProblemFormatError) as err:
            load_problem(path)
        assert err.value.code == "E_JSON"

    def test_section_missing(self, tmp_path):
        doc = minimal_doc()
        del doc["objective"]
        expect_code(str(tmp_path), doc, "E_SECTION")

    def test_type_wrong_section_shape(self, tmp_path):
        doc = minimal_doc()
        doc["space"] = "not an object"
        expect_code(str(tmp_path), doc, "E_TYPE")

    def test_value_nonfinite(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["benchmark"] = [float("inf")]
        expect_code(str(tmp_path), doc, "E_VALUE")

    def test_prob_sum(self, tmp_path):
        doc = minimal_doc()
        doc["space"]["probs"] = [0.9]
        err = expect_code(str(tmp_path), doc, "E_PROB_SUM")
        assert "0.9" in err.detail

    def test_prob_positive(self, tmp_path):
        doc = minimal_doc()
        doc["space"]["probs"] = [1.5, -0.5]
        doc["objective"]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 2
        doc["constraint"]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 2
        doc["constraint"]["benchmark"] = [-10.0, -10.0]
        expect_code(str(tmp_path), doc, "E_PROB_POSITIVE")

    def test_dimension_piece_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["objective"]["integrand"] = [
            [{"a": [1.0], "b": 0.0}, {"a": [1.0, 2.0], "b": 0.0}]
        ]
        expect_code(str(tmp_path), doc, "E_DIMENSION")

    def test_dimension_box_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["feasible_box"]["lower"] = [0.0, 0.0]
        expect_code(str(tmp_path), doc, "E_DIMENSION")

    def test_grid_domain_zero_level(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["interval"] = [0.0, 1.0]
        doc["constraint"]["grid"] = [0.0, 1.0]
        expect_code(str(tmp_path), doc, "E_GRID_DOMAIN")

    def test_grid_order(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["interval"] = [0.5, 1.0]
        doc["constraint"]["grid"] = [1.0, 0.5]
        expect_code(str(tmp_path), doc, "E_GRID_ORDER")

    def test_interval_shape(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["interval"] = [0.5]
        expect_code(str(tmp_path), doc, "E_INTERVAL")

    def test_interval_bounds(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["interval"] = [0.9, 0.5]
        expect_code(str(tmp_path), doc, "E_INTERVAL")

    def test_partition_overlap(self, tmp_path):
        doc = minimal_doc()
        doc["space"]["probs"] = [0.5, 0.5]
        doc["objective"]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 2
        doc["constraint"]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 2
        doc["constraint"]["benchmark"] = [-10.0, -10.0]
        doc["partition"] = {"blocks": [[0, 1], [1]]}
        expect_code(str(tmp_path), doc, "E_PARTITION")

    def test_box_order(self, tmp_path):
        doc = minimal_doc()
        doc["feasible_box"]["lower"] = [2.0]
        expect_code(str(tmp_path), doc, "E_BOX")

    def test_risk_unknown_kind(self, tmp_path):
        doc = minimal_doc()
        doc["objective"]["risk"] = {"kind": "entropic"}
        expect_code(str(tmp_path), doc, "E_RISK")

    def test_risk_bad_level(self, tmp_path):
        doc = minimal_doc()
        doc["objective"]["risk"] = {"kind": "avar", "level": 1.5}
        expect_code(str(tmp_path), doc, "E_RISK")

    def test_pieces_empty_scenario(self, tmp_path):
        doc = minimal_doc()
        doc["objective"]["integrand"] = [[]]
        expect_code(str(tmp_path), doc, "E_PIECES")

    def test_benchmark_length(self, tmp_path):
        doc = minimal_doc()
        doc["constraint"]["benchmark"] = [0.0, 1.0]
        expect_code(str(tmp_path), doc, "E_BENCHMARK")

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("space", "probs", [0.75, -0.5, 0.75],
             "E_PROB_POSITIVE at space.probs: probabilities must be strictly positive:"
             " probs[1] = -0.5\n"),
            ("space", "probs", [0.5, 0.0, 0.5], "E_PROB_POSITIVE at space.probs:"),
            ("space", "probs", [0.3, 0.3, 0.3], "E_PROB_SUM at space.probs:"),
            ("constraint", "interval", [0.9, 0.5], "E_INTERVAL at constraint.interval:"),
            ("constraint", "interval", [0.0, 0.5], "E_INTERVAL at constraint.interval:"),
            ("constraint", "interval", [0.5, 1.5], "E_INTERVAL at constraint.interval:"),
            ("constraint", "grid", [0.4, 0.5, 1.0],
             "E_GRID_DOMAIN at constraint.grid: grid levels must be finite and lie in"
             " (0, 1], inside [0.5, 1.0]: grid[0] = 0.4\n"),
            ("constraint", "grid", [0.5, 1.0, 1.2], "E_GRID_DOMAIN at constraint.grid:"),
            ("constraint", "grid", [0.5, 1.0, 0.75], "E_GRID_ORDER at constraint.grid:"),
            ("constraint", "grid", [0.5, 1.0, 0.75, 1.2], "E_GRID_DOMAIN at constraint.grid:"),
            ("constraint", "grid", [0.75, 1.0], "E_GRID_DOMAIN at constraint.grid:"),
            ("constraint", "grid", [0.5, 0.75], "E_GRID_DOMAIN at constraint.grid:"),
            ("constraint", "grid", [0.5, 0.75, 0.75, 1.0], "E_GRID_ORDER at constraint.grid:"),
            ("feasible_box", "lower", [2.0], "E_BOX at feasible_box:"),
        ],
    )
    def test_value_rules_exit_2_at_their_section(
        self, tmp_path, section, key, value, expected, capsys
    ):
        # ProbSpace, DominanceConstraint and ProblemSpec raise these codes;
        # the reader reports each at its section, with plain floats
        doc = minimal_doc()
        doc["space"]["probs"] = [0.25, 0.25, 0.5]
        doc["objective"]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 3
        doc["constraint"].update(
            integrand=[[{"a": [1.0], "b": 0.0}]] * 3,
            benchmark=[-10.0, -9.0, -8.0],
            interval=[0.5, 1.0],
            grid=[0.5, 0.75, 1.0],
        )
        assert run(["eval", "--problem", write_doc(str(tmp_path), doc)], capsys)[0] == 0
        doc[section][key] = value
        code, out, err = run(["eval", "--problem", write_doc(str(tmp_path), doc)], capsys)
        assert code == 2
        assert err.startswith(expected)
        assert out == ""
        assert "np." not in err

    def test_usage_missing_problem_flag(self, capsys):
        # argparse enforces the flag itself; still a code-2 usage failure
        code, _, err = run(["solve"], capsys)
        assert code == 2
        assert "--problem" in err

    def test_usage_unparseable_point_value(self, capsys):
        code, _, err = run(
            [
                "eval",
                "--problem",
                instance_path("median"),
                "--lorenz",
                "p=half",
            ],
            capsys,
        )
        assert code == 2
        assert "E_USAGE" in err

    def test_format_errors_exit_2_with_code_on_stderr(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["space"]["probs"] = [0.9]
        path = write_doc(str(tmp_path), doc)
        code, out, err = run(["eval", "--problem", path], capsys)
        assert code == 2
        assert err.startswith("E_PROB_SUM")
        assert out == ""

    def test_invariant_violation_exits_3(self, monkeypatch, capsys):
        # a disagreement of the exact dominance routes is a bug, not bad input
        def disagree(gaps):
            raise InvariantViolation("routes disagree")

        monkeypatch.setattr(cli, "_first_order", disagree)
        code, out, err = run(
            ["dominance", "--problem", instance_path("omega4_staircase")], capsys
        )
        assert code == 3
        assert err == "E_INVARIANT: routes disagree\n"
        assert out == ""

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        # a crash is a bug, not a rejected certificate (exit 1)
        def crash(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "certify", crash)
        code, out, err = run(
            ["certify", "--problem", instance_path("active_scalar")], capsys
        )
        assert code == 3
        assert err == "E_INTERNAL: ValueError: boom\n"
        assert out == ""

    @pytest.mark.parametrize("field", ["gamma0", "tol_feas"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_solver_option_is_a_type_error(self, tmp_path, field, value, capsys):
        # json reads NaN and Infinity; a NaN gamma0 failed mid-loop, and a NaN
        # tol_feas, when it was an option, left median.json infeasible; it is
        # an unknown key now, rejected before its value is read
        with open(instance_path("median"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["solver"][field] = value
        path = write_doc(str(tmp_path), doc)
        code, out, err = run(["solve", "--problem", path], capsys)
        assert code == 2
        assert err.startswith(f"E_TYPE at solver.{field}:")
        assert out == ""

    @pytest.mark.parametrize(
        "instance, edit, expected",
        [
            ("median", lambda d: d.update(solver={"iter": 5, "gama0": 0.1}),
             "E_TYPE at solver.iter:"),
            ("i05_block_medians", lambda d: d.update(partiton=d.pop("partition")),
             "E_SECTION at partiton:"),
            ("i01_median_kinks", lambda d: d["objective"]["risk"].update(levle=0.5),
             "E_TYPE at objective.risk.levle:"),
            ("i01_median_kinks", lambda d: d["feasible_box"].update(uper=[9.0]),
             "E_TYPE at feasible_box.uper:"),
            ("i01_median_kinks", lambda d: d["constraint"].update(gird=[1.0]),
             "E_TYPE at constraint.gird:"),
            ("i01_median_kinks", lambda d: d["space"].update(lables=["a", "b", "c"]),
             "E_TYPE at space.lables:"),
            ("i05_block_medians", lambda d: d["partition"].update(blcoks=[[0]]),
             "E_TYPE at partition.blcoks:"),
            ("i01_median_kinks", lambda d: d["objective"]["integrand"][0][0].update(c=1.0),
             "E_TYPE at objective.integrand[0][0].c:"),
            ("median", lambda d: d["space"].update(labels=None), "E_TYPE at space.labels:"),
            ("median", lambda d: d["space"].update(labels=0), "E_TYPE at space.labels:"),
            ("median", lambda d: d["space"].update(labels=False), "E_TYPE at space.labels:"),
            ("median", lambda d: d["space"].update(labels=""), "E_TYPE at space.labels:"),
            ("median", lambda d: d["space"].update(labels={}), "E_TYPE at space.labels:"),
            ("median", lambda d: d["solver"].update(tol_feas=1e-6), "E_TYPE at solver.tol_feas:"),
        ],
        ids=[
            "solver-option", "section", "risk-key", "box-key", "constraint-key",
            "space-key", "partition-key", "piece-key", "labels-null", "labels-zero",
            "labels-false", "labels-empty-string", "labels-object", "solver-tol-feas",
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, instance, edit, expected, capsys):
        # a misspelt key was ignored: median.json ran 20,000 iterations, and
        # i05 without its partition solved the deterministic problem; labels
        # that are not one string per scenario, a key of the wrong type, were
        # dropped or crashed the reader (exit 3); tol_feas is no solver key,
        # as feasible means no violation
        with open(instance_path(instance), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = write_doc(str(tmp_path), doc)
        code, out, err = run(["solve", "--problem", path, "--iters", "300"], capsys)
        assert code == 2
        assert err.startswith(expected)
        assert out == ""

    @pytest.mark.parametrize(
        "field, value",
        [("iters", 0), ("iters", 2.5), ("gamma0", 0), ("gamma0", -1.0)],
    )
    def test_solver_option_out_of_range(self, tmp_path, field, value):
        doc = minimal_doc()
        doc["solver"] = {field: value}
        err = expect_code(str(tmp_path), doc, "E_TYPE")
        assert err.path == f"solver.{field}"

    @pytest.mark.parametrize("command", ["solve", "certify"])
    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iteration_budget_below_one_is_a_domain_error(self, command, iters, capsys):
        # median.json has no meta.x_hat, so certify solves first
        code, out, err = run(
            [command, "--problem", instance_path("median"), "--iters", iters], capsys
        )
        assert code == 2
        assert err.startswith("E_DOMAIN")
        assert out == ""

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
    def test_certify_tolerance_is_a_domain_error(self, tol, capsys):
        # tol = inf stopped the search at once and accepted i02's meta.x_hat
        # with residual 1.0; tol = -1 rejected it with residual 0.0
        argv = ["certify", "--problem", instance_path("i02_active_scalar"), f"--tol={tol}"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("E_DOMAIN: tol must be a finite number >= 0")
        assert out == ""

    def test_certify_zero_tolerance_runs(self, capsys):
        code, out, _ = run(
            ["certify", "--problem", instance_path("i02_active_scalar"), "--tol=0"], capsys
        )
        assert code == 0
        assert report_of(out)["results"]["residual"] == 0.0


    def test_readme_lists_the_codes_the_reader_emits(self):
        # a deleted check must not leave a documented code that nothing emits:
        # the reader's own codes, and those the library constructors it calls
        # raise on a value rule (it reports them by their code)
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            (listed,) = re.findall(r"The codes:\s*`([^`]*)`", fh.read())
        emitted = set(re.findall(r'_fail\(\s*"(E_[A-Z_]+)"', inspect.getsource(cli)))
        constructors = (
            ProbSpace, InfoPartition, SpectralMeasure, MaxAffineIntegrand,
            RandomVariable, DominanceConstraint, ProblemSpec, SolveOptions,
        )
        for cls in constructors:
            assert getattr(cli, cls.__name__) is cls
            emitted |= set(re.findall(r'code="(E_[A-Z_]+)"', inspect.getsource(cls)))
        assert set(listed.split()) == emitted
        assert len(listed.split()) == len(set(listed.split())) == 17


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    FLAGS = {
        "eval": {"--problem", "--out", "--cdf", "--quantile", "--integrated", "--lorenz", "--avar"},
        "dominance": {"--problem", "--out", "--compare"},
        "solve": {"--problem", "--out", "--iters"},
        "certify": {"--problem", "--out", "--iters", "--tol", "--x"},
    }

    def test_each_subcommand_has_exactly_its_flags(self):
        (subparsers,) = [
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert found == self.FLAGS
        assert sum(map(len, found.values())) == 18

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--problem", instance_path("median"), "--tol=nan"],
            ["solve", "--problem", instance_path("median"), "--tol=-5", "--iters", "10"],
            ["dominance", "--problem", instance_path("median"), "--iters", "3"],
            ["certify", "--problem", instance_path("median"), "--seed", "1"],
            ["eval", "--problem", instance_path("median"), "--x", "1.5"],
            ["solve", "--problem", instance_path("median"), "--compare", "1,2"],
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""

    def test_report_shows_the_default_tolerance_without_a_tol_flag(self, capsys):
        code, out, _ = run(["solve", "--problem", instance_path("median"), "--iters", "10"], capsys)
        assert code == 0
        assert report_of(out)["tolerances"]["tol"] == CERT_TOL


class TestCommands:
    def test_eval_staircase_lorenz(self, capsys):
        code, out, _ = run(
            [
                "eval",
                "--problem",
                instance_path("omega4_staircase"),
                "--lorenz",
                "p=0.5",
                "--avar",
                "0.5",
            ],
            capsys,
        )
        assert code == 0
        report = report_of(out)
        lorenz_rows = report["results"]["lorenz"]
        assert lorenz_rows == [{"p": 0.5, "value": 0.75}]
        avar_row = report["results"]["avar"][0]
        assert avar_row["lower"] == -1.5
        assert avar_row["upper"] == 3.5

    def test_eval_quantile_and_cdf(self, capsys):
        code, out, _ = run(
            [
                "eval",
                "--problem",
                instance_path("omega4_staircase"),
                "--quantile",
                "p=0.5",
                "--cdf",
                "eta=2.0",
                "--integrated",
                "eta=3.0",
            ],
            capsys,
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["quantile"][0]["value"] == 2.0
        assert res["cdf"][0]["value"] == 0.5
        assert res["integrated_cdf"][0]["value"] == 0.75

    def test_dominance_self_comparison(self, capsys):
        code, out, _ = run(
            ["dominance", "--problem", instance_path("omega4_staircase")],
            capsys,
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["first_order"] is True
        assert res["second_order"] is True
        assert res["first_order_margin"] == 0.0
        assert res["second_order_margin"] == 0.0

    def test_dominance_compare_flag(self, capsys):
        code, out, _ = run(
            [
                "dominance",
                "--problem",
                instance_path("omega4_staircase"),
                "--compare",
                "2,3,4,5",
            ],
            capsys,
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["first_order"] is True and res["second_order"] is True
        assert res["second_order_margin"] > 0

    def test_dominance_margin_sign_is_the_verdict(self, tmp_path, capsys):
        # float Lorenz values put this margin at -1.1e-16 next to a true
        # verdict; the exact gap is 1/(3 * 2**54)
        doc = minimal_doc()
        doc["space"]["probs"] = [1 / 3] * 3
        for side in ("objective", "constraint"):
            doc[side]["integrand"] = [[{"a": [1.0], "b": 0.0}]] * 3
        doc["constraint"]["benchmark"] = [-2.9, -0.0, 2.8]
        path = write_doc(str(tmp_path), doc)
        code, out, _ = run(
            ["dominance", "--problem", path, "--compare=-1.3,1.5,-0.3"], capsys
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["second_order"] is True
        assert res["second_order_margin"] == float(Fraction(1, 54043195528445952))
        assert res["first_order"] is False
        assert res["first_order_margin"] < 0

    def test_dominance_margin_beyond_the_float_range_is_infinity(self, tmp_path, capsys):
        # the Lorenz gap 3.4e308 exceeds the largest float and rounds to +inf
        doc = minimal_doc()
        doc["constraint"]["benchmark"] = [-1.7e308]
        path = write_doc(str(tmp_path), doc)
        code, out, _ = run(["dominance", "--problem", path, "--compare", "1.7e308"], capsys)
        assert code == 0
        assert '"second_order_margin": Infinity' in out
        res = report_of(out)["results"]
        assert res["first_order"] is True and res["second_order"] is True
        assert res["first_order_margin"] == 0.0

    def test_dominance_compare_length_checked(self, capsys):
        code, _, err = run(
            [
                "dominance",
                "--problem",
                instance_path("omega4_staircase"),
                "--compare",
                "1,2",
            ],
            capsys,
        )
        assert code == 2
        assert "E_DIMENSION" in err

    @pytest.mark.parametrize(
        "problem, flag, text",
        [
            ("omega4_staircase", "--compare", "1,,2,3,4"),
            ("omega4_staircase", "--compare", "1,2,3,4,"),
            ("omega4_staircase", "--compare", ""),
            ("median", "--x", "1.5,"),
            ("median", "--x", ""),
        ],
    )
    def test_empty_list_entry_exits_2(self, problem, flag, text, capsys):
        # an empty entry is bad input, not an entry to drop: dropping it let
        # a five-entry list pass for four values
        command = "dominance" if flag == "--compare" else "certify"
        code, out, err = run(
            [command, "--problem", instance_path(problem), f"{flag}={text}"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"E_USAGE at {flag}: cannot parse number from ''\n"

    def test_dominance_makes_one_exact_pass(self, monkeypatch, capsys):
        # one pass builds both sides' exact distributions once, and both
        # orders' verdicts and margins come from it
        calls = []
        original = dominance._exact_distribution

        def counted(Z):
            calls.append(Z)
            return original(Z)

        monkeypatch.setattr(dominance, "_exact_distribution", counted)
        code, out, _ = run(
            [
                "dominance",
                "--problem",
                instance_path("omega4_staircase"),
                "--compare=2,3,4,5",
            ],
            capsys,
        )
        assert code == 0
        assert report_of(out)["results"]["second_order"] is True
        assert len(calls) == 2

    def test_solve_median(self, capsys):
        code, out, _ = run(
            ["solve", "--problem", instance_path("median")], capsys
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["feasible"] is True
        assert abs(res["objective"] - 0.5) < 1e-4
        assert 1.0 - 1e-3 <= res["x_hat"][0][0] <= 2.0 + 1e-3

    def test_solve_infeasible_exits_1(self, tmp_path, capsys):
        doc = minimal_doc()
        # G is capped at -1 while the benchmark needs 0
        doc["constraint"]["integrand"] = [[{"a": [0.0], "b": -1.0}]]
        doc["constraint"]["benchmark"] = [0.0]
        doc["solver"] = {"iters": 200}
        path = write_doc(str(tmp_path), doc)
        code, out, _ = run(["solve", "--problem", path], capsys)
        assert code == 1
        assert report_of(out)["results"]["feasible"] is False

    def test_certify_active_scalar(self, capsys):
        code, out, _ = run(
            ["certify", "--problem", instance_path("active_scalar")], capsys
        )
        assert code == 0
        res = report_of(out)["results"]
        assert res["accepted"] is True
        assert res["kappa"] > 0
        assert res["x_source"] == "meta"
        assert res["residual"] <= 1e-5
        assert res["c_gap"] <= 1e-8

    def test_certify_x_flag_overrides(self, capsys):
        code, out, _ = run(
            [
                "certify",
                "--problem",
                instance_path("active_scalar"),
                "--x",
                "2.5",
            ],
            capsys,
        )
        assert code == 1
        res = report_of(out)["results"]
        assert res["x_source"] == "flag"
        assert res["accepted"] is False
        assert res["residual"] > 1e-5

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2
        # selftest is gone; tests/test_acceptance.py runs its five checks
        code, out, err = run(["selftest", "--seed", "3"], capsys)
        assert code == 2
        assert "invalid choice" in err
        assert out == ""


class TestReports:
    def test_byte_determinism_modulo_timestamp(self, capsys):
        argv = [
            "eval",
            "--problem",
            instance_path("omega4_staircase"),
            "--lorenz",
            "p=0.3",
            "--avar",
            "0.7",
        ]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert strip_timestamp(out1) == strip_timestamp(out2)
        assert out1.endswith("\n")

    def test_out_flag_writes_file(self, tmp_path, capsys):
        dest = os.path.join(str(tmp_path), "report.json")
        code, out, _ = run(
            [
                "eval",
                "--problem",
                instance_path("omega4_staircase"),
                "--lorenz",
                "p=1.0",
                "--out",
                dest,
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        with open(dest, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["results"]["lorenz"][0]["value"] == 2.5
        # a missing directory is unusable input: the write raised
        # FileNotFoundError and exited 1, which reads as infeasible
        dest = os.path.join(str(tmp_path), "missing", "report.json")
        code, out, err = run(
            ["solve", "--problem", instance_path("median"), "--iters", "5", "--out", dest],
            capsys,
        )
        assert code == 2
        assert err.startswith("E_IO at --out: ")
        assert out == ""

    def test_numbers_round_trip_exactly(self, capsys):
        # 17 significant digits reproduce the double bit-for-bit
        levels = ["p=0.1", "p=0.3", "p=0.7"]
        argv = ["eval", "--problem", instance_path("omega4_staircase")]
        for lv in levels:
            argv += ["--lorenz", lv]
        _, out, _ = run(argv, capsys)
        report = report_of(out)
        from riskcalc import lorenz
        from tests.conftest import rv

        Y = rv([1.0, 2.0, 3.0, 4.0])
        for row in report["results"]["lorenz"]:
            assert row["value"] == lorenz(Y, row["p"])

    def test_report_carries_digest_and_argv(self, capsys):
        argv = ["eval", "--problem", instance_path("median")]
        _, out, _ = run(argv, capsys)
        report = report_of(out)
        assert report["inputs"]["argv"] == argv
        assert isinstance(report["inputs"]["problem_digest"], str)
        assert len(report["inputs"]["problem_digest"]) >= 32
        assert report["command"] == "eval"

    def test_problem_digest_tracks_content(self, tmp_path, capsys):
        doc = minimal_doc()
        p1 = write_doc(str(tmp_path), doc, "a.json")
        doc2 = copy.deepcopy(doc)
        doc2["feasible_box"]["upper"] = [2.0]
        p2 = write_doc(str(tmp_path), doc2, "b.json")
        _, out1, _ = run(["eval", "--problem", p1], capsys)
        _, out2, _ = run(["eval", "--problem", p2], capsys)
        d1 = report_of(out1)["inputs"]["problem_digest"]
        d2 = report_of(out2)["inputs"]["problem_digest"]
        assert d1 != d2


class TestImport:
    def test_fresh_import_leaves_out_fractions_and_decimal(self):
        # the exact dominance routes run on integers; fractions, which
        # imports decimal, would add about 3 ms to every fresh import
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import sys, riskcalc.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"
