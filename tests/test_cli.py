"""Command-line interface: grammar, exit codes, output contracts."""

import argparse
import math
import os
import subprocess
import sys

import pytest

from fraccalc import closed_forms as cf
from fraccalc.cli import RANGE_MAX_POINTS, _range_arg, main
from fraccalc.verify import ATOL_DERIVATIVE, TOL_DERIVATIVE


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "fraccalc", *argv], capture_output=True, text=True, timeout=120
    )


# the eight valid (operator, family) pairs
VALID_PAIRS = (
    ("rl-int", "power:gamma=0.5"),
    ("rl-int", "exp:lambda=1"),
    ("rl-int", "powerlog:nu=2"),
    ("rl-der", "power:gamma=0.5"),
    ("rl-der", "exp:lambda=1"),
    ("rl-der", "powerlog:nu=2"),
    ("weyl-int", "abspower:delta=0.5"),
    ("weyl-der", "abspower:delta=0.5"),
)


class TestRangeGrammar:
    def test_basic(self):
        assert _range_arg("0.5:2:0.5") == [0.5, 1.0, 1.5, 2.0]

    def test_stop_reached_despite_rounding(self):
        assert _range_arg("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])

    def test_single_point(self):
        assert _range_arg("1:1:0.5") == [1.0]

    def test_rejects_bad_forms(self):
        for bad in ("1:2", "1:2:0", "2:1:0.5", "a:b:c"):
            with pytest.raises(argparse.ArgumentTypeError):
                _range_arg(bad)

    # each used to loop forever, growing the list until MemoryError
    @pytest.mark.parametrize("bad", ("nan", "inf"))
    def test_non_finite_start_is_usage_error(self, bad, capsys):
        self._assert_usage_error(f"{bad}:2:0.5", capsys)

    @pytest.mark.parametrize("bad", ("nan", "inf"))
    def test_non_finite_stop_is_usage_error(self, bad, capsys):
        self._assert_usage_error(f"0.5:{bad}:0.5", capsys)

    @pytest.mark.parametrize("bad", ("nan", "inf"))
    def test_non_finite_step_is_usage_error(self, bad, capsys):
        self._assert_usage_error(f"0.5:2:{bad}", capsys)

    @staticmethod
    def _assert_usage_error(text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--op", "rl-int", "--fn", "power:gamma=0.5", "--alpha-range",
                  "0.5:0.5:0.1", "--t-range", text, "--out", "unused.csv"])
        assert exc.value.code == 2
        assert "non-finite" in capsys.readouterr().err


class TestRangeCap:
    # the point count is checked before any point is built: these ranges used to
    # grow their list until MemoryError
    def test_table_range_over_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--op", "rl-int", "--fn", "exp:lambda=1", "--alpha-range",
                  "0.5:0.5:1", "--t-range", "0.5:1e12:1e-3", "--out", "unused.csv"])
        assert exc.value.code == 2
        assert "999999999999501 points" in capsys.readouterr().err

    def test_compare_range_over_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--delta", "0.5", "--alpha", "0.25", "--t-range",
                  "0.5:1e300:1e-300", "--out", "unused.csv"])
        assert exc.value.code == 2
        assert "more than" in capsys.readouterr().err

    def test_cap_is_inclusive(self):
        assert len(_range_arg(f"1:{RANGE_MAX_POINTS}:1")) == RANGE_MAX_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match=f"{RANGE_MAX_POINTS + 1} points"):
            _range_arg(f"0:{RANGE_MAX_POINTS}:1")


class TestEval:
    def test_closed_and_oracle_agree_within_printed_error(self, capsys):
        assert main(
            ["eval", "--op", "rl-int", "--alpha", "1", "--fn", "exp:lambda=1",
             "--t", "1", "--method", "both"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        (v1, e1, m1), (v2, e2, m2) = (line.split("\t") for line in lines)
        assert (m1, m2) == ("closed-form", "oracle")
        assert float(v1) == pytest.approx(math.e - 1.0, rel=1e-12)
        assert abs(float(v1) - float(v2)) <= float(e1) + float(e2)

    # lambda t = -40: the Mittag-Leffler series summed directly printed 272.64
    # against the oracle's 0.0904, and -377.45 against -0.00116
    @pytest.mark.parametrize("op", ("rl-int", "rl-der"))
    def test_exp_at_large_negative_lambda_t_agrees(self, capsys, op):
        assert main(
            ["eval", "--op", op, "--alpha", "0.5", "--fn", "exp:lambda=-1", "--t", "40", "--method", "both"]
        ) == 0
        (v1, e1, _), (v2, e2, _) = (line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert abs(float(v1) - float(v2)) <= float(e1) + float(e2)

    # gamma of a subnormal delta leaves the doubles; the closed form exited 3 with
    # "overflow: math range error" while its value is 0 to double precision
    def test_weyl_derivative_at_subnormal_delta_agrees(self, capsys):
        assert main(
            ["eval", "--op", "weyl-der", "--alpha", "0.5", "--fn", "abspower:delta=1e-310", "--t", "2",
             "--method", "both"]
        ) == 0
        (v1, e1, _), (v2, e2, _) = (line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert abs(float(v1) - float(v2)) <= float(e1) + float(e2)

    def test_default_method_is_closed(self, capsys):
        assert main(
            ["eval", "--op", "weyl-der", "--alpha", "0.25", "--fn", "abspower:delta=0.5", "--t", "1"]
        ) == 0
        value, err, method = capsys.readouterr().out.strip().split("\t")
        assert float(value) == 0.0
        assert method == "closed-form"

    def test_domain_error_exit_code(self, capsys):
        # Weyl operators pair with abspower only
        assert main(
            ["eval", "--op", "weyl-int", "--alpha", "0.25", "--fn", "exp:lambda=1", "--t", "1"]
        ) == 3
        assert "domain error" in capsys.readouterr().err

    # a refusal names the function that refused and its bounds as that function states them
    @pytest.mark.parametrize(
        "alpha, fn, message",
        (
            ("200", "exp:lambda=1", "mittag_leffler_shifted requires |1 + a| <= 170, got 201.0"),
            ("0.5", "exp:lambda=30", "mittag_leffler_shifted requires |z| <= 50.0, got z=60.0"),
        ),
    )
    def test_mittag_leffler_refusal_names_its_function(self, capsys, alpha, fn, message):
        assert main(["eval", "--op", "rl-int", "--alpha", alpha, "--fn", fn, "--t", "2"]) == 3
        assert capsys.readouterr().err == f"fraccalc: domain error: {message}\n"

    @pytest.mark.parametrize("alpha, t", (("1", "-1"), ("2", "0")))
    def test_whole_order_exp_derivative_off_domain_exit_code(self, capsys, alpha, t):
        assert main(
            ["eval", "--op", "rl-der", "--alpha", alpha, "--fn", "exp:lambda=1", "--t", t]
        ) == 3
        assert "t > 0" in capsys.readouterr().err

    def test_whole_order_routes_agree(self, capsys):
        assert main(
            ["eval", "--op", "rl-der", "--alpha", "2", "--fn", "exp:lambda=1",
             "--t", "1", "--method", "both"]
        ) == 0
        (v1, e1, m1), (v2, e2, m2) = (line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert (m1, m2) == ("closed-form", "oracle")
        assert abs(float(v1) - float(v2)) <= float(e1) + float(e2)

    def test_convergence_error_exit_code(self, tmp_path, capsys):
        # no two rungs up to 32 nodes agree to 1e-300
        config = tmp_path / "quad.cfg"
        config.write_text("target_rel_tol = 1e-300\nmax_nodes = 32\n")
        code = main(
            ["eval", "--op", "rl-int", "--alpha", "0.5", "--fn", "exp:lambda=1",
             "--t", "1", "--method", "oracle", "--config", str(config)]
        )
        assert code == 4
        assert "convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ("max_nodes = 1000000",))
    def test_unbounded_config_value_is_domain_error(self, tmp_path, capsys, setting):
        config = tmp_path / "quad.cfg"
        config.write_text(setting + "\n")
        code = main(
            ["eval", "--op", "rl-der", "--alpha", "0.5", "--fn", "power:gamma=1",
             "--t", "1", "--method", "oracle", "--config", str(config)]
        )
        assert code == 3
        assert setting.split()[0] in capsys.readouterr().err

    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path):
        config = tmp_path / "quad.cfg"
        config.write_text("max_nodes = 2.5\n")
        assert main(["verify", "--suite", "lemmas", "--config", str(config)]) == 2

    # the closed route checked alpha only after a whole-order test that calls
    # math.floor: nan exited 2 as a usage error, inf as an overflow
    @pytest.mark.parametrize("method", ("closed", "oracle"))
    @pytest.mark.parametrize("alpha", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("op, fn", VALID_PAIRS)
    def test_non_finite_alpha_is_domain_error(self, capsys, op, fn, alpha, method):
        code = main(["eval", "--op", op, f"--alpha={alpha}", "--fn", fn, "--t", "1", "--method", method])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "alpha" in err
        if method == "closed":
            assert f"alpha must be finite, got {float(alpha)!r}" in err

    # a gamma factor of the closed form overflows; each exited 3 with "fraccalc: domain error:
    # overflow: math range error", naming neither the operator nor t.  The oracle's order-1101
    # difference raised "int too large to convert to float" from its binomial coefficients,
    # though no stencil of order 11 or more fits
    @pytest.mark.parametrize(
        "argv, name",
        (
            (["compare", "--delta", "0.5", "--alpha", "200", "--t-range", "0.5:2:0.5"], "weyl-der"),
            (["eval", "--op", "weyl-der", "--alpha", "200", "--fn", "abspower:delta=0.5", "--t", "1"], "weyl-der"),
            (["eval", "--op", "rl-int", "--alpha", "0.5", "--fn", "powerlog:nu=1e-310", "--t", "1"], "rl-int"),
            (["eval", "--op", "rl-der", "--alpha", "180", "--fn", "power:gamma=0.5", "--t", "1"], "rl-der"),
            (
                ["eval", "--op", "rl-der", "--alpha", "1100", "--fn", "exp:lambda=1", "--t", "1", "--method", "oracle"],
                "stencil of width 1101",
            ),
        ),
    )
    def test_overflow_is_a_domain_error_naming_the_operator_and_t(self, capsys, tmp_path, argv, name):
        if argv[0] == "compare":
            argv = [*argv, "--out", str(tmp_path / "compare.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("fraccalc: domain error: ") and err.count("\n") == 1
        assert name in err and "t=" in err

    def test_usage_error_on_bad_op(self):
        result = run_cli("eval", "--op", "bogus")
        assert result.returncode == 2
        assert "bogus" in result.stderr

    def test_usage_error_on_bad_family(self):
        result = run_cli(
            "eval", "--op", "rl-int", "--alpha", "0.5", "--fn", "power:delta=1", "--t", "1"
        )
        assert result.returncode == 2
        assert "power" in result.stderr


class TestVerifyCommand:
    def test_clean_suite_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "specfun", "--format", "json", "--out", str(out)]) == 0
        assert out.exists()

    def test_failing_suite_exits_one(self, monkeypatch, tmp_path):
        original = cf.power_shift_eval
        monkeypatch.setattr(
            cf, "power_shift_eval", lambda a, g, t: (original(a, g, t)[0] * (1.0 + 1e-3), original(a, g, t)[1])
        )
        out = tmp_path / "report.csv"
        assert main(["verify", "--suite", "rl-power", "--format", "csv", "--out", str(out)]) == 1

    def test_unknown_suite_is_usage_error(self):
        result = run_cli("verify", "--suite", "nope")
        assert result.returncode == 2
        assert "'nope'" in result.stderr
        assert "rl-power" in result.stderr and "literature-falsification" in result.stderr

    def test_text_to_stdout(self, capsys):
        assert main(["verify", "--suite", "lemmas"]) == 0
        assert "suite: lemmas" in capsys.readouterr().out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "quad.cfg"
        config.write_text("bogus_knob = 3\n")
        assert main(["verify", "--suite", "lemmas", "--config", str(config)]) == 2

    # the differencing step and Richardson depth are fixed constants, not settings
    @pytest.mark.parametrize("setting", ("fd_step_factor = 0.1", "richardson_levels = 3"))
    def test_stencil_keys_are_unknown(self, tmp_path, capsys, setting):
        config = tmp_path / "quad.cfg"
        config.write_text(setting + "\n")
        assert main(["verify", "--suite", "lemmas", "--config", str(config)]) == 2
        assert setting.split()[0] in capsys.readouterr().err

    def test_config_overrides_apply(self, tmp_path):
        config = tmp_path / "quad.cfg"
        config.write_text("# quadrature knobs\ntarget_rel_tol = 1e-9\nmax_nodes = 128\n")
        assert main(["verify", "--suite", "lemmas", "--config", str(config), "--format",
                     "csv", "--out", str(tmp_path / "r.csv")]) == 0


class TestTableCommand:
    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(
            ["table", "--op", "rl-int", "--fn", "power:gamma=0.5",
             "--alpha-range", "0.25:0.75:0.25", "--t-range", "1:2:1", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,t,param,value_closed,value_oracle,abs_diff"
        assert len(lines) == 1 + 3 * 2
        alpha, t, param, closed, oracle, diff = lines[1].split(",")
        assert (float(alpha), float(t), float(param)) == (0.25, 1.0, 0.5)
        assert abs(float(closed) - float(oracle)) == float(diff)
        assert float(diff) < 1e-9

    def test_powerlog_derivative_sweep(self, tmp_path):
        # one point of this sweep has a stencil integral whose lower log piece cancels to nearly 0
        out = tmp_path / "table.csv"
        assert main(
            ["table", "--op", "rl-der", "--fn", "powerlog:nu=1.5",
             "--alpha-range", "0.1:0.9:0.02", "--t-range", "0.5:5:0.05", "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 41 * 91
        for row in rows:
            closed, diff = float(row[3]), float(row[5])
            assert diff <= max(TOL_DERIVATIVE * abs(closed), ATOL_DERIVATIVE)

    def test_sweep_across_whole_orders(self, tmp_path):
        # alpha = 1 lies inside the range, and takes the path of every other order
        out = tmp_path / "table.csv"
        assert main(
            ["table", "--op", "rl-der", "--fn", "power:gamma=0.5",
             "--alpha-range", "0.1:1.9:0.1", "--t-range", "0.5:5:0.5", "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 190
        assert any(float(row[0]) == 1.0 for row in rows)

    def test_rows_parse_back_losslessly(self, tmp_path):
        out = tmp_path / "table.csv"
        main(
            ["table", "--op", "rl-der", "--fn", "exp:lambda=0.5",
             "--alpha-range", "0.3:0.9:0.3", "--t-range", "0.5:1.5:0.5", "--out", str(out)]
        )
        for line in out.read_text().splitlines()[1:]:
            closed = float(line.split(",")[3])
            assert f"{closed:.17g}" == line.split(",")[3]


class TestCompareCommand:
    def test_headline_sweep(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(
            ["compare", "--delta", "0.5", "--alpha", "0.25", "--t-range", "0.5:2:0.5",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,alpha,t,corrected,literature,oracle,oracle_err,verdict"
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            t = float(fields[2])
            assert float(fields[3]) == 0.0  # corrected value on the cosine zero
            assert float(fields[4]) == pytest.approx(
                0.69136733903629335 * t ** -0.75, rel=1e-12
            )
            assert abs(float(fields[5])) < 1e-6
            assert fields[7] == "corrected"


    # the tabulated formula has the wrong sign at odd whole orders and
    # coincides with the corrected one at even ones
    @pytest.mark.parametrize("alpha, verdict", (("1", "corrected"), ("2", "inconclusive"), ("3", "corrected")))
    def test_whole_orders(self, tmp_path, alpha, verdict):
        out = tmp_path / "cmp.csv"
        assert main(
            ["compare", "--delta", "0.5", "--alpha", alpha, "--t-range", "0.5:2:0.5", "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(row[7] == verdict for row in rows)


def _csv_bytes(header, rows):
    """The header, then one line per row of numbers at 17 significant digits and strings as they are."""
    lines = [header] + [",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


class TestCsvBytes:
    """table and compare files, byte for byte, against rows built in process from the two routes."""

    # the second alpha range crosses the whole order 1
    @pytest.mark.parametrize(
        "op, fn, alpha_range, t_range",
        (
            ("rl-int", "exp:lambda=-1", "0.25:0.75:0.25", "0.5:2:0.5"),
            ("rl-der", "power:gamma=0.5", "0.5:1.5:0.25", "1:3:1"),
        ),
    )
    def test_table(self, tmp_path, op, fn, alpha_range, t_range):
        from fraccalc import closed_eval, oracle_eval
        from fraccalc.model import OperatorKind, parse_family

        out = tmp_path / "table.csv"
        argv = ["table", "--op", op, "--fn", fn, "--alpha-range", alpha_range, "--t-range", t_range]
        assert main([*argv, "--out", str(out)]) == 0
        kind, family = OperatorKind(op), parse_family(fn)
        rows = []
        for alpha in _range_arg(alpha_range):
            for t in _range_arg(t_range):
                closed = closed_eval(kind, alpha, family, t).value
                oracle = oracle_eval(kind, alpha, family, t).value
                rows.append((alpha, t, family.param, closed, oracle, abs(closed - oracle)))
        assert out.read_bytes() == _csv_bytes("alpha,t,param,value_closed,value_oracle,abs_diff", rows)

    # the second compare is at the whole order 1
    @pytest.mark.parametrize("delta, alpha, t_range", (("0.5", "0.25", "0.5:2:0.5"), ("0.4", "1", "1:3:1")))
    def test_compare(self, tmp_path, delta, alpha, t_range):
        from fraccalc.verify import falsification_margin

        out = tmp_path / "compare.csv"
        assert main(["compare", "--delta", delta, "--alpha", alpha, "--t-range", t_range, "--out", str(out)]) == 0
        rows = []
        for t in _range_arg(t_range):
            m = falsification_margin(float(delta), float(alpha), t)
            rows.append((m.delta, m.alpha, m.t, m.corrected, m.literature, m.oracle, m.oracle_err, m.verdict))
        assert out.read_bytes() == _csv_bytes("delta,alpha,t,corrected,literature,oracle,oracle_err,verdict", rows)


class TestOracleCommandConfig:
    # each command beside the eval whose oracle evaluates the same point
    CASES = (
        (["table", "--op", "rl-int", "--fn", "exp:lambda=1", "--alpha-range", "0.5:0.5:1",
          "--t-range", "1:1:1"],
         ["eval", "--op", "rl-int", "--alpha", "0.5", "--fn", "exp:lambda=1", "--t", "1"]),
        (["compare", "--delta", "0.5", "--alpha", "0.5", "--t-range", "1:1:1"],
         ["eval", "--op", "weyl-der", "--alpha", "0.5", "--fn", "abspower:delta=0.5", "--t", "1"]),
    )

    @pytest.mark.parametrize("argv, eval_argv", CASES, ids=("table", "compare"))
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, argv, eval_argv):
        config = tmp_path / "quad.cfg"
        config.write_text("bogus_knob = 3\n")
        out = tmp_path / "r.csv"
        assert main([*argv, "--out", str(out), "--config", str(config)]) == 2
        assert "unknown config key 'bogus_knob'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, eval_argv", CASES, ids=("table", "compare"))
    def test_config_reaches_the_oracle(self, tmp_path, capsys, argv, eval_argv):
        config = tmp_path / "quad.cfg"
        config.write_text("target_rel_tol = 1e-300\nmax_nodes = 32\n")
        assert main([*argv, "--out", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert main([*eval_argv, "--method", "oracle", "--config", str(config)]) == 4
        expected = capsys.readouterr().err
        assert "convergence error" in expected
        assert main([*argv, "--out", str(tmp_path / "r.csv"), "--config", str(config)]) == 4
        assert capsys.readouterr().err == expected


class TestUnwritableOut:
    # exit 1 means verification failure, so a path that cannot be written is a usage error
    @pytest.mark.parametrize(
        "argv",
        (
            ["verify", "--suite", "lemmas", "--format", "csv"],
            ["table", "--op", "rl-int", "--fn", "power:gamma=0.5", "--alpha-range", "0.5:0.5:0.1",
             "--t-range", "1:1:1"],
            ["compare", "--delta", "0.5", "--alpha", "0.25", "--t-range", "1:1:1"],
        ),
        ids=("verify", "table", "compare"),
    )
    def test_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "r.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"fraccalc: error: cannot write {str(out)!r}" in capsys.readouterr().err


class TestNumpyOnlyRuntime:
    # scipy set to None in sys.modules makes every import of it fail
    SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None
from fraccalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["verify", "--suite", "all", "--format", "csv", "--out", sys.argv[1]]),
        main(["eval", "--op", "rl-der", "--alpha", "0.5", "--fn", "exp:lambda=1",
              "--t", "1", "--method", "both"]),
    ]
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
print(codes, loaded)
"""

    def test_verify_and_eval_run_without_scipy(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "report.csv")],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 0] []"
        assert (tmp_path / "report.csv").stat().st_size > 0


class TestClosedRouteWithoutNumpy:
    # with "blocked", the modules named in argv[2] are set to None in sys.modules,
    # which makes every import of them fail; the last line lists those of them
    # (and their submodules) that the script loaded
    SCRIPT = """
import contextlib, io, sys
watched = sys.argv[2].split(",")
preloaded = set(sys.modules)
if sys.argv[1] == "blocked":
    for name in watched:
        sys.modules[name] = None
import fraccalc
from fraccalc.cli import main

ops = [["--op", op, "--alpha", "0.5", "--fn", fn, "--t", "1.5"] for op, fn in [
    ("rl-int", "powerlog:nu=2"), ("rl-der", "exp:lambda=-1"),
    ("weyl-int", "abspower:delta=0.75"), ("weyl-der", "abspower:delta=0.5")]]
runs = [["eval", *argv] for argv in ops] + [
    ["eval", "--op", "rl-der", "--alpha", "2", "--fn", "power:gamma=2.5", "--t", "1.5"],
    ["--help"],
    ["eval", *ops[0], "--config", sys.argv[3]],
    ["eval", *ops[0], "--config", sys.argv[4]],
]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(code, repr(out.getvalue()))
r = fraccalc.closed_eval("rl-der", 0.5, fraccalc.PowerLog(2.0), 1.0)
print(repr(r.value), repr(r.abs_err_estimate), r.method)
print(sorted(name for name, module in sys.modules.items() if module is not None and name not in preloaded
             and name.split(".")[0] in watched))
"""

    def _run(self, mode, watched, tmp_path):
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text("target_rel_tol = 1e-9\nmax_nodes = 128\n")
        bad.write_text("bogus_knob = 3\n")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, mode, watched, str(good), str(bad)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def _check(self, watched, tmp_path):
        out = self._run("blocked", watched, tmp_path)
        assert out == self._run("normal", watched, tmp_path)
        lines = out.splitlines()
        assert [int(line.split(None, 1)[0]) for line in lines[:8]] == [0, 0, 0, 0, 0, 0, 0, 2]
        assert all("closed-form" in line for line in lines[:5] + lines[6:7])
        assert "usage: fraccalc" in lines[5]
        assert "unknown config key 'bogus_knob'" in out
        assert out.endswith("closed-form\n[]\n")

    def test_closed_eval_runs_without_numpy(self, tmp_path):
        self._check("numpy", tmp_path)

    def test_closed_eval_runs_without_dataclasses_inspect_typing(self, tmp_path):
        # the records are plain classes, and nothing on the closed route needs typing
        self._check("numpy,dataclasses,inspect,typing", tmp_path)


class TestLazyImports:
    def test_lazy_names_are_the_oracle_attributes(self):
        import fraccalc
        from fraccalc import oracle

        assert fraccalc.oracle_eval is oracle.oracle_eval
        assert fraccalc.Integrand is oracle.Integrand
        # bound in the package namespace, where a patch of every fraccalc namespace finds them
        assert vars(fraccalc)["oracle_eval"] is oracle.oracle_eval

    def test_star_import_binds_all(self):
        import fraccalc

        namespace = {}
        exec("from fraccalc import *", namespace)
        assert set(fraccalc.__all__) <= set(namespace)

    def test_unknown_attribute_raises(self):
        import fraccalc

        with pytest.raises(AttributeError, match="no_such_name"):
            fraccalc.no_such_name

    # fraccalc.verify is loaded in this test process, so a fresh one is needed
    @pytest.mark.parametrize(
        "argv",
        (
            ["eval", "--op", "rl-der", "--alpha", "0.5", "--fn", "exp:lambda=1", "--t", "1",
             "--method", "both"],
            ["table", "--op", "rl-int", "--fn", "power:gamma=0.5", "--alpha-range", "0.5:1:0.5",
             "--t-range", "1:1:1", "--out", "{out}"],
        ),
        ids=("eval-both", "table"),
    )
    def test_oracle_commands_leave_the_verifier_unloaded(self, tmp_path, argv):
        argv = [a.format(out=tmp_path / "t.csv") for a in argv]
        script = (
            "import sys; from fraccalc.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'fraccalc.oracle' in sys.modules, 'fraccalc.verify' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 True False"


class TestEntryPoint:
    # the atexit hook prints {report} after run() has handed over to sys.exit
    SCRIPT = (
        "import atexit, gc, os, sys; from fraccalc.cli import run; "
        "atexit.register(lambda: print({report}, file=sys.stderr)); "
        "sys.argv[0] = 'fraccalc'; run()"
    )
    COLLECTOR = "gc.isenabled(), gc.get_freeze_count() > 0"
    BLAS_SETTING = "os.environ.get('OPENBLAS_NUM_THREADS')"
    THREADS = "[line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')][0]"
    EVAL_BOTH = ["eval", "--op", "rl-der", "--alpha", "0.5", "--fn", "exp:lambda=1", "--t", "1",
                 "--method", "both"]

    def _run(self, report, argv, **env):
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(report=report), *argv],
            capture_output=True, text=True, timeout=120, env={**child_env, **env},
        )

    @pytest.mark.parametrize(
        "argv, code",
        (
            (EVAL_BOTH, 0),
            (["eval", "--op", "rl-der", "--alpha", "nan", "--fn", "exp:lambda=1", "--t", "1"], 3),
        ),
        ids=("both", "domain-error"),
    )
    def test_run_exits_with_main_status_and_frozen_heap(self, argv, code, capsys):
        result = self._run(self.COLLECTOR, argv)
        assert main(argv) == code
        expected = capsys.readouterr()
        assert result.returncode == code
        assert result.stdout == expected.out
        assert result.stderr == expected.err + "False True\n"

    # a second OpenBLAS thread only spins between the small BLAS calls of a command
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("argv", (EVAL_BOTH, ["verify", "--suite", "lemmas"]), ids=("both", "verify"))
    def test_run_keeps_blas_on_one_thread(self, argv):
        result = self._run(f"{self.BLAS_SETTING}, {self.THREADS}", argv)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "1 1"

    def test_run_keeps_the_users_blas_setting(self):
        result = self._run(self.BLAS_SETTING, self.EVAL_BOTH, OPENBLAS_NUM_THREADS="2")
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "2"

    # a program that embeds the library keeps its own threading
    def test_main_leaves_the_environment_alone(self, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert main(self.EVAL_BOTH) == 0
        assert main(["verify", "--suite", "lemmas"]) == 0
        assert dict(os.environ) == before


class TestHelp:
    @pytest.mark.parametrize("sub", (None, "eval", "verify", "table", "compare"))
    def test_help_exits_zero(self, sub):
        argv = ["--help"] if sub is None else [sub, "--help"]
        result = run_cli(*argv)
        assert result.returncode == 0
        assert "usage" in result.stdout.lower()

    def test_eval_help_documents_family_grammar(self):
        result = run_cli("eval", "--help")
        assert "power:gamma=G" in result.stdout
