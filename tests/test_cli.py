"""Command-line interface: grammar, exit codes, output contracts."""

import argparse
import math
import subprocess
import sys

import pytest

from fraccalc import closed_forms as cf
from fraccalc.cli import RANGE_MAX_POINTS, _range_arg, main


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

    @pytest.mark.parametrize("alpha, t", (("1", "-1"), ("2", "0")))
    def test_whole_order_exp_derivative_off_domain_exit_code(self, capsys, alpha, t):
        assert main(
            ["eval", "--op", "rl-der", "--alpha", alpha, "--fn", "exp:lambda=1", "--t", t]
        ) == 3
        assert "t > 0" in capsys.readouterr().err

    def test_integer_order_oracle_derivative_is_domain_error(self, capsys):
        assert main(
            ["eval", "--op", "rl-der", "--alpha", "2", "--fn", "exp:lambda=1",
             "--t", "1", "--method", "oracle"]
        ) == 3

    def test_convergence_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "quad.cfg"
        config.write_text("max_nodes = 16\n")
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
        original = cf.rl_integral_power
        monkeypatch.setattr(
            cf, "rl_integral_power", lambda a, g, t: original(a, g, t) * (1.0 + 1e-3)
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
        config.write_text("# quadrature knobs\ntarget_rel_tol = 1e-9\nmax_nodes = 1024\n")
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
    # with "blocked", numpy set to None in sys.modules makes every import of it fail
    SCRIPT = """
import contextlib, io, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import fraccalc
from fraccalc.cli import main

ops = [["--op", op, "--alpha", "0.5", "--fn", fn, "--t", "1.5"] for op, fn in [
    ("rl-int", "powerlog:nu=2"), ("rl-der", "exp:lambda=-1"),
    ("weyl-int", "abspower:delta=0.75"), ("weyl-der", "abspower:delta=0.5")]]
runs = [["eval", *argv] for argv in ops] + [
    ["eval", "--op", "rl-der", "--alpha", "2", "--fn", "power:gamma=2.5", "--t", "1.5"],
    ["--help"],
    ["eval", *ops[0], "--config", sys.argv[2]],
    ["eval", *ops[0], "--config", sys.argv[3]],
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
print([name for name, module in sys.modules.items()
       if name.split(".")[0] == "numpy" and module is not None])
"""

    def _run(self, mode, tmp_path):
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text("target_rel_tol = 1e-9\nmax_nodes = 1024\n")
        bad.write_text("bogus_knob = 3\n")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, mode, str(good), str(bad)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_closed_eval_runs_without_numpy(self, tmp_path):
        blocked = self._run("blocked", tmp_path)
        assert blocked == self._run("normal", tmp_path)
        lines = blocked.splitlines()
        assert [int(line.split(None, 1)[0]) for line in lines[:8]] == [0, 0, 0, 0, 0, 0, 0, 2]
        assert all("closed-form" in line for line in lines[:5] + lines[6:7])
        assert "usage: fraccalc" in lines[5]
        assert "unknown config key 'bogus_knob'" in blocked
        assert blocked.endswith("closed-form\n[]\n")


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
    # the atexit hook reports the collector's state after run() has handed over to sys.exit
    SCRIPT = (
        "import atexit, gc, sys; from fraccalc.cli import run; "
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)); "
        "sys.argv[0] = 'fraccalc'; run()"
    )

    @pytest.mark.parametrize(
        "argv, code",
        (
            (["eval", "--op", "rl-der", "--alpha", "0.5", "--fn", "exp:lambda=1", "--t", "1",
              "--method", "both"], 0),
            (["eval", "--op", "rl-der", "--alpha", "nan", "--fn", "exp:lambda=1", "--t", "1"], 3),
        ),
        ids=("both", "domain-error"),
    )
    def test_run_exits_with_main_status_and_frozen_heap(self, argv, code, capsys):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv], capture_output=True, text=True, timeout=120
        )
        assert main(argv) == code
        expected = capsys.readouterr()
        assert result.returncode == code
        assert result.stdout == expected.out
        assert result.stderr == expected.err + "False True\n"


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
