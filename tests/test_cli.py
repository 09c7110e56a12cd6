import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcarnot
from qcarnot import cli
from qcarnot import (
    MixedState,
    SampleTable,
    SpecFormatError,
    adiabatic_stroke,
    eigenenergy,
    isothermal_stroke,
    parse_spec,
    render_spec,
    sample_stroke,
)
from qcarnot.cli import (
    REPORT_HEADER,
    SAMPLES_HEADER,
    SWEEP_HEADER,
    cmd_simulate,
    cmd_sweep,
    cmd_verify_identity,
    format_float,
    main,
    write_samples_csv,
)
from qcarnot.boxmodel import WellParams
from qcarnot.cycle import MAX_SAMPLES_PER_STROKE, MAX_TOP_LEVEL, CarnotSpec
from qcarnot.errors import VerificationError
from qcarnot.sudden import TruncationReport

MINIMAL = "[cycle]\ntop_level = 2\nL1 = 1\nL3 = 4\n"


class TestParseSpec:
    def test_minimal_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec == CarnotSpec(top_level=2, L1=1.0, L3=4.0)
        assert spec.params == WellParams(1.0, 1.0)
        assert spec.samples_per_stroke == 256

    def test_full_document(self):
        text = (
            "# demo\n[well]\nhbar = 2\nmass = 0.5\n"
            "[cycle]\ntype = carnot\ntop_level = 3\nL1 = 0.5\nL3 = 2.5\n"
            "samples_per_stroke = 16\n"
        )
        spec = parse_spec(text)
        assert spec.params == WellParams(2.0, 0.5)
        assert spec.top_level == 3

    def test_geometry_constraint(self):
        with pytest.raises(SpecFormatError, match="L3 must exceed top_level"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = 1\nL3 = 1\n")

    def test_geometry_equality_allowed(self):
        parse_spec("[cycle]\ntop_level = 2\nL1 = 1\nL3 = 2\n")

    def test_duplicate_key_names_both_lines(self):
        text = "[cycle]\ntop_level = 2\nL1 = 1\nL1 = 2\nL3 = 4\n"
        with pytest.raises(SpecFormatError, match=r"line 4.*'L1'.*line 3"):
            parse_spec(text)

    def test_duplicate_section(self):
        with pytest.raises(SpecFormatError, match="duplicate section"):
            parse_spec("[well]\n[well]\n[cycle]\ntop_level = 2\nL1 = 1\nL3 = 4\n")

    def test_unknown_key_named_with_line(self):
        with pytest.raises(SpecFormatError, match=r"line 2.*'budget'"):
            parse_spec("[cycle]\nbudget = 3\n")

    def test_unknown_section(self):
        with pytest.raises(SpecFormatError, match="unknown section"):
            parse_spec("[engine]\n")

    def test_malformed_line(self):
        with pytest.raises(SpecFormatError, match="expected 'key = value'"):
            parse_spec("[cycle]\ntop_level\n")

    def test_unclosed_section_header(self):
        with pytest.raises(SpecFormatError) as info:
            parse_spec("[cycle\ntop_level = 2\nL1 = 1\nL3 = 4\n")
        assert str(info.value) == "line 1: malformed section header '[cycle'"

    def test_key_before_section(self):
        with pytest.raises(SpecFormatError, match="before any section"):
            parse_spec("L1 = 1\n")

    def test_integer_keys_reject_decimals(self):
        with pytest.raises(SpecFormatError, match="bare integer"):
            parse_spec("[cycle]\ntop_level = 2.5\nL1 = 1\nL3 = 4\n")

    def test_bad_type_value(self):
        with pytest.raises(SpecFormatError, match="type must be 'carnot'"):
            parse_spec("[cycle]\ntype = otto\ntop_level = 2\nL1 = 1\nL3 = 4\n")

    def test_nonpositive_and_nonfinite_values(self):
        with pytest.raises(SpecFormatError, match="hbar must be positive"):
            parse_spec("[well]\nhbar = 0\n" + MINIMAL)
        with pytest.raises(SpecFormatError, match="L1 must be a decimal number"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = abc\nL3 = 4\n")
        with pytest.raises(SpecFormatError, match="must be positive and finite"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = inf\nL3 = 4\n")

    def test_missing_cycle_section(self):
        with pytest.raises(SpecFormatError, match="missing required section"):
            parse_spec("[well]\nhbar = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(SpecFormatError, match="missing required key 'L3'"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = 1\n")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_spec("# header\n\n[cycle]  # trailing\ntop_level = 2 # two\nL1 = 1\nL3 = 4\n")
        assert spec.top_level == 2

    @pytest.mark.parametrize("key, bad", [
        ("hbar", "0"), ("hbar", "nan"), ("mass", "-1"), ("mass", "1e400"),
        ("top_level", "1"), ("top_level", "-2"), ("top_level", str(MAX_TOP_LEVEL + 1)),
        ("L1", "0"), ("L1", "inf"), ("L3", "-4"), ("L3", "1.5"),
        ("samples_per_stroke", "1"), ("samples_per_stroke", str(MAX_SAMPLES_PER_STROKE + 1)),
    ])
    def test_value_errors_carry_the_key_line(self, key, bad):
        # L3 = 1.5 is below top_level*L1 = 2, the geometry check.
        values = {"hbar": "1", "mass": "1", "top_level": "2", "L1": "1", "L3": "4",
                  "samples_per_stroke": "8", key: bad}
        lines = ["# every key on its own line", "[well]", "hbar", "mass", "", "[cycle]",
                 "type = carnot", "top_level", "L1", "L3", "samples_per_stroke"]
        text = "\n".join(f"{k} = {values[k]}" if k in values else k for k in lines)
        with pytest.raises(SpecFormatError) as info:
            parse_spec(text)
        assert info.value.line == lines.index(key) + 1
        assert str(info.value).startswith(f"line {info.value.line}: {key} must ")


class TestRenderRoundTrip:
    def test_simple_round_trip(self):
        spec = parse_spec(MINIMAL)
        assert parse_spec(render_spec(spec)) == spec

    @given(
        hbar=st.floats(0.1, 10.0),
        mass=st.floats(0.1, 10.0),
        top_level=st.integers(2, 6),
        L1=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 5.0),
        samples=st.integers(2, 4096),
    )
    @settings(max_examples=60)
    def test_round_trip_randomized(self, hbar, mass, top_level, L1, ratio, samples):
        spec = CarnotSpec(
            top_level=top_level, L1=L1, L3=top_level * L1 * ratio,
            params=WellParams(hbar, mass), samples_per_stroke=samples,
        )
        assert parse_spec(render_spec(spec)) == spec

    def test_shipped_spec_files(self, tmp_path):
        paths = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.spec"))
        assert paths
        for path in paths:
            spec = parse_spec(path.read_text(encoding="utf-8"))
            assert parse_spec(render_spec(spec)) == spec
            code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / path.stem)])
            assert (code, err) == (0, ""), path.name


class TestPackageImport:
    def test_import_loads_no_cli_and_keeps_the_spec_text_form(self):
        # A fresh interpreter, since this test session has imported the cli.
        specs = Path(__file__).resolve().parents[1] / "specs"
        program = (
            "import sys\n"
            "from pathlib import Path\n"
            "import qcarnot\n"
            "assert 'qcarnot.cli' not in sys.modules\n"
            "assert 'argparse' not in sys.modules\n"
            f"paths = sorted(Path({str(specs)!r}).glob('*.spec'))\n"
            "assert paths\n"
            "for path in paths:\n"
            "    spec = qcarnot.parse_spec(path.read_text(encoding='utf-8'))\n"
            "    assert qcarnot.parse_spec(qcarnot.render_spec(spec)) == spec\n"
            "    assert isinstance(spec, qcarnot.CarnotSpec)\n"
        )
        src = str(Path(qcarnot.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, "")


class TestFormatFloat:
    def test_seventeen_digit_round_trip(self):
        for x in (math.pi ** 2 * math.log(2), 0.1, 1e-300, 12345.6789):
            assert float(format_float(x)) == x


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "engine.spec"
    path.write_text(MINIMAL)
    return path


class TestSimulate:
    def test_flagship_outputs(self, spec_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert cmd_simulate(spec_path, out) == 0
        stdout = capsys.readouterr().out
        assert "eta = 0.75" in stdout

        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0] == REPORT_HEADER
        row = dict(zip(REPORT_HEADER.split(","), report_lines[1].split(",")))
        assert float(row["eta"]) == pytest.approx(0.75, rel=1e-12)
        assert float(row["W"]) == pytest.approx(0.75 * math.pi ** 2 * math.log(2), rel=1e-12)

        sample_lines = (out / "samples.csv").read_text().splitlines()
        assert sample_lines[0] == SAMPLES_HEADER
        assert len(sample_lines) == 1 + 4 * 256

    def test_populations_column_format(self, spec_path, tmp_path):
        out = tmp_path / "out"
        cmd_simulate(spec_path, out)
        row = (out / "samples.csv").read_text().splitlines()[2]
        populations = row.split(",")[-1]
        for pair in populations.split(";"):
            level, weight = pair.split(":")
            assert int(level) >= 1
            assert 0.0 <= float(weight) <= 1.0

    def test_degenerate_spec(self, tmp_path, capsys):
        path = tmp_path / "flat.spec"
        path.write_text("[cycle]\ntop_level = 2\nL1 = 1\nL3 = 2\n")
        assert cmd_simulate(path, tmp_path / "out") == 0
        assert "eta = 0" in capsys.readouterr().out

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("[cycle]\ntop_level = 2\nL1 = 1\nL3 = 1\n")
        assert cmd_simulate(path, tmp_path / "out") == 1
        assert "L3 must exceed" in capsys.readouterr().err

    def test_unclosed_section_header_exits_1(self, tmp_path):
        path = tmp_path / "unclosed.spec"
        path.write_text("[cycle\ntop_level = 2\nL1 = 1\nL3 = 4\n")
        code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err == f"error: {path}: line 1: malformed section header '[cycle'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_spec_exits_1(self, tmp_path):
        assert cmd_simulate(tmp_path / "absent.spec", tmp_path / "out") == 1

    def test_unwritable_out_dir_exits_2(self, spec_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert cmd_simulate(spec_path, blocker / "sub") == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[well]\nhbar = 1e160\n" + MINIMAL,
        "[cycle]\ntop_level = 2\nL1 = 1e-170\nL3 = 4e-170\n",
    ], ids=["overflow", "underflow"])
    def test_extreme_energy_scale_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "extreme.spec"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: energy scale out of range")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top_level", [MAX_TOP_LEVEL + 1, 2 ** 63 - 1])
    def test_top_level_beyond_largest_exits_1(self, top_level, tmp_path):
        path = tmp_path / "huge.spec"
        path.write_text(f"[cycle]\ntop_level = {top_level}\nL1 = 1\nL3 = 2e19\n")
        code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.splitlines() == [
            f"error: {path}: line 2: top_level must be an integer in [2, 2**63 - 513], "
            f"got {top_level}"
        ]

    @pytest.mark.parametrize("samples", [MAX_SAMPLES_PER_STROKE + 1, 10 ** 18])
    def test_samples_beyond_cap_exits_1(self, samples, tmp_path):
        path = tmp_path / "dense.spec"
        path.write_text(MINIMAL + f"samples_per_stroke = {samples}\n")
        code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.splitlines() == [
            f"error: {path}: line 5: samples_per_stroke must be an integer in [2, 2**20], "
            f"got {samples}"
        ]
        assert not (tmp_path / "out").exists()

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path):
        # int() refuses decimal strings of more than 4300 digits.
        path = tmp_path / "digits.spec"
        path.write_text(f"[cycle]\ntop_level = {'1' * 5000}\nL1 = 1\nL3 = 4\n")
        code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: line 2: top_level must be a bare integer")

    def test_largest_top_level_passes_spec_checks(self, tmp_path):
        text = f"[cycle]\ntop_level = {MAX_TOP_LEVEL}\nL1 = 1\nL3 = 2e19\nsamples_per_stroke = 4\n"
        assert parse_spec(text).top_level == MAX_TOP_LEVEL
        path = tmp_path / "huge.spec"
        path.write_text(text)
        code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "top_level" not in err

    def test_byte_identical_reruns(self, spec_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_simulate(spec_path, out1)
        cmd_simulate(spec_path, out2)
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


class TestSamplesCsv:
    def test_matches_per_row_formatting(self, tmp_path):
        # Strokes of 1, 2 and 5 populated levels, over more rows than one write block.
        params = WellParams(1.3, 0.8)
        state = MixedState([1, 3, 4, 7, 9], [0.1, 0.2, 0.3, 0.15, 0.25])
        table = SampleTable.concatenate([
            sample_stroke(isothermal_stroke(eigenenergy(1, 0.5, params), 0.5, 2.0, 0.5, params), 701),
            sample_stroke(adiabatic_stroke(state, 2.0, 3.1, params), 650, stroke_index=2),
            sample_stroke(adiabatic_stroke(MixedState.pure(4), 3.1, 2.2, params), 9, stroke_index=3),
        ])
        expected = [SAMPLES_HEADER] + [
            ",".join([
                str(s.stroke_index),
                s.stroke_kind,
                *(format_float(x) for x in (s.L, s.force, s.energy, s.entropy)),
                ";".join(f"{n}:{format_float(w)}" for n, w in s.populations),
            ])
            for s in table
        ]
        write_samples_csv(tmp_path / "samples.csv", table)
        assert (tmp_path / "samples.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


class TestVerifyIdentityCommand:
    def test_success(self, capsys):
        assert cmd_verify_identity(1, 2.0, 1e-6) == 0
        stdout = capsys.readouterr().out
        assert "achieved_sum = " in stdout
        assert "terms_used = " in stdout
        assert "tail_bound = " in stdout

    def test_alpha_at_one_is_usage_error(self, capsys):
        assert cmd_verify_identity(1, 1.0, 1e-6) == 1
        assert "alpha must exceed 1" in capsys.readouterr().err

    def test_tight_tolerance_high_level(self, capsys):
        assert cmd_verify_identity(4, 3.7, 1e-8) == 0
        stdout = capsys.readouterr().out
        achieved = float(stdout.splitlines()[0].split(" = ")[1])
        assert achieved == pytest.approx(1.0, abs=1e-8)

    def test_budget_exhaustion_exits_2(self, capsys):
        assert cmd_verify_identity(1, 2.0, 1e-6, max_terms=100) == 2

    def test_failed_verification_reports_on_stderr(self, monkeypatch, capsys):
        report = TruncationReport(terms_used=64, tail_bound=1e-7, achieved_sum=0.5)

        def fail(*args, **kwargs):
            raise VerificationError("partial sum 0.5 misses 1", report=report)

        monkeypatch.setattr(cli, "verify_energy_identity", fail)
        assert cmd_verify_identity(1, 2.0, 1e-6) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "achieved_sum = 0.5", "terms_used = 64", "tail_bound = 9.9999999999999995e-08",
            "error: partial sum 0.5 misses 1",
        ]


class TestSweep:
    def test_rows_and_monotone_eta(self, spec_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(spec_path, 2.5, 8.0, 6, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 7
        etas = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a < b for a, b in zip(etas, etas[1:]))

    def test_near_boundary_eta_near_zero(self, spec_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(spec_path, 2.0 + 1e-6, 3.0, 2, out) == 0
        first_eta = float(out.read_text().splitlines()[1].split(",")[3])
        assert first_eta == pytest.approx(0.0, abs=1e-5)

    def test_two_steps(self, spec_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(spec_path, 3.0, 4.0, 2, out) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_l3_from_below_boundary_exits_1(self, spec_path, tmp_path, capsys):
        assert cmd_sweep(spec_path, 1.5, 4.0, 3, tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == (
            "error: L3 must exceed top_level*L1: got L3=1.5, top_level*L1=2.0\n"
        )

    def test_boundary_is_the_zero_work_cycle(self, spec_path, tmp_path):
        # L3 == top_level*L1 passes, as it does in a spec.
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(spec_path, 2.0, 3.0, 2, out) == 0
        assert out.read_text().splitlines()[1].startswith("2,0,")

    @staticmethod
    def forbid_evaluation(monkeypatch):
        def evaluate(*args, **kwargs):
            raise AssertionError("a cycle was evaluated")

        monkeypatch.setattr(cli, "evaluate_cycle", evaluate)

    def test_bad_l3_to_exits_1_before_any_cycle(self, spec_path, tmp_path, monkeypatch, capsys):
        self.forbid_evaluation(monkeypatch)
        assert cmd_sweep(spec_path, 3.0, 1.5, 3, tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == (
            "error: L3 must exceed top_level*L1: got L3=1.5, top_level*L1=2.0\n"
        )

    @pytest.mark.parametrize("l3_from, l3_to, bad", [
        (0.0, math.inf, 0.0), (3.0, math.inf, math.inf), (-1e308, 1e308, -1e308),
        (3.0, math.nan, math.nan),
    ])
    def test_unbounded_l3_exits_1_without_warning(self, spec_path, tmp_path, monkeypatch,
                                                   capsys, l3_from, l3_to, bad):
        # The ends are checked before np.linspace, which would otherwise warn
        # of an invalid multiply or an overflowing difference.
        self.forbid_evaluation(monkeypatch)
        assert cmd_sweep(spec_path, l3_from, l3_to, 3, tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == f"error: L3 must be positive and finite, got {bad!r}\n"

    def test_bad_steps_exits_1(self, spec_path, tmp_path):
        assert cmd_sweep(spec_path, 2.5, 4.0, 1, tmp_path / "s.csv") == 1

    @pytest.mark.parametrize("steps", [10 ** 15, cli.MAX_SWEEP_STEPS + 1])
    def test_steps_beyond_cap_exits_1(self, spec_path, tmp_path, monkeypatch, steps):
        # Rejected before np.linspace allocates or any cycle is evaluated.
        assert cli.MAX_SWEEP_STEPS == 2 ** 20
        self.forbid_evaluation(monkeypatch)
        out = tmp_path / "s.csv"
        code, err = _run_main(["sweep", str(spec_path), "--l3-from", "3", "--l3-to", "4",
                               "--steps", str(steps), "--out", str(out)])
        assert code == 1
        assert err.splitlines() == [f"error: steps must be an integer in [2, 2**20], got {steps}"]
        assert not out.exists()


class TestMain:
    def test_simulate_dispatch(self, spec_path, tmp_path):
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 0

    def test_verify_dispatch(self):
        assert main(["verify-identity", "--n", "1", "--alpha", "2.0", "--tol", "1e-6"]) == 0

    def test_sweep_dispatch(self, spec_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sweep", str(spec_path),
            "--l3-from", "2.5", "--l3-to", "6.0", "--steps", "3", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_usage_error_exits_1(self, capsys):
        assert main(["verify-identity", "--n", "x", "--alpha", "2", "--tol", "1e-6"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert main(["explode"]) == 1


def run_fresh_process(argv):
    """``python -m qcarnot argv`` in a new interpreter: (exit code, stdout, stderr)."""
    src = str(Path(qcarnot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "qcarnot", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


class TestRepeatedMain:
    def test_each_call_matches_a_fresh_process(self, spec_path, tmp_path, capsys):
        def commands(out):
            return [
                ["simulate", str(spec_path), "--out", str(out / "sim1")],
                ["verify-identity", "--n", "1", "--alpha", "2.0", "--tol", "1e-6"],
                ["verify-identity", "--n", "x", "--alpha", "2", "--tol", "1e-6"],
                ["sweep", str(spec_path), "--l3-from", "2.5", "--l3-to", "6.0",
                 "--steps", "3", "--out", str(out / "sweep.csv")],
                ["explode"],
                ["simulate", str(spec_path), "--out", str(out / "sim2")],
            ]

        in_process, fresh = tmp_path / "in_process", tmp_path / "fresh"
        codes = []
        for argv, fresh_argv in zip(commands(in_process), commands(fresh)):
            code = main(argv)
            out, err = capsys.readouterr()
            codes.append(code)
            assert (code, out, err) == run_fresh_process(fresh_argv)
        assert codes == [0, 0, 1, 0, 1, 0]
        written = sorted(p.relative_to(in_process) for p in in_process.rglob("*.csv"))
        assert written == sorted(p.relative_to(fresh) for p in fresh.rglob("*.csv"))
        assert len(written) == 5
        for name in written:
            assert (in_process / name).read_bytes() == (fresh / name).read_bytes()


# Value text for the exit-code fuzz.  Keys and flags take any text,
# extremes included, except that samples_per_stroke, --steps and
# --max-terms set how long a command runs and how much memory it takes, so
# their numbers stay small or, for --steps and --max-terms, lie beyond the
# cap, where the command exits at once; any other text is allowed for them
# too.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=8,
)
_EXTREMES = st.sampled_from([
    "0", "-0", "-1", "1", "1.0000000001", "1e308", "1e-308", "5e-324", "1e400", "-1e400",
    "nan", "inf", "-inf", "0x10", "1_0", "1e", "", " ", "carnot", "10" * 40,
])
_NOT_DIGITS = _EXTREMES.filter(lambda t: not t.strip("-").isdigit())
_REAL = st.one_of(_EXTREMES, st.floats().map(repr), _TEXT)
_LEVEL = st.one_of(st.integers(-3, 10 ** 400).map(str), _EXTREMES)
_SMALL_INT = st.one_of(st.integers(-3, 40).map(str), _NOT_DIGITS)
_STEPS = st.one_of(_SMALL_INT, st.integers(10 ** 12, 10 ** 40).map(str))
_BUDGET = st.one_of(st.integers(-3, 10 ** 6).map(str), st.integers(2 ** 53, 10 ** 40).map(str),
                    _NOT_DIGITS)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _mostly(valid, other):
    """``valid`` three times in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 0 else valid)


_STRAY = _mostly(st.just([]), st.lists(
    st.sampled_from(["--bogus", "--n", "x", "--", "-h", "--alpha=2", "extra"]),
    min_size=1, max_size=2,
))


@st.composite
def spec_documents(draw):
    """Spec file bytes: a valid document with a few entries replaced by
    arbitrary or extreme text or dropped, junk lines, and now and then bytes
    that are not UTF-8."""
    top_level, L1 = draw(st.integers(2, 12)), draw(st.floats(0.1, 10.0))
    entries = [
        ("well", "hbar", _floats(0.3, 3.0), _REAL),
        ("well", "mass", _floats(0.3, 3.0), _REAL),
        ("cycle", "type", st.just("carnot"), _TEXT),
        ("cycle", "top_level", st.just(str(top_level)), _LEVEL),
        ("cycle", "L1", st.just(repr(L1)), _REAL),
        ("cycle", "L3", st.floats(1.0, 4.0).map(lambda r: repr(r * top_level * L1)), _REAL),
        ("cycle", "samples_per_stroke", st.integers(2, 64).map(str), _SMALL_INT),
    ]
    changed = draw(st.sets(st.integers(0, len(entries) - 1), max_size=3))
    lines, section = [], None
    for i, (name, key, valid, other) in enumerate(entries):
        if name != section:
            lines.append(f"[{name}]")
            section = name
        if i not in changed:
            lines.append(f"{key} = {draw(valid)}")
        elif draw(st.integers(0, 4)):
            lines.append(f"{key} = {draw(other)}")
    for _ in range(draw(st.integers(0, 3)) // 2):
        lines.insert(draw(st.integers(0, len(lines))), draw(_TEXT))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        data += b"\xff\xfe"
    return data


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, err.getvalue()


class TestExitCodeContract:
    """Any spec text and flags: exit 0, 1 or 2; on failure one ``error:``
    line; never a traceback (an exception escaping ``main`` fails the test)."""

    @staticmethod
    def check(code, err):
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == (0 if code == 0 else 1), err

    @given(document=spec_documents(), sweep=st.booleans(),
           l3=st.tuples(_mostly(_floats(1.0, 200.0), _REAL), _mostly(_floats(1.0, 200.0), _REAL)),
           steps=_mostly(st.integers(2, 4).map(str), _STEPS), stray=_STRAY)
    @settings(max_examples=150, deadline=None)
    def test_spec_commands(self, tmp_path_factory, document, sweep, l3, steps, stray):
        work = tmp_path_factory.mktemp("fuzz", numbered=True)
        spec = work / "c.spec"
        spec.write_bytes(document)
        if sweep:
            argv = ["sweep", str(spec), "--l3-from", l3[0], "--l3-to", l3[1],
                    "--steps", steps, "--out", str(work / "sweep.csv")]
        else:
            argv = ["simulate", str(spec), "--out", str(work / "out")]
        self.check(*_run_main(argv + stray))

    @given(n=_mostly(st.integers(1, 8).map(str), _LEVEL),
           alpha=_mostly(_floats(1.01, 5.0), _REAL),
           tol=_mostly(_floats(1e-7, 1e-4), _REAL),
           budget=_mostly(st.integers(64, 10 ** 6).map(str), _BUDGET), stray=_STRAY)
    @settings(max_examples=300, deadline=None)
    def test_verify_identity_flags(self, n, alpha, tol, budget, stray):
        argv = ["verify-identity", "--n", n, "--alpha", alpha, "--tol", tol, "--max-terms", budget]
        self.check(*_run_main(argv + stray))
