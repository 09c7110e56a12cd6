import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcarnot import SpecFormatError, parse_spec, render_spec
from qcarnot.cli import (
    REPORT_HEADER,
    SAMPLES_HEADER,
    SWEEP_HEADER,
    SpecFile,
    CycleSection,
    SuddenSection,
    cmd_simulate,
    cmd_sweep,
    cmd_verify_identity,
    format_float,
    main,
)
from qcarnot.boxmodel import WellParams

MINIMAL = "[cycle]\ntop_level = 2\nL1 = 1\nL3 = 4\n"


class TestParseSpec:
    def test_minimal_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.well == WellParams(1.0, 1.0)
        assert spec.cycle.type == "carnot"
        assert spec.cycle.samples_per_stroke == 256
        assert spec.sudden is None

    def test_full_document(self):
        text = (
            "# demo\n[well]\nhbar = 2\nmass = 0.5\n"
            "[cycle]\ntype = carnot\ntop_level = 3\nL1 = 0.5\nL3 = 2.5\n"
            "samples_per_stroke = 16\n"
            "[sudden]\nn = 2\nalpha = 1.5\ntol = 1e-6\n"
        )
        spec = parse_spec(text)
        assert spec.well == WellParams(2.0, 0.5)
        assert spec.cycle.top_level == 3
        assert spec.sudden == SuddenSection(n=2, alpha=1.5, tol=1e-6)

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
        with pytest.raises(SpecFormatError, match="must be finite"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = inf\nL3 = 4\n")

    def test_missing_cycle_section(self):
        with pytest.raises(SpecFormatError, match="missing required section"):
            parse_spec("[well]\nhbar = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(SpecFormatError, match="missing required key 'L3'"):
            parse_spec("[cycle]\ntop_level = 2\nL1 = 1\n")

    def test_sudden_validation(self):
        with pytest.raises(SpecFormatError, match="alpha must exceed 1"):
            parse_spec(MINIMAL + "[sudden]\nn = 1\nalpha = 1\n")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_spec("# header\n\n[cycle]  # trailing\ntop_level = 2 # two\nL1 = 1\nL3 = 4\n")
        assert spec.cycle.top_level == 2


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
        with_sudden=st.booleans(),
        n=st.integers(1, 9),
        alpha=st.floats(1.01, 5.0),
        tol=st.floats(1e-9, 1e-4),
    )
    @settings(max_examples=60)
    def test_round_trip_randomized(self, hbar, mass, top_level, L1, ratio,
                                   samples, with_sudden, n, alpha, tol):
        sudden = SuddenSection(n=n, alpha=alpha, tol=tol) if with_sudden else None
        spec = SpecFile(
            well=WellParams(hbar, mass),
            cycle=CycleSection(
                top_level=top_level, L1=L1, L3=top_level * L1 * ratio,
                samples_per_stroke=samples,
            ),
            sudden=sudden,
        )
        assert parse_spec(render_spec(spec)) == spec


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

    def test_byte_identical_reruns(self, spec_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_simulate(spec_path, out1)
        cmd_simulate(spec_path, out2)
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


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
        assert "l3-from must exceed" in capsys.readouterr().err

    def test_bad_steps_exits_1(self, spec_path, tmp_path):
        assert cmd_sweep(spec_path, 2.5, 4.0, 1, tmp_path / "s.csv") == 1


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
