import io
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcarnot
from qcarnot import cli
from qcarnot import (
    MixedState,
    SampleTable,
    SpecFormatError,
    StrokeKind,
    adiabatic_stroke,
    eigenenergy,
    isothermal_stroke,
    parse_spec,
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
from qcarnot.cycle import (
    MAX_SAMPLES_PER_STROKE,
    MAX_TOP_LEVEL,
    CarnotSpec,
    build_carnot_cycle,
    evaluate_cycle,
)
from qcarnot.errors import DomainError, QuadratureError, VerificationError
from qcarnot.processes import stroke_work_quadrature
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

    @pytest.mark.parametrize("key, raw", [
        ("L1", "1_0"), ("L3", "\uff14\uff10"), ("top_level", "\uff12"),
        ("samples_per_stroke", "\uff12\uff15\uff16"), ("samples_per_stroke", "1_000"),
    ], ids=["underscore", "full-width-decimal", "full-width-integer", "full-width-count",
            "underscore-count"])
    def test_values_are_ascii_digits_without_underscores(self, key, raw):
        # float() and the \d of a regex accept "1_0" and full-width digits.
        values = {"top_level": "2", "L1": "1", "L3": "40", key: raw}
        text = "[cycle]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        kind = "a bare integer" if key in ("top_level", "samples_per_stroke") else "a decimal number"
        line = list(values).index(key) + 2
        with pytest.raises(SpecFormatError) as info:
            parse_spec(text)
        assert str(info.value) == f"line {line}: {key} must be {kind}, got {raw!r}"

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
        with pytest.raises(SpecFormatError,
                           match=f"^line {lines.index(key) + 1}: {key} must "):
            parse_spec(text)

    def test_shipped_spec_files(self, tmp_path):
        paths = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.spec"))
        assert paths
        for path in paths:
            assert isinstance(parse_spec(path.read_text(encoding="utf-8")), CarnotSpec)
            code, err = _run_main(["simulate", str(path), "--out", str(tmp_path / path.stem)])
            assert (code, err) == (0, ""), path.name


def _run_fresh(program):
    """(exit code, stderr) of ``program`` in a fresh interpreter, which has
    imported nothing this test session has."""
    src = str(Path(qcarnot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stderr


class TestPackageImport:
    def test_import_loads_no_cli_and_keeps_the_spec_text_form(self):
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
            "    assert isinstance(spec, qcarnot.CarnotSpec)\n"
        )
        assert _run_fresh(program) == (0, "")

    def test_cli_import_and_samples_csv_load_no_fractions_or_decimal(self, tmp_path):
        program = (
            "import sys\n"
            "import qcarnot.cli as cli\n"
            "from qcarnot import isothermal_stroke, sample_stroke\n"
            "assert not {'fractions', 'decimal'} & set(sys.modules)\n"
            "table = sample_stroke(isothermal_stroke(4.934802200544679, 1.0, 3.0, 1.0), 9)\n"
            f"cli.write_samples_csv({str(tmp_path / 'samples.csv')!r}, table)\n"
            "assert not {'fractions', 'decimal'} & set(sys.modules)\n"
        )
        assert _run_fresh(program) == (0, "")
        assert (tmp_path / "samples.csv").read_text().count("\n") == 10


def _ulp_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Values where '%.17g' changes notation, digit count or exponent width, and
# ties that round half to even.
EDGE_VALUES = [
    2.0 ** -25,  # 2.98023223876953125e-08: a tie at the 17th digit
    *_ulp_neighbours(1e-4),  # fixed notation from 1e-4 up, exponent below
    *_ulp_neighbours(1e16),
    *_ulp_neighbours(1e17),
    math.nextafter(1, 0),
    *(y for k in range(-300, 301) for y in _ulp_neighbours(10.0 ** k)),
    9.9999999999999996e-270,  # rounds to 17 nines only at the exponent below
    1e-100, 1e100, 1.7976931348623157e308, 2.2250738585072014e-308, 5e-324,
    0.0, 0.5, 1.0, 0.1, 123456789012345678.0, 584234130442485.875,
]


def _float_texts(values):
    """The array formatter's text for each of ``values``."""
    text = cli._float_text(np.asarray(values, dtype=np.float64))
    return [bytes(row[row != 0]).decode() for row in text]


def _count_fallbacks(monkeypatch):
    """The values that cli formats through format_float from now on."""
    seen = []

    def counting(x):
        seen.append(x)
        return format_float(x)

    monkeypatch.setattr(cli, "format_float", counting)
    return seen


SI_PARAMS = WellParams(1.054571817e-34, 9.1093837015e-31)


def _si_table():
    """Strokes in SI units, where every width, energy and force takes an
    exponent."""
    return SampleTable.concatenate([
        sample_stroke(isothermal_stroke(eigenenergy(1, 1e-9, SI_PARAMS), 1e-9, 3e-9, 1e-9, SI_PARAMS), 700),
        sample_stroke(adiabatic_stroke(MixedState([1, 2, 3], [0.5, 0.3, 0.2]), 3e-9, 6e-9, SI_PARAMS), 400,
                      stroke_index=2),
    ])


class TestFormatFloat:
    def test_seventeen_digit_round_trip(self):
        for x in (math.pi ** 2 * math.log(2), 0.1, 1e-300, 12345.6789):
            assert float(format_float(x)) == x

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_array_text_matches_format_float_on_any_bits(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _float_texts(values) == [format_float(v) for v in values]

    def test_array_text_matches_format_float_at_edges(self):
        values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        assert _float_texts(values) == [format_float(v) for v in values]

    def test_fallback_only_for_nonfinite_values_and_ties(self, monkeypatch):
        special = [math.nan, math.inf, -math.inf, 2.0 ** -25]
        seen = _count_fallbacks(monkeypatch)
        texts = _float_texts([1.5, *special, 0.0, 1e-300])
        assert [format_float(v) for v in seen] == ["nan", "inf", "-inf", "2.9802322387695312e-08"]
        assert texts == [format_float(v) for v in (1.5, *special, 0.0, 1e-300)]

    def test_no_fallback_in_si_units(self, tmp_path, monkeypatch):
        table = _si_table()
        assert max(table.L.max(), np.abs(table.energy).max(), np.abs(table.force).max()) < 1e-4
        seen = _count_fallbacks(monkeypatch)
        write_samples_csv(tmp_path / "samples.csv", table)
        assert seen == []


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

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory"),
        (MemoryError("Unable to allocate 8.00 GiB"),
         "error: out of memory: Unable to allocate 8.00 GiB"),
    ], ids=["empty", "numpy"])
    def test_memory_exhaustion_exits_2(self, spec_path, tmp_path, monkeypatch, error, line):
        def sample(cycle):
            raise error

        monkeypatch.setattr(cli, "sample_cycle", sample)
        code, err = _run_main(["simulate", str(spec_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.splitlines() == [line]

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

    def test_energy_scale_needs_no_width_cubed(self, tmp_path, capsys):
        # L^3 = 1e-303 and m L^3 = 1e-293 here, but no formula forms them: the
        # energies reach 2e193, the forces 2E/L 4e294 and m L^2 1e-192.
        path = tmp_path / "large.spec"
        path.write_text("[well]\nhbar = 1\nmass = 1e10\n"
                        "[cycle]\ntop_level = 2\nL1 = 1e-101\nL3 = 4e-101\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "eta_closed_form = 0.75\n" in out and "W = 5.13" in out
        assert (tmp_path / "out" / "samples.csv").exists()

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


def _mixed_levels_table():
    # Strokes of 1, 2 and 5 populated levels, over more rows than one write block.
    params = WellParams(1.3, 0.8)
    state = MixedState([1, 3, 4, 7, 9], [0.1, 0.2, 0.3, 0.15, 0.25])
    return SampleTable.concatenate([
        sample_stroke(isothermal_stroke(eigenenergy(1, 0.5, params), 0.5, 2.0, 0.5, params), 701),
        sample_stroke(adiabatic_stroke(state, 2.0, 3.1, params), 650, stroke_index=2),
        sample_stroke(adiabatic_stroke(MixedState.pure(4), 3.1, 2.2, params), 9, stroke_index=3),
    ])


def _block_table(rows):
    return lambda: sample_stroke(isothermal_stroke(eigenenergy(2, 0.7), 0.7, 2.9, 0.35), rows)


class TestSamplesCsv:
    @pytest.mark.parametrize("make_table", [
        pytest.param(_mixed_levels_table, id="mixed_levels"),
        pytest.param(_si_table, id="si_units"),
        *(pytest.param(_block_table(cli._CSV_BLOCK_ROWS + d), id=f"block_rows{d:+d}") for d in (-1, 0, 1)),
    ])
    def test_matches_per_row_formatting(self, tmp_path, make_table):
        table = make_table()
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

    def test_raised_budget_certifies_past_the_default(self, capsys):
        # The default 1e8-term budget cannot certify this case; 1e9 can, and
        # cheaply: past the identity's head, terms are summed from block
        # moments, with no terms-sized array.
        argv = ["verify-identity", "--n", "1", "--alpha", "2", "--tol", "1e-9"]
        assert main(argv) == 2
        assert "within 100000000 terms" in capsys.readouterr().err
        assert main(argv + ["--max-terms", "1000000000"]) == 0
        assert "terms_used = 426615512" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("alpha, cutoff", [
        ("1e300", "2.0000000000000001e+300"), ("1e16", "20000000000000000"), ("1e308", "inf"),
    ])
    def test_huge_minimum_cutoff_stays_one_short_line(self, alpha, cutoff):
        code, err = _run_main(["verify-identity", "--n", "1", "--alpha", alpha, "--tol", "1e-6"])
        assert code == 2
        assert err.splitlines() == [
            f"error: budget 100000000 is below the minimum cutoff {cutoff}"
        ]
        assert len(err.splitlines()[0]) < 120

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

    def test_a_missed_residual_reports_the_real_search(self, monkeypatch, capsys):
        certified = qcarnot.verify_energy_identity(1, 2.0, 1e-6)
        monkeypatch.setattr(qcarnot.sudden, "_energy_series", lambda alpha, n, terms: 1.0 + 2e-6)
        assert main(["verify-identity", "--n", "1", "--alpha", "2", "--tol", "1e-6"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[:3] == [
            f"achieved_sum = {format_float(1.0 + 2e-6)}",
            f"terms_used = {certified.terms_used}",
            f"tail_bound = {format_float(certified.tail_bound)}",
        ]
        assert len(lines) == 4 and lines[3].startswith("error: partial sum ")


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

    def test_spec_past_the_energy_scale_exits_2_at_load(self, tmp_path, monkeypatch):
        # The sweep would replace the spec's L3, but the spec is checked whole
        # when it is loaded.
        self.forbid_evaluation(monkeypatch)
        path, out = tmp_path / "wide.spec", tmp_path / "s.csv"
        path.write_text("[cycle]\ntop_level = 2\nL1 = 1\nL3 = 1e200\n")
        code, err = _run_main(["sweep", str(path), "--l3-from", "3", "--l3-to", "4",
                               "--steps", "2", "--out", str(out)])
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: energy scale out of range: ") and "1.0..1e+200 " in line
        assert not out.exists()

    def test_descending_range_names_its_lower_end(self, spec_path, tmp_path, monkeypatch, capsys):
        # Steps 3.0, 2.625, 2.25, 1.875, 1.5: the end below the floor is named,
        # not the first step below it.
        self.forbid_evaluation(monkeypatch)
        assert cmd_sweep(spec_path, 3.0, 1.5, 5, tmp_path / "s.csv") == 1
        assert capsys.readouterr().err == (
            "error: L3 must exceed top_level*L1: got L3=1.5, top_level*L1=2.0\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.0, exclude_min=True, allow_infinity=False),
           b=st.floats(0.0, exclude_min=True, allow_infinity=False),
           steps=st.integers(2, cli.MAX_SWEEP_STEPS))
    def test_linspace_stays_between_its_ends(self, a, b, steps):
        # Checking the two ends checks every step: each rule of CarnotSpec
        # bounds L3 from below or bounds monomials in it, and no np.linspace
        # value lies past an end.  With ends near the largest double the last
        # product overflows and np.linspace replaces it by the end; cmd_sweep
        # never sees that, as the energy scale keeps a checked end <= 1e300.
        with np.errstate(over="ignore"):
            widths = np.linspace(a, b, steps)
        assert widths.min() == min(a, b) and widths.max() == max(a, b)

    @pytest.mark.parametrize("l3_from, l3_to, steps", [
        (2.0, 1.7976931348623157e308, 203687), (1.7976931348623157e308, 2.0, cli.MAX_SWEEP_STEPS),
        (1e99, 1e101, cli.MAX_SWEEP_STEPS),
    ])
    def test_a_range_up_to_the_largest_double_warns_of_nothing(self, spec_path, tmp_path, monkeypatch,
                                                                l3_from, l3_to, steps):
        # The energy scale rejects the upper end before np.linspace runs,
        # which would overflow in its last product on the first two ranges,
        # and before any cycle is built; a RuntimeWarning is an error under
        # pytest and would otherwise reach stderr.
        def build(spec):
            raise AssertionError("a cycle was built")

        monkeypatch.setattr(cli, "build_carnot_cycle", build)
        out = tmp_path / "s.csv"
        started = time.perf_counter()
        code, err = _run_main(["sweep", str(spec_path), "--l3-from", repr(l3_from),
                               "--l3-to", repr(l3_to), "--steps", str(steps), "--out", str(out)])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        [line] = err.splitlines()
        assert line.startswith("error: energy scale out of range: ")
        assert f"widths 1.0..{max(l3_from, l3_to)!r} " in line
        assert not out.exists()

    def test_sweep_at_the_step_cap_reaches_its_first_cycle_at_once(self, spec_path, tmp_path,
                                                                  monkeypatch):
        # Each step's CarnotSpec is built when the step runs, not all before
        # the first cycle.
        class Reached(Exception):
            pass

        def evaluate(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "evaluate_cycle", evaluate)
        started = time.perf_counter()
        with pytest.raises(Reached):
            cmd_sweep(spec_path, 3.0, 4.0, cli.MAX_SWEEP_STEPS, tmp_path / "s.csv")
        assert time.perf_counter() - started < 1.0

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


class TestSweepChunks:
    """A sweep integrates the strokes of a chunk of steps in one
    ``stroke_work_quadrature`` call and hands each step's four works to
    ``evaluate_cycle``, which gates them as it gates its own quadrature."""

    CYCLE = build_carnot_cycle(CarnotSpec(2, 1.0, 4.0))

    def test_supplied_works_give_the_report_of_its_own_quadrature(self):
        works = stroke_work_quadrature(self.CYCLE.strokes)
        assert evaluate_cycle(self.CYCLE, works) == evaluate_cycle(self.CYCLE)
        assert evaluate_cycle(self.CYCLE, tuple(works)) == evaluate_cycle(self.CYCLE)

    @pytest.mark.parametrize("stroke", [1, 2, 3, 4])
    def test_a_supplied_work_off_by_1e9_names_its_stroke(self, stroke):
        works = stroke_work_quadrature(self.CYCLE.strokes)
        works[stroke - 1] *= 1.0 + 1e-9
        with pytest.raises(QuadratureError, match=rf"^quadrature_discrepancy \S+ exceeds 1e-10: "
                                                  rf"stroke {stroke} works "):
            evaluate_cycle(self.CYCLE, works)

    @pytest.mark.parametrize("quadrature, text", [
        ([1.0] * 3, "quadrature must hold 4 works, got 3"),
        ([1.0] * 5, "quadrature must hold 4 works, got 5"),
        ([], "quadrature must hold 4 works, got 0"),
        (4.0, "quadrature must be a Sequence, got 4.0"),
        ({1.0, 2.0, 3.0, 4.0}, "quadrature must be a Sequence, got {"),
        (iter([1.0] * 4), "quadrature must be a Sequence, got <list_iterator"),
        ("1234", "quadrature[0] must be finite, got '1'"),
        ([1.0, None, 1.0, 1.0], "quadrature[1] must be finite, got None"),
        ([1.0, 1.0, True, 1.0], "quadrature[2] must be finite, got True"),
        ([1.0, 1.0, 1.0, math.nan], "quadrature[3] must be finite, got nan"),
        ([1.0, -math.inf, 1.0, 1.0], "quadrature[1] must be finite, got -inf"),
    ])
    def test_a_supplied_quadrature_of_another_length_or_type_raises(self, quadrature, text):
        with pytest.raises(DomainError, match="^" + re.escape(text)):
            evaluate_cycle(self.CYCLE, quadrature)

    def test_a_sweep_makes_one_quadrature_call_per_chunk(self, spec_path, tmp_path, monkeypatch):
        steps = 2 ** 12
        calls = {"stroke_work_quadrature": [], "evaluate_cycle": []}
        for name, seen in calls.items():
            def spy(*args, exact=getattr(cli, name), seen=seen):
                seen.append(args)
                return exact(*args)

            monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "s.csv"
        assert cmd_sweep(spec_path, 3.0, 40.0, steps, out) == 0
        chunk = cli._SWEEP_CHUNK_STEPS
        quadratures, cycles = calls["stroke_work_quadrature"], calls["evaluate_cycle"]
        assert len(quadratures) == math.ceil(steps / chunk) and len(cycles) == steps
        assert [len(strokes) for strokes, in quadratures] == [1 + 3 * chunk] * (steps // chunk)
        assert all(len(works) == 4 for _, works in cycles)
        assert len(out.read_text().splitlines()) == 1 + steps

    @pytest.mark.parametrize("stroke", [1, 2, 3, 4])
    def test_a_chunk_work_off_by_1e9_exits_2_before_any_output(self, spec_path, tmp_path, monkeypatch,
                                                              capsys, stroke):
        # Step 2 of the second chunk gets one of its four works off by 1e-9;
        # below L3 = 3 the cold isotherm's work is more than Q_H / 10.
        exact = cli.stroke_work_quadrature
        chunks = []

        def mutated(strokes):
            works = exact(strokes)
            chunks.append(len(strokes))
            if len(chunks) == 2:
                works[0 if stroke == 1 else 1 + 3 * 1 + stroke - 2] *= 1.0 + 1e-9
            return works

        monkeypatch.setattr(cli, "stroke_work_quadrature", mutated)
        out = tmp_path / "s.csv"
        assert cmd_sweep(spec_path, 2.5, 3.0, cli._SWEEP_CHUNK_STEPS + 5, out) == 2
        assert re.fullmatch(rf"error: quadrature_discrepancy \S+ exceeds 1e-10: stroke {stroke} works "
                            r"\S+ closed form, \S+ quadrature\n", capsys.readouterr().err)
        assert chunks == [1 + 3 * cli._SWEEP_CHUNK_STEPS, 1 + 3 * 5] and not out.exists()


SPECS = Path(__file__).resolve().parents[1] / "specs"


@pytest.mark.parametrize("module, name, scaled", [
    (qcarnot.cycle, "stroke_work", lambda stroke: stroke.kind is StrokeKind.ISOTHERMAL),
    (qcarnot.cycle, "stroke_work", lambda stroke: stroke.kind is StrokeKind.ADIABATIC),
    (qcarnot.processes, "_energy_from_square_sum", lambda *args: True),
], ids=["isotherm-closed-form", "adiabat-closed-form", "integrand"])
@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--l3-from", "3", "--l3-to", "8",
                                                    "--steps", "3"]], ids=["simulate", "sweep"])
def test_a_work_off_by_1e9_exits_2_before_any_output(monkeypatch, tmp_path, module, name, scaled,
                                                    command):
    # A closed form or the quadrature's integrand off by 1e-9 relative puts
    # the quadrature discrepancy past the 1e-10 gate on every cycle.
    exact = getattr(module, name)

    def mutated(*args):
        value = exact(*args)
        return value * (1.0 + 1e-9) if scaled(*args) else value

    monkeypatch.setattr(module, name, mutated)
    out = tmp_path / "out"
    code, err = _run_main([command[0], str(SPECS / "two_state.spec"), *command[1:], "--out", str(out)])
    assert code == 2
    assert re.fullmatch(r"error: quadrature_discrepancy \S+ exceeds 1e-10: stroke [1-4] works "
                        r"\S+ closed form, \S+ quadrature\n", err)
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
           tol=_mostly(_floats(1e-15, 1e-4), _REAL),
           budget=_mostly(st.integers(64, 2 ** 53).map(str), _BUDGET), stray=_STRAY)
    @settings(max_examples=300, deadline=None)
    def test_verify_identity_flags(self, n, alpha, tol, budget, stray):
        argv = ["verify-identity", "--n", n, "--alpha", alpha, "--tol", tol, "--max-terms", budget]
        self.check(*_run_main(argv + stray))
