import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import oam_interferometry
from oam_interferometry import ExperimentConfig, fock_oracle
from oam_interferometry import homodyne_mean, quantum_cramer_rao_bound, sensitivity, shot_noise_limit
from oam_interferometry.cli import (
    EVAL_COLUMNS,
    ConfigError,
    SweepError,
    SweepSpec,
    main,
    parse_config,
    render_config,
    reproduce,
    run_sweep,
    to_csv,
)
from oam_interferometry.validation import run_validation
from reference import repeated

FIG3_TEXT = "g=2\nell=1\nalpha_sq=100"


class TestParseConfig:
    def test_reference_point(self):
        cfg = parse_config(FIG3_TEXT)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg == ExperimentConfig(
            g=2.0, ell=1, alpha_mag=10.0, theta=0.0, phi=0.0, transmissivity=1.0
        )

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\ng = 1.5  # gain\nell = 2\n")
        assert cfg.g == 1.5 and cfg.ell == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("ell=0", "ell"),
            ("transmissivity=1.5", "transmissivity"),
            ("g=-1", "g"),
            ("alpha_sq=-4", "alpha_sq"),
            ("mystery=3", "unknown key"),
            ("g", "key = value"),
            ("g=oops", "number"),
            ("g=1\ng=2", "duplicate"),
            ("quantity=signal", "no sweep"),
            ("sweep = phi 0 1 3", "no quantity"),
            ("quantity=banana\nsweep = phi 0 1 3", "unknown quantity"),
            ("quantity=signal\nsweep = banana 0 1 3", "unknown sweep parameter"),
            ("quantity=signal\nsweep = phi 0 1 3\nsweep = phi 1 2 3", "duplicate sweep"),
            ("quantity=signal\nsweep = ell 1 2 4", "positive integers"),
            ("quantity=max_loss\nsweep = phi 0 1 3", "not supported for max_loss"),
            (
                "quantity=signal\nsweep = phi 0 1 3\nsweep = theta 0 1 3\nsweep = g 0 1 3",
                "at most 2",
            ),
        ],
    )
    def test_rejections_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("g = 1\nell = 2\ntransmissivity = 7\n")

    def test_sweep_spec_shape(self):
        spec = parse_config(
            "g=1\nell=3\nalpha_sq=10\nquantity = signal\n"
            "sweep = phi 0 3.14 5\nsweep = theta 0 6.28 4\n"
        )
        assert isinstance(spec, SweepSpec)
        assert spec.quantity == "signal"
        assert [a.name for a in spec.axes] == ["phi", "theta"]
        assert [a.count for a in spec.axes] == [5, 4]

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg = ExperimentConfig(
                g=float(rng.uniform(0, 3)),
                ell=int(rng.integers(1, 9)),
                alpha_mag=float(rng.uniform(0, 20)),
                theta=float(rng.uniform(-7, 7)),
                phi=float(rng.uniform(-7, 7)),
                transmissivity=float(rng.uniform(0, 1)),
            )
            assert parse_config(render_config(cfg)) == cfg


class TestRunSweep:
    def test_single_point_equals_direct_evaluation(self):
        spec = parse_config(FIG3_TEXT + "\nquantity = qcrb\nsweep = g 2 2 1")
        result = run_sweep(spec)
        assert len(result.rows) == 1
        cfg = parse_config(FIG3_TEXT)
        assert result.rows[0][1] == pytest.approx(quantum_cramer_rao_bound(cfg), rel=1e-12)

    def test_two_axis_row_count_and_order(self):
        spec = parse_config(
            "alpha_sq=4\nquantity = signal\nsweep = phi 1 0 3\nsweep = theta 0 1 2\n"
        )
        result = run_sweep(spec)
        assert result.columns == ("phi", "theta", "value", "flag")
        assert len(result.rows) == 6
        axis_pairs = [(r[0], r[1]) for r in result.rows]
        assert axis_pairs == sorted(axis_pairs)  # lexicographic despite reversed input

    def test_values_match_closed_form(self):
        spec = parse_config(
            "g=1\nell=3\nalpha_sq=10\nquantity = signal\nsweep = phi 0 1 5\n"
        )
        result = run_sweep(spec)
        for phi, value, flag in result.rows:
            cfg = ExperimentConfig(g=1.0, ell=3, alpha_mag=math.sqrt(10.0), theta=0.0, phi=phi)
            assert value == pytest.approx(homodyne_mean(cfg), rel=1e-12)
            assert flag == ""

    def test_divergent_points_are_flagged_not_dropped(self):
        spec = parse_config("g=1\nell=1\nalpha_sq=4\nquantity = sensitivity\nsweep = phi 0 " + repr(math.pi) + " 5")
        result = run_sweep(spec)
        assert len(result.rows) == 5
        flagged = [r for r in result.rows if r[2] == "divergent"]
        assert flagged and all(math.isinf(r[1]) for r in flagged)

    def test_errors_are_annotated_with_coordinates(self):
        spec = parse_config("alpha_sq=0\nquantity = visibility\nsweep = phi 0 1 3")
        with pytest.raises(SweepError, match=r"visibility failed at \(phi=0\)"):
            run_sweep(spec)

    def test_parallel_path_is_deterministic(self):
        text = "g=1\nell=2\nalpha_sq=9\nquantity = signal\nsweep = phi 0 6.28 40\nsweep = theta 0 6.28 3"
        a = to_csv(run_sweep(parse_config(text)), timestamp=False)
        b = to_csv(run_sweep(parse_config(text)), timestamp=False)
        assert a == b
        assert len(parse_config(text).axes) == 2

    def test_max_loss_sweep_carries_flags(self):
        spec = parse_config("alpha_sq=0.01\nquantity = max_loss\nsweep = g 0.5 1 2")
        result = run_sweep(spec)
        assert all(r[2] == "no-sub-snl-region" and r[1] == 0.0 for r in result.rows)


class TestCsv:
    def test_metadata_and_header(self):
        spec = parse_config("alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        text = to_csv(run_sweep(spec))
        lines = text.splitlines()
        assert lines[0].startswith("# oam-interferometry")
        assert any(line.startswith("# quantity=snl") for line in lines)
        assert any(line.startswith("# generated=") for line in lines)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "g,value,flag"
        assert len(lines) == header_idx + 1 + 3

    def test_timestamp_is_the_only_unstable_line(self):
        spec = parse_config("alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        with_ts = to_csv(run_sweep(spec)).splitlines()
        without_ts = to_csv(run_sweep(spec), timestamp=False).splitlines()
        assert [l for l in with_ts if not l.startswith("# generated=")] == without_ts


class TestReproduce:
    def test_fig2_surface(self):
        result = reproduce("fig2")
        assert result.columns == ("phi", "theta", "value", "flag")
        assert len(result.rows) == 101 * 81
        phi, theta, value, flag = result.rows[0]
        cfg = ExperimentConfig(g=1.0, ell=3, alpha_mag=math.sqrt(10.0), theta=theta, phi=phi)
        assert value == pytest.approx(homodyne_mean(cfg), rel=1e-12)

    def test_fig3_dips_below_shot_noise(self):
        result = reproduce("fig3")
        sens = [r for r in result.rows if r[1] == "sensitivity"]
        snl_rows = [r for r in result.rows if r[1] == "snl"]
        assert len(sens) == len(snl_rows) == 201
        snl = snl_rows[0][2]
        assert min(r[2] for r in sens) < snl
        assert any(r[3] == "divergent" for r in sens)

    def test_fig4_gap_shrinks_with_brightness(self):
        result = reproduce("fig4")
        by_asq = {}
        for g, asq, quantity, value, _ in result.rows:
            by_asq.setdefault(asq, {}).setdefault(quantity, []).append((g, value))
        gaps = {}
        for asq, series in by_asq.items():
            s = dict(series["sensitivity_opt"])
            q = dict(series["qcrb"])
            top_g = max(s)
            gaps[asq] = s[top_g] / q[top_g]
        assert gaps[1000.0] - 1.0 < gaps[100.0] - 1.0 < gaps[10.0] - 1.0

    def test_fig6_stays_sub_snl_at_the_optimum(self):
        result = reproduce("fig6")
        sens = [r[2] for r in result.rows if r[1] == "sensitivity_lossy"]
        snl = next(r[2] for r in result.rows if r[1] == "snl")
        assert min(sens) < snl  # 38% loss still beats the lossless shot noise
        assert min(sens) / snl > 0.99  # but only barely, at the threshold

    def test_fig7_single_row(self):
        result = reproduce("fig7")
        assert len(result.rows) == 1
        g, ell, alpha_sq, value, flag = result.rows[0]
        assert (g, ell, alpha_sq) == (2.0, 1.0, 100.0)
        assert value == pytest.approx(0.38, abs=0.01)
        assert flag == ""

    def test_fig8_interior_maximum_at_reference_brightness(self):
        result = reproduce("fig8")
        curve = [(g, v) for g, asq, v, _ in result.rows if asq == 100.0]
        values = [v for _, v in curve]
        imax = values.index(max(values))
        assert 0 < imax < len(values) - 1

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            reproduce("fig1")


class TestValidateHarness:
    def test_quick_preset_passes_fast(self):
        report = run_validation("quick")
        assert report.passed
        assert report.point_count <= 100
        assert report.elapsed_seconds < 60.0
        text = report.render()
        assert "oracle vs closed form" in text
        assert "loss scaling of mean" in text
        assert text.strip().endswith("overall: PASS")

    def test_oracle_checks_report_cutoff_and_tail_mass(self):
        report = run_validation("quick")
        for check in report.checks:
            if "oracle" in check.name:
                assert check.cutoff == 40
                assert 0.0 <= check.tail_mass < fock_oracle.DEFAULT_TAIL_TOLERANCE
            else:
                assert check.cutoff is None and check.tail_mass is None
        oracle_lines = [line for line in report.lines() if "oracle vs" in line]
        assert len(oracle_lines) == 3
        assert all(" cutoff=40 tail=" in line for line in oracle_lines)

    def test_corrupted_coupler_sign_is_caught_at_zero_gain(self, monkeypatch):
        # the coupler three times over: exp(3 pi/4 (a^dag b - a b^dag))
        real = fock_oracle.bs_unitary
        monkeypatch.setattr(fock_oracle, "bs_unitary", lambda cutoff: repeated(real(cutoff), 3))
        cfg = ExperimentConfig(g=0.0, ell=1, alpha_mag=1.0, theta=0.4, phi=0.7)
        report = fock_oracle.moments(fock_oracle.evolve(cfg, cutoff=20))
        assert abs(report.x_mean - homodyne_mean(cfg)) > 1e-3

        validation = run_validation("quick")
        assert not validation.passed
        failed = {c.name for c in validation.checks if not c.passed}
        assert "signal mean: oracle vs closed form" in failed

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_validation("leisurely")


class TestMainEntry:
    def _write(self, tmp_path, text, name="config.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_eval_emits_one_csv_row(self, tmp_path, capsys):
        path = self._write(tmp_path, FIG3_TEXT + "\ntheta = 1.5707963267948966\nphi = 1.5707963267948966")
        assert main(["eval", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "note: theta and phi are interpreted as radians" in captured.err
        lines = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("g,ell,alpha_sq")
        row = lines[1].split(",")
        assert float(row[8]) == pytest.approx(1.2718171032039976e-3, rel=1e-9)

    @pytest.mark.parametrize(
        "text", ["g = 1\nalpha_sq = 0", "alpha_sq = 4\ntransmissivity = 0"]
    )
    def test_eval_reports_undefined_visibility_as_nan(self, tmp_path, capsys, text):
        # vacuum input, and total loss: no signal, so no contrast and no slope
        path = self._write(tmp_path, text)
        assert main(["eval", "--config", path]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["visibility"] == "nan"
        assert row["sensitivity"] == "inf"
        assert row["flag"] == "divergent"
        assert math.isfinite(float(row["snl"])) and math.isfinite(float(row["qcrb"]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, flag",
        [
            # a bright input: the photon number and the Fisher information
            # overflow, the signal, noise and sensitivity do not
            ("g = 350\nalpha_sq = 1e12\ntheta = 1.5707963267948966", "non-finite"),
            # no photons: the benchmarks are undefined and the slope is 0
            ("g = 0\nalpha_sq = 0", "divergent"),
        ],
    )
    def test_eval_reports_undefined_benchmarks_as_nan(self, tmp_path, capsys, text, flag):
        path = self._write(tmp_path, text)
        assert main(["eval", "--config", path]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (row["snl"], row["hl"], row["qcrb"]) == ("nan", "nan", "nan")
        assert row["flag"] == flag
        cfg = parse_config(text)
        assert row["signal"] == repr(homodyne_mean(cfg))
        assert row["sensitivity"] == repr(sensitivity(cfg))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, undefined",
        [
            # cosh 2g overflows: the noise and with it the sensitivity, the
            # photon number and the Fisher information; the signal is defined
            (
                "g = 360\nalpha_sq = 1\ntheta = 1.5707963267948966",
                {"fluctuation", "sensitivity", "snl", "hl", "qcrb"},
            ),
            # cosh g overflows too, and with no input nothing is defined
            ("g = 800\nalpha_sq = 0", {name for name, _ in EVAL_COLUMNS}),
        ],
    )
    def test_eval_flags_the_row_where_a_hyperbolic_overflows(
        self, tmp_path, capsys, text, undefined
    ):
        path = self._write(tmp_path, text)
        assert main(["eval", "--config", path]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        for name, _ in EVAL_COLUMNS:
            assert (row[name] == "nan") == (name in undefined), name
        assert row["flag"] == "non-finite"

    def test_eval_rejects_sweep_config(self, tmp_path):
        path = self._write(tmp_path, "alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        assert main(["eval", "--config", path]) == 1

    def test_sweep_writes_file(self, tmp_path, capsys):
        path = self._write(tmp_path, "alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        out = tmp_path / "result.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        content = out.read_text()
        assert content.splitlines()[-1].count(",") == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "ell = 0")
        assert main(["eval", "--config", path]) == 1
        assert "ell" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["eval", "--config", "/no/such/file"]) == 1
        capsys.readouterr()

    def test_usage_error_exit_code(self, capsys):
        assert main(["reproduce", "fig99"]) == 1
        assert main([]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_max_loss_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, FIG3_TEXT)
        assert main(["max-loss", "--config", path]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[-1].split(",")[3])
        assert value == pytest.approx(0.38, abs=0.01)

    def test_grid_flag_is_gone(self, tmp_path, capsys):
        path = self._write(tmp_path, FIG3_TEXT)
        assert main(["max-loss", "--config", path, "--grid", "0"]) == 1
        capsys.readouterr()

    def test_reproduce_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        assert main(["reproduce", "fig7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "max_loss" in out.read_text()


class TestUndefinedPointsThroughMain:
    """A sweep with undefined points exits 0 with every defined row kept; the
    header counts the undefined rows and names the first in row order."""

    def _sweep(self, tmp_path, capsys, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "--config", str(path)])
        captured = capsys.readouterr()
        header = [l for l in captured.out.splitlines() if l.startswith("#")]
        rows = [l.split(",") for l in captured.out.splitlines() if not l.startswith("#")][1:]
        return code, header, rows, captured.err

    def _undefined_line(self, header):
        after_axes = header[[l.startswith("# axes=") for l in header].index(True) + 1]
        assert sum(l.startswith("# undefined=") for l in header) == 1
        return after_axes

    def test_qcrb_past_the_overflow_keeps_the_defined_rows(self, tmp_path, capsys):
        code, header, rows, _ = self._sweep(
            tmp_path, capsys, "alpha_sq = 1\nquantity = qcrb\nsweep = g 0 700 8\n"
        )
        assert code == 0
        assert [flag for _, _, flag in rows] == ["", ""] + ["non-finite"] * 6
        for g, value, _ in rows[:2]:
            cfg = ExperimentConfig(g=float(g), ell=1, alpha_mag=1.0, theta=0.0, phi=0.0)
            assert value == repr(quantum_cramer_rao_bound(cfg))
        assert all(value == "nan" for _, value, _ in rows[2:])
        assert self._undefined_line(header) == (
            "# undefined=6 of 8; qcrb failed at (g=200): (34, 'Numerical result out of range')"
        )

    def test_sensitivity_at_large_gain_names_the_first_overflow(self, tmp_path, capsys):
        text = (
            "alpha_sq = 1\ntheta = 1.5707963267948966\nphi = 0.4\n"
            "quantity = sensitivity\nsweep = g 0 360 5\n"
        )
        code, header, rows, _ = self._sweep(tmp_path, capsys, text)
        assert code == 0
        assert [flag for _, _, flag in rows] == [""] * 4 + ["non-finite"]
        for g, value, _ in rows[:4]:
            cfg = ExperimentConfig(
                g=float(g), ell=1, alpha_mag=1.0, theta=math.pi / 2.0, phi=0.4
            )
            assert value == repr(sensitivity(cfg))
        assert self._undefined_line(header) == (
            "# undefined=1 of 5; sensitivity failed at (g=360): math range error"
        )

    def test_max_loss_at_zero_amplitude_names_the_point(self, tmp_path, capsys):
        code, header, rows, _ = self._sweep(
            tmp_path, capsys, "quantity = max_loss\nsweep = alpha_sq 0 1 3\n"
        )
        assert code == 0
        assert [flag for _, _, flag in rows] == ["non-finite", "", ""]
        assert self._undefined_line(header) == (
            "# undefined=1 of 3; max_loss failed at (alpha_sq=0): alpha_mag must be > 0"
        )

    def test_every_point_undefined_exits_1(self, tmp_path, capsys):
        code, _, rows, err = self._sweep(
            tmp_path, capsys, "alpha_sq = 0\nquantity = visibility\nsweep = phi 0 1 3\n"
        )
        assert code == 1 and rows == []
        assert err.splitlines()[-1] == (
            "error: visibility failed at (phi=0): visibility undefined for zero input amplitude"
        )


def test_one_version_everywhere():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    header = to_csv(reproduce("fig7"), timestamp=False).splitlines()[0]
    assert oam_interferometry.__version__ == declared
    assert header == f"# oam-interferometry {declared}"
