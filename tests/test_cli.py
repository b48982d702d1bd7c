import hashlib
import itertools
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oam_interferometry
from oam_interferometry import ExperimentConfig, SymplecticOp, fock_oracle, interferometer
from oam_interferometry import homodyne_mean, quantum_cramer_rao_bound, sensitivity, shot_noise_limit
from oam_interferometry import quadrature_mean, run_lossless
from oam_interferometry.cli import (
    EVAL_COLUMNS,
    ConfigError,
    SweepError,
    SweepResult,
    SweepSpec,
    _grid_rows,
    entry,
    main,
    parse_config,
    render_config,
    render_sweep,
    reproduce,
    run_sweep,
    to_csv,
)
from oam_interferometry.validation import _describe, _record, run_validation
from helpers import flip_mode_b_ladder, without_timestamp

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
            ("ell = 0", "^line 1: ell must be a positive integer$"),
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
            ("sweep = phi 0 1 0", "^line 1: sweep count must be >= 1$"),
            ("g = inf", "^line 1: g must be finite$"),
            ("ell = 1.5", r"^line 1: ell must be an integer, got '1\.5'$"),
            ("quantity = signal\nquantity = snl", "^line 2: duplicate key quantity$"),
            ("g = 1\nsweep = phi 0 1", "^line 2: sweep needs '<param> <start> <stop> <count>'$"),
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

    @given(
        g=st.floats(0.0, 1e300),
        ell=st.integers(1, 2**53),
        # |alpha|^2 is a normal double over this range
        alpha_mag=st.floats(1.5e-154, 1.3e154),
        theta=st.floats(-1e300, 1e300),
        phi=st.floats(-1e300, 1e300),
        transmissivity=st.floats(0.0, 1.0),
    )
    def test_round_trip_over_the_normal_squares(self, g, ell, alpha_mag, theta, phi, transmissivity):
        cfg = ExperimentConfig(g, ell, alpha_mag, theta, phi, transmissivity)
        assert parse_config(render_config(cfg)) == cfg

    def test_render_survives_a_square_that_underflows(self):
        cfg = ExperimentConfig(g=0.0, ell=1, alpha_mag=1e-200, theta=0.0, phi=0.0)
        assert "alpha_sq = 0.0" in render_config(cfg).splitlines()


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

    def test_hand_built_spec_with_an_unknown_quantity_is_rejected(self):
        spec = parse_config("quantity = signal\nsweep = phi 0 1 3")
        spec = SweepSpec(base=spec.base, axes=spec.axes, quantity="banana")
        with pytest.raises(ConfigError, match="^unknown quantity 'banana'$"):
            run_sweep(spec)

    def test_errors_are_annotated_with_coordinates(self):
        spec = parse_config("alpha_sq=0\nquantity = visibility\nsweep = phi 0 1 3")
        with pytest.raises(SweepError, match=r"visibility failed at \(phi=0\)"):
            run_sweep(spec)

    def test_two_axis_sweep_is_repeatable(self):
        text = "g=1\nell=2\nalpha_sq=9\nquantity = signal\nsweep = phi 0 6.28 40\nsweep = theta 0 6.28 3"
        a = without_timestamp(to_csv(run_sweep(parse_config(text))))
        b = without_timestamp(to_csv(run_sweep(parse_config(text))))
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

    def test_sweep_header_reproduces_its_sweep(self):
        spec = parse_config("g = 1\nalpha_sq = 10\nquantity = signal\nsweep = phi 0 6.123456789 7")
        metadata = run_sweep(spec).metadata
        assert metadata["axes"] == "phi[0.0:6.123456789:7]"
        text = render_sweep(spec)
        assert parse_config(text) == spec
        assert metadata["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()

    def test_sweeps_differing_only_in_an_axis_stop_hash_differently(self):
        base = "alpha_sq = 1\nquantity = snl\nsweep = g 0.1234567 "
        hashes = {
            run_sweep(parse_config(base + stop)).metadata["config_sha256"]
            for stop in ("1.00000001 3", "1.00000002 3")
        }
        assert len(hashes) == 2

    def test_timestamp_is_the_only_unstable_line(self):
        spec = parse_config("alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        first, second = (to_csv(run_sweep(spec)) for _ in range(2))
        assert sum(l.startswith("# generated=") for l in first.splitlines()) == 1
        assert without_timestamp(first) == without_timestamp(second)

    def test_each_entry_is_its_own_str_where_a_column_repeats(self):
        # every column repeats an entry, so each is read through its text map
        nan, other_nan = float("nan"), float("nan")
        rows = (
            (0.0, -0.0, nan, "x"),
            (-0.0, 0.0, nan, "x"),
            (0.0, -0.0, other_nan, "y"),
            (math.inf, -math.inf, math.inf, "x"),
            (-math.inf, 0.0, -math.inf, "x"),
        )
        assert nan is not other_nan
        assert all(len(set(column)) < len(column) for column in zip(*rows))
        text = to_csv(SweepResult(("a", "b", "c", "d"), rows, {"quantity": "hand-built"}))
        assert text.splitlines()[-6:] == [
            "a,b,c,d",
            "0.0,-0.0,nan,x",
            "-0.0,0.0,nan,x",
            "0.0,-0.0,nan,y",
            "inf,-inf,inf,x",
            "-inf,0.0,-inf,x",
        ]
        assert text.endswith("-inf,0.0,-inf,x\n")

    @pytest.mark.parametrize("shape", [(1,), (7,), (1, 5), (3, 4), (3, 56, 2)])
    def test_grid_rows_are_the_product_of_the_axes(self, shape):
        axes = [np.linspace(0.25, 3.0, n) * (k + 1) for k, n in enumerate(shape)]
        if len(shape) == 3:  # fig4's innermost axis names the quantity
            axes[-1] = np.array(["sensitivity_opt", "qcrb"])
        value = np.arange(math.prod(shape), dtype=float).reshape(shape) / 7.0
        flags = [f"flag{i}" for i in range(value.size)]
        rows = _grid_rows(axes, value, flags)
        expected = tuple(
            (*point, v, flag)
            for point, v, flag in zip(
                itertools.product(*(a.tolist() for a in axes)), value.ravel().tolist(), flags
            )
        )
        assert rows == expected
        assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expected]
        # rows share their coordinate objects: one per axis value
        for k in range(len(shape)):
            assert len({id(row[k]) for row in rows}) == shape[k]


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

    def test_cold_and_warm_caches_render_the_same_report(self):
        # the oracle's one cache, the real state per gain, amplitude and
        # cutoff, is read-only: a warm run reads exactly what the cold run built
        caches = [cache for cache in vars(fock_oracle).values() if hasattr(cache, "cache_clear")]
        assert caches
        for cache in caches:
            cache.cache_clear()
        cold, warm = [
            [re.sub(r" elapsed=\S+", "", line) for line in run_validation("quick").lines()]
            for _ in range(2)
        ]
        assert warm == cold
        assert all(cache.cache_info().hits > 0 for cache in caches)

    def test_corrupted_coupler_sign_is_caught_with_gain(self, monkeypatch):
        # the coupler read as X_out = (X_A - X_B)/sqrt2; at g = 0 mode B is
        # vacuum and the sign is moot, so it shows only with gain
        flip_mode_b_ladder(monkeypatch)
        for g, seen in [(0.0, False), (0.3, True)]:
            cfg = ExperimentConfig(g=g, ell=1, alpha_mag=1.0, theta=0.4, phi=0.7)
            report = fock_oracle.moments(fock_oracle.evolve(cfg, cutoff=20))
            assert (abs(report.x_mean - homodyne_mean(cfg)) > 1e-3) is seen

        validation = run_validation("quick")
        assert not validation.passed
        failed = {c.name for c in validation.checks if not c.passed}
        assert "signal mean: oracle vs closed form" in failed

    def test_corrupted_engine_coupler_sign_is_caught(self, monkeypatch):
        # the engine's coupler with the sign of b flipped, a -> (a - b)/sqrt2:
        # still symplectic, so only the comparison with the closed form sees it
        coupler = interferometer.bs_matrix()
        corrupted = SymplecticOp(coupler.matrix.T, "BS")
        monkeypatch.setattr(interferometer, "bs_matrix", lambda: corrupted)
        cfg = ExperimentConfig(g=0.3, ell=1, alpha_mag=1.0, theta=0.4, phi=0.7)
        assert abs(quadrature_mean(run_lossless(cfg)) - homodyne_mean(cfg)) > 1e-3

        validation = run_validation("quick")
        assert not validation.passed
        failed = {c.name for c in validation.checks if not c.passed}
        assert "signal mean: engine vs closed form" in failed
        assert not any("oracle" in name for name in failed)

    def _configs(self, count):
        return [
            ExperimentConfig(g=g, ell=1, alpha_mag=1.0, theta=0.0, phi=0.0) for g in range(count)
        ]

    def test_nan_deviation_is_the_worst_and_fails(self):
        configs = self._configs(4)
        check = _record("x", 1e-9, np.array([1e-12, math.nan, 1.0, math.nan]), configs)
        assert math.isnan(check.worst)
        assert check.worst_at == _describe(configs[1])
        assert not check.passed

    def test_all_zero_deviations_report_zero_at_no_point(self):
        configs = self._configs(3)
        check = _record("x", 1e-9, np.zeros(3), configs, np.full(3, 40.0), np.zeros(3))
        assert (check.worst, check.worst_at, check.cutoff, check.tail_mass) == (0.0, "", None, None)
        assert check.passed

    def test_unknown_preset(self):
        message = "unknown preset 'leisurely' (expected 'quick' or 'full')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
        assert captured.err == ""
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

    def test_eval_and_a_one_point_sweep_write_the_same_sensitivity(self, tmp_path, capsys):
        point = "g = 2.69\nell = 2\nalpha_sq = 84.6\ntheta = 1.18\nphi = 1.48\n"
        assert main(["eval", "--config", self._write(tmp_path, point)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        sweep = point + "quantity = sensitivity\nsweep = phi 1.48 1.48 1\n"
        assert main(["sweep", "--config", self._write(tmp_path, sweep, "sweep.txt")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[1].split(",")[1] == row["sensitivity"]

    def test_config_saved_with_a_byte_order_mark(self, tmp_path, capsys):
        # Windows Notepad starts a UTF-8 file with U+FEFF
        outputs = []
        for name, encoding in (("plain.txt", "utf-8"), ("bom.txt", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(FIG3_TEXT, encoding=encoding)
            assert main(["eval", "--config", str(path)]) == 0
            outputs.append(without_timestamp(capsys.readouterr().out))
        assert (tmp_path / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]

    def test_config_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"g = 1\xff\n")
        assert main(["eval", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot read config {str(path)!r}: 'utf-8' codec can't decode"
            " byte 0xff in position 5: invalid start byte"
        ]

    @pytest.mark.parametrize("args, code", [(["reproduce", "fig7"], 0), (["eval"], 1)])
    def test_console_script_exits_with_the_command_code(self, monkeypatch, capsys, args, code):
        # [project.scripts] points oam-interferometry at entry(), which reads sys.argv
        monkeypatch.setattr(sys, "argv", ["oam-interferometry", *args])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        capsys.readouterr()

    def test_eval_rejects_sweep_config(self, tmp_path):
        path = self._write(tmp_path, "alpha_sq=1\nquantity = snl\nsweep = g 0 1 3")
        assert main(["eval", "--config", path]) == 1

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("sweep", FIG3_TEXT, "error: sweep expects a config with sweep axes and a quantity"),
            (
                "max-loss",
                "alpha_sq=1\nquantity = snl\nsweep = g 0 1 3",
                "error: max-loss expects a plain configuration, not sweep axes",
            ),
        ],
    )
    def test_command_given_the_other_kind_of_config_is_one_error_line(
        self, tmp_path, capsys, command, text, message
    ):
        assert main([command, "--config", self._write(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

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

    @pytest.mark.parametrize("command", ["eval", "max-loss"])
    def test_alpha_sq_echo_is_the_hashed_square(self, tmp_path, capsys, command):
        # the row echoes |alpha| * |alpha|, the square render_config writes and
        # config_sha256 hashes; pow(|alpha|, 2) is one ulp above it here
        text = "alpha_sq = 755411.6830031364"
        path = self._write(tmp_path, text)
        assert main([command, "--config", path]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["alpha_sq"] == "755411.6830031364"
        assert text in render_config(parse_config(text)).splitlines()

    def test_grid_flag_is_gone(self, tmp_path, capsys):
        path = self._write(tmp_path, FIG3_TEXT)
        assert main(["max-loss", "--config", path, "--grid", "0"]) == 1
        capsys.readouterr()

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fig7.csv"
        assert main(["reproduce", "fig7", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write output {str(out)!r}: ")

    def test_unwritable_stdout_is_one_error_line(self, monkeypatch, capsys):
        class FullDevice:
            def write(self, text):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FullDevice())
        assert main(["reproduce", "fig7"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot write output <stdout>: [Errno 28] No space left on device"
        ]

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

    def test_lossless_sensitivity_keeps_the_mode_and_shape_of_a_t_axis(self, tmp_path, capsys):
        # sensitivity ignores T, but a T axis still makes the call an array
        # call: a failing point is a nan row, and every T gets its own row
        base = "alpha_sq = 4\ng = 400\ntheta = 1\nquantity = sensitivity\n"
        base += "sweep = transmissivity 0 1 3\n"
        code, _, rows, err = self._sweep(tmp_path, capsys, base)
        assert code == 1 and rows == []
        assert err.splitlines()[-1] == (
            "error: sensitivity failed at (transmissivity=0): math range error"
        )
        code, header, rows, _ = self._sweep(tmp_path, capsys, base + "sweep = g 300 400 3\n")
        assert code == 0 and len(rows) == 9
        for g in ("300.0", "350.0", "400.0"):
            assert len({(value, flag) for _, row_g, value, flag in rows if row_g == g}) == 1
        assert [row[2:] for row in rows if row[1] == "400.0"] == [["nan", "non-finite"]] * 3
        assert self._undefined_line(header) == (
            "# undefined=3 of 9; sensitivity failed at (transmissivity=0, g=400): "
            "math range error"
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
    header = without_timestamp(to_csv(reproduce("fig7"))).splitlines()[0]
    assert oam_interferometry.__version__ == declared
    assert header == f"# oam-interferometry {declared}"
