"""End-to-end command-line behavior in throwaway directories."""

import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracle_frozen import ZERO_ORDINATES
from zetacycles import cli, laplacian, operators, specfun
from zetacycles.sheaf import (
    GlobalSection, build_section_grid, make_section, quotient_jets, section_to_payload,
)
from zetacycles.specfun import ZetaZero

L_STAR = 2.0 * math.pi / ZERO_ORDINATES[0]


@pytest.fixture(autouse=True)
def isolated_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_DIR_ENV, raising=False)
    return tmp_path


def run(*args: str) -> int:
    return cli.main(list(args))


def seed_cache(t_max: float = 20.0) -> None:
    assert run("--t-max", str(t_max), "zeros") == cli.EXIT_OK


def test_import_loads_only_scipy_special():
    """Importing the package and its CLI leaves scipy's root finders and
    interpolators unloaded; each costs megabytes of resident memory."""
    code = (
        "import sys, zetacycles, zetacycles.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestConfig:
    def test_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.t_max == 60.0
        assert cfg.family_ks == (0, 1, 2)
        assert cfg.L_window == (0.40, 0.46)

    def test_validation(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(t_max=-1.0)
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(L_window=(0.5, 0.4))
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(family_ks=())
        for bad in (math.nan, math.inf, -math.inf):
            for key in ("t_max", "tol", "scan_step"):
                with pytest.raises(cli.ConfigError, match="finite"):
                    cli.RunConfig(**{key: bad})
            with pytest.raises(cli.ConfigError, match="finite"):
                cli.RunConfig(L_window=(0.4, bad))
            with pytest.raises(cli.ConfigError, match="finite"):
                cli.RunConfig(L_window=(bad, 0.46))
        with pytest.raises(TypeError):
            cli.RunConfig(threads=1)  # the knob had no effect and is gone

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "\n"
            "t_max = 30\n"
            "family_ks = 0, 1\n"
            "L_window = 0.41, 0.45\n"
            "cache_path = z.csv\n"
        )
        values = cli.parse_config_file(path)
        assert values == {
            "t_max": 30.0,
            "family_ks": (0, 1),
            "L_window": (0.41, 0.45),
            "cache_path": "z.csv",
        }

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("t_max = 30\nbogus = 1\n")
        assert run("--config", str(path), "verify") == cli.EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    def test_missing_equals_reports_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("t_max 30\n")
        assert run("--config", str(path), "verify") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert ":1:" in err and "key = value" in err

    def test_bad_flag_value(self, tmp_path, capsys):
        """A bad value, non-finite ones included, exits 2 with one line naming
        its key, given as a flag or as a config line alike."""
        bad = [
            ("family_ks", "0,x"), ("tol", "-1"), ("t_max", "abc"),
            ("t_max", "nan"), ("t_max", "inf"), ("tol", "nan"), ("tol", "inf"),
            ("scan_step", "nan"), ("scan_step", "inf"), ("scan_step", "-inf"),
            ("L_window", "0.4,inf"), ("L_window", "nan,0.46"), ("L_window", "0.4"),
        ]
        assert run("--family-ks", "0,x", "zeros") == cli.EXIT_USAGE
        assert run("--tol", "-1", "zeros") == cli.EXIT_USAGE
        capsys.readouterr()
        assert run("--t-max", "abc", "zeros") == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad value for t_max: 'abc'")
        config = tmp_path / "run.cfg"
        for key, raw in bad:
            config.write_text(f"{key} = {raw}\n")
            flag = "--" + key.replace("_", "-")
            for argv in ([f"{flag}={raw}"], ["--config", str(config)]):
                capsys.readouterr()
                assert run(*argv, "zeros") == cli.EXIT_USAGE, argv
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, argv
                assert key in err, argv
        assert not (tmp_path / "zeros.csv").exists()

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--t-max"], ["detect"], ["detect", "abc"], ["--bogus", "1", "verify"],
    ], ids=["no_command", "unknown_command", "flag_without_value", "missing_length",
            "bad_length", "unknown_flag"])
    def test_usage_error_is_one_line(self, capsys, argv):
        """argparse's usage errors exit 2 with one line too; none raises out of main."""
        assert run(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unvalidated_range(self, capsys):
        """No cache can cover t_max past VALIDATED_T_MAX, so RunConfig rejects it."""
        with pytest.raises(cli.ConfigError, match="VALIDATED_T_MAX = 260"):
            cli.RunConfig(t_max=300.0)
        assert run("--t-max", "300", "zeros") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: t_max = 300 exceeds") and err.count("\n") == 1

    def test_unknown_family_member(self, capsys):
        """family_ks is checked by make_test_function, at both ends of its range."""
        for ks in ((9,), (-1,), (0, 1, 9)):
            with pytest.raises(cli.ConfigError, match=r"family_ks: .* in \[0, 8\]"):
                cli.RunConfig(family_ks=ks)
        for raw in ("9", "-1"):
            for command in ("zeros", "verify"):
                assert run(f"--family-ks={raw}", command) == cli.EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("error: family_ks: ") and err.count("\n") == 1
        assert not Path("zeros.csv").exists()

    def test_one_field_table(self):
        """Config keys and flags both come from _FIELDS, one entry per RunConfig field."""
        assert list(cli._FIELDS) == [f.name for f in dataclasses.fields(cli.RunConfig)]
        flags = {a.dest for a in cli._PARSER._actions if a.option_strings}
        assert flags == {"help", "config", *cli._FIELDS}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_max = 5\noutput_dir = from_file\n")
        assert (
            run("--config", str(path), "--output-dir", "from_flag", "zeros")
            == cli.EXIT_OK
        )
        assert (tmp_path / "from_flag" / "zeros_report.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.setenv(cli.CACHE_DIR_ENV, str(store))
        seed_cache(20.0)
        assert (store / "zeros.csv").exists()
        assert not (tmp_path / "zeros.csv").exists()
        assert run("--t-max", "20", "laplacian") == cli.EXIT_OK


class TestLibraryErrors:
    """Errors the library raises end in exit 2 and one line on stderr."""

    def test_bad_gram_point(self, capsys, monkeypatch):
        exact = specfun.rotate_to_Z
        monkeypatch.setattr(specfun, "rotate_to_Z", lambda t, zeta: -exact(t, zeta))
        assert run("--t-max", "20", "zeros") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: AccuracyError: Gram's law fails at g_-1")
        assert err.count("\n") == 1


class TestZeros:
    def test_cache_and_report(self, tmp_path):
        seed_cache(20.0)
        cache = tmp_path / "zeros.csv"
        assert cache.exists()
        meta = json.loads((tmp_path / "zeros.csv.meta.json").read_text())
        assert meta == {"t_max": 20.0, "count": 1}
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report["count"] == 1
        assert report["reused"] is False

    def test_idempotent_rerun(self, tmp_path):
        seed_cache(20.0)
        cache_bytes = (tmp_path / "zeros.csv").read_bytes()
        seed_cache(20.0)
        assert (tmp_path / "zeros.csv").read_bytes() == cache_bytes
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report["reused"] is True

    def test_wider_range_recomputes(self, tmp_path):
        seed_cache(20.0)
        seed_cache(25.0)
        meta = json.loads((tmp_path / "zeros.csv.meta.json").read_text())
        assert meta["t_max"] == 25.0
        assert meta["count"] == 2

    def test_runtime_records_the_largest_abs_error(self, tmp_path):
        """zeros_runtime.json carries max_abs_error, fresh and on reuse (read
        back from the cache, whose abs_error has 7 digits); zeros_report.json
        keeps its four keys."""
        seed_cache(60.0)
        reports = tmp_path / "reports"
        fresh = json.loads((reports / "zeros_runtime.json").read_text())["max_abs_error"]
        cached = specfun.read_zero_cache(tmp_path / "zeros.csv")
        assert fresh == pytest.approx(max(z.abs_error for z in cached), rel=1e-6)
        assert 0.0 < fresh <= 1e-9
        seed_cache(60.0)
        reused = json.loads((reports / "zeros_runtime.json").read_text())["max_abs_error"]
        assert reused == max(z.abs_error for z in cached)
        report = json.loads((reports / "zeros_report.json").read_text())
        assert report == {"command": "zeros", "cache": "zeros.csv", "count": 13, "reused": True}

    def test_empty_range_still_writes_cache(self, tmp_path):
        seed_cache(5.0)
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report["count"] == 0


class TestCacheGate:
    def test_missing_cache_instructs(self, capsys):
        assert run("--t-max", "20", "scan") == cli.EXIT_USAGE
        assert "run `zetacycles zeros` first" in capsys.readouterr().err

    def test_cache_without_sidecar_rejected(self, tmp_path, capsys):
        # a `zeros` run cut off between the cache and its sidecar: coverage unknown
        seed_cache(20.0)
        (tmp_path / "zeros.csv.meta.json").unlink()
        assert run("--t-max", "20", "detect", repr(L_STAR)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "zeros.csv.meta.json" in err and err.count("\n") == 1

    def test_stale_cache_rejected(self, capsys):
        seed_cache(20.0)
        assert run("--t-max", "40", "laplacian") == cli.EXIT_USAGE
        assert "rerun" in capsys.readouterr().err

    def test_short_row_names_the_file_and_line(self, tmp_path, capsys):
        seed_cache(20.0)
        with open(tmp_path / "zeros.csv", "a") as fh:
            fh.write("19.5\n")
        assert run("--t-max", "20", "laplacian") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "zeros.csv, line 3: expected 3 fields" in err and err.count("\n") == 1

    @pytest.mark.parametrize("row,reason", [
        ("x,1,1e-9", "could not convert string to float: 'x'"),
        ("30.0,0,1e-9", "multiplicity must be a positive integer"),
        ("inf,1,1e-9", "ordinate must be positive and finite"),
        ("30.0,1,nan", "abs_error must be nonnegative and finite"),
    ], ids=["non_numeric", "zero_multiplicity", "infinite_ordinate", "nan_abs_error"])
    def test_malformed_row_names_the_file_and_line(self, tmp_path, capsys, row, reason):
        seed_cache(20.0)
        with open(tmp_path / "zeros.csv", "a") as fh:
            fh.write(row + "\n")
        assert run("--t-max", "20", "laplacian") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"zeros.csv, line 3: {reason}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["19.5\n", "x,1,1e-9\n"], ids=["short_row", "non_numeric"])
    def test_zeros_rebuilds_a_damaged_cache(self, tmp_path, capsys, damage):
        """A cache the readers reject names the rerun, and `zeros` rebuilds it."""
        seed_cache(20.0)
        with open(tmp_path / "zeros.csv", "a") as fh:
            fh.write(damage)
        assert run("--t-max", "20", "laplacian") == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith("; rerun `zetacycles zeros`\n")
        assert run("--t-max", "20", "zeros") == cli.EXIT_OK
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report["reused"] is False and report["count"] == 1
        assert run("--t-max", "20", "laplacian") == cli.EXIT_OK

    def test_cut_off_rebuild_leaves_coverage_unknown(self, tmp_path, monkeypatch):
        """A rebuild drops the old sidecar first: one that recorded a larger
        t_max must not vouch for a cache written at a smaller one."""
        seed_cache(60.0)
        with open(tmp_path / "zeros.csv", "a") as fh:
            fh.write("19.5\n")

        def cut_off(path, zeros):
            raise OSError("cut off")

        monkeypatch.setattr(specfun, "write_zero_cache", cut_off)
        assert run("--t-max", "20", "zeros") == cli.EXIT_USAGE
        assert not (tmp_path / "zeros.csv.meta.json").exists()

    @pytest.mark.parametrize("sidecar", ['{"t_max": "x"}', "[1]"])
    def test_unreadable_sidecar_is_unknown_coverage(self, tmp_path, capsys, sidecar):
        """A sidecar that is not an object with a numeric t_max: the readers
        exit 2 with one line, and `zeros` recomputes the cache."""
        seed_cache(20.0)
        meta_file = tmp_path / "zeros.csv.meta.json"
        meta_file.write_text(sidecar)
        assert run("--t-max", "20", "laplacian") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "zeros.csv.meta.json" in err and err.count("\n") == 1
        assert run("--t-max", "20", "zeros") == cli.EXIT_OK
        assert json.loads(meta_file.read_text()) == {"t_max": 20.0, "count": 1}
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report["reused"] is False

    def test_past_validated_range_names_the_limit(self, capsys):
        # rerunning `zeros` cannot cover t_max = 300, so the message must not suggest it
        seed_cache(60.0)
        assert run("--t-max", "300", "detect", "1.0") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "VALIDATED_T_MAX = 260" in err and "rerun" not in err
        assert err.count("\n") == 1


class TestWiderCache:
    """A cache built for a larger t_max serves each command only its zeros at
    or below the command's own t_max."""

    @pytest.fixture(autouse=True)
    def wide_cache(self):
        seed_cache(250.0)

    def test_zeros_reports_the_count_below_its_t_max(self, tmp_path):
        seed_cache(20.0)
        report = json.loads((tmp_path / "reports" / "zeros_report.json").read_text())
        assert report == {"command": "zeros", "cache": "zeros.csv", "count": 1, "reused": True}

    def test_laplacian_writes_the_rows_below_its_t_max(self, tmp_path):
        assert run("laplacian") == cli.EXIT_OK
        lines = (tmp_path / "reports" / "laplacian.csv").read_text().splitlines()
        assert len(lines) == 1 + 13
        assert float(lines[-1].split(",")[0]) <= 60.0

    def test_jets_read_only_the_zeros_on_their_grid(self, tmp_path):
        zeros = specfun.find_zeros(0.0, 60.0)
        grid = build_section_grid(60.0, zeros)
        section = GlobalSection(grid, np.ones(grid.size), np.ones(grid.size))
        section_file = tmp_path / "section.json"
        section_file.write_text(json.dumps(section_to_payload(section)))
        assert run("jets", str(section_file)) == cli.EXIT_OK
        lines = (tmp_path / "reports" / "jets.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * len(zeros)


class TestInputLimits:
    """A request past a documented limit exits 2 with one line naming it,
    before any evaluation: detect's and scan's mode count L t_max / 2 pi at
    most 10^5, scan's grid at most 10^6 lengths and 10^7 (L, n) cells. An
    infinite count is caught as well, where math.floor would raise."""

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["detect", "1e307"], "100000"),  # L t_max overflows to inf
            (["detect", "1e300"], "100000"),
            (["--L-window", "0.3,1e307", "scan"], "1000000"),
            (["--L-window", "0.5,1e308", "--scan-step", "1e307", "scan"], "100000"),
            (["--scan-step", "1e-320", "scan"], "1000000"),
            (["--scan-step", "1e-12", "scan"], "1000000"),
            (["--L-window", "0.4,4.0", "--scan-step", "4e-6", "scan"], "10000000"),
        ],
        ids=["detect_inf_modes", "detect_modes", "scan_inf_lengths", "scan_inf_modes",
             "scan_subnormal_step", "scan_lengths", "scan_cells"],
    )
    def test_limit_exits_2_with_one_line(self, tmp_path, capsys, argv, limit):
        seed_cache(20.0)
        capsys.readouterr()
        assert run("--t-max", "20", *argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert f"exceeds the limit of {limit}" in err
        written = sorted(path.name for path in (tmp_path / "reports").iterdir())
        assert written == ["zeros_report.json", "zeros_runtime.json"]


class TestDetect:
    def test_positive_verdict(self, tmp_path):
        seed_cache(20.0)
        assert run("--t-max", "20", "detect", repr(L_STAR)) == cli.EXIT_OK
        payload = json.loads((tmp_path / "reports" / "detect.json").read_text())
        assert payload["verdict"] is True
        assert payload["flagged"] == [-1, 1]
        assert payload["matched"][0]["distance"] <= 1e-9

    def test_no_listed_zero_writes_null_distance(self, tmp_path):
        """A flagged row with no zero in the cache has no distance; the report
        stays JSON, without the Infinity constant."""
        seed_cache(10.0)
        assert run("--t-max", "10", "--tol", "2", "detect", "1.0") == cli.EXIT_OK
        text = (tmp_path / "reports" / "detect.json").read_text()

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(text, parse_constant=no_constant)
        assert payload["flagged"] == [-1, 1]
        assert [(m["matched_zero"], m["distance"]) for m in payload["matched"]] == [
            (None, None), (None, None)]

    def test_negative_verdict_still_exits_zero(self, tmp_path):
        seed_cache(20.0)
        assert run("--t-max", "20", "detect", "0.41") == cli.EXIT_OK
        payload = json.loads((tmp_path / "reports" / "detect.json").read_text())
        assert payload["verdict"] is False
        assert payload["flagged"] == []

    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_length_exits_2(self, tmp_path, capsys, length):
        seed_cache(20.0)
        capsys.readouterr()
        assert run("--t-max", "20", "detect", length) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: circle length L") and err.count("\n") == 1
        assert not (tmp_path / "reports" / "detect.json").exists()
        assert not (tmp_path / "reports" / "detect_runtime.json").exists()

    @pytest.mark.parametrize("length", ["-1e-3", "-inf", "-0.5"])
    def test_negative_length_reaches_detect(self, tmp_path, capsys, length):
        """A length starting with `-` is a length, not an option: it meets
        detect's own check."""
        seed_cache(20.0)
        capsys.readouterr()
        assert run("--t-max", "20", "detect", length) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: circle length L must be positive and finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "reports" / "detect.json").exists()

    def test_help_is_not_a_length(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("detect", "-h")
        assert exit_.value.code == 0 and "usage:" in capsys.readouterr().out


class TestScan:
    def test_deterministic_reports(self, tmp_path):
        seed_cache(20.0)
        args = (
            "--t-max", "20",
            "--L-window", "0.443,0.446",
            "--scan-step", "1e-4",
            "scan",
        )
        assert run(*args) == cli.EXIT_OK
        reports = tmp_path / "reports"
        first_csv = (reports / "scan.csv").read_bytes()
        first_dips = (reports / "dips.json").read_bytes()
        assert run(*args) == cli.EXIT_OK
        assert (reports / "scan.csv").read_bytes() == first_csv
        assert (reports / "dips.json").read_bytes() == first_dips

        dips = json.loads(first_dips)["dips"]
        assert len(dips) == 1
        assert dips[0]["matched_zero"] == dips[0]["s"] == pytest.approx(ZERO_ORDINATES[0])
        # the dip is the cache's zero 0, inside a bracket of one 1e-4 step in L
        assert dips[0]["zero_index"] == 0
        assert 0.0 < dips[0]["bracket_width"] <= 2.0 * math.pi / 0.443 - 2.0 * math.pi / 0.4431
        assert "distance" not in dips[0]
        assert abs(dips[0]["L_star"] - L_STAR) <= 1e-8
        assert dips[0]["z_residual"] < 1e-8
        assert b"seconds" not in first_dips

        runtime = json.loads((reports / "scan_runtime.json").read_text())
        assert runtime["command"] == "scan"
        assert "threads_used" not in runtime
        assert "profile_seconds" in runtime
        # 31 lengths with one row each below t = 20, in one Euler-Maclaurin block
        assert (runtime["zeta_points"], runtime["zeta_blocks"]) == (31, 1)

    def test_zero_missing_from_the_cache_exits_2(self, tmp_path, capsys):
        """A cache without t_4 = 30.42: the bracket of row 2 that holds it
        finds no listed zero, and scan exits 2 naming that row."""
        seed_cache(60.0)
        cache = tmp_path / "zeros.csv"
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:4] + lines[5:]))
        assert run("--L-window", "0.40,0.46", "scan") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: AccuracyError: row n = 2: the bracket")
        assert "holds 0 listed zeros" in err and err.count("\n") == 1

    def test_csv_header(self, tmp_path):
        seed_cache(20.0)
        assert (
            run(
                "--t-max", "20",
                "--L-window", "0.44,0.45",
                "--scan-step", "5e-3",
                "scan",
            )
            == cli.EXIT_OK
        )
        lines = (tmp_path / "reports" / "scan.csv").read_text().splitlines()
        assert lines[0] == "L,min_row_score"
        assert len(lines) == 4


class TestVerify:
    def test_identity_suite_passes(self, tmp_path):
        assert run("verify") == cli.EXIT_OK
        payload = json.loads((tmp_path / "reports" / "verify.json").read_text())
        assert payload["all_pass"] is True
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "fourier_direct_vs_closed",
            "trace_identity",
            "psi_vanishing_at_i_half",
            "mellin_conjugation",
        ]
        for check in payload["checks"]:
            assert check["pass"] is True
            assert check["worst"] <= check["threshold"]
        fourier = payload["checks"][0]
        assert fourier["worst"] <= 1e-12
        assert fourier["worst_at"]["f"] in {"f0", "f1", "f2"}
        assert fourier["worst_at"]["L"] in (0.8, 1.0, math.log(4.0))
        first = (tmp_path / "reports" / "verify.json").read_bytes()
        assert run("verify") == cli.EXIT_OK
        assert (tmp_path / "reports" / "verify.json").read_bytes() == first


class TestLaplacian:
    def test_negativity_csv(self, tmp_path):
        seed_cache(20.0)
        assert run("--t-max", "20", "laplacian") == cli.EXIT_OK
        lines = (tmp_path / "reports" / "laplacian.csv").read_text().splitlines()
        assert lines[0] == "ordinate,eigenvalue,negativity_ok"
        assert len(lines) == 2
        ordinate, value, ok = lines[1].split(",")
        assert float(ordinate) == pytest.approx(ZERO_ORDINATES[0], abs=1e-8)
        assert float(value) < 0.0
        assert ok == "True"


class TestJets:
    def test_zero_section_emits_zero_jets(self, tmp_path):
        seed_cache(20.0)
        grid = build_section_grid(20.0, [ZetaZero(ZERO_ORDINATES[0], 1, 1e-9)])
        section = GlobalSection(grid, np.zeros(grid.size), np.zeros(grid.size))
        section_file = tmp_path / "section.json"
        section_file.write_text(json.dumps(section_to_payload(section)))
        assert run("--t-max", "20", "jets", str(section_file)) == cli.EXIT_OK
        lines = (tmp_path / "reports" / "jets.csv").read_text().splitlines()
        assert lines[0] == "t_k,L_k,slot,order,jet_re,jet_im"
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[4]) == 0.0 and float(parts[5]) == 0.0

    @pytest.mark.parametrize(
        "field,index,value",
        [
            ("vanishing_order_at_zero", None, None),
            ("vanishing_order_at_zero", None, [6]),
            ("vanishing_order_at_zero", None, 2.5),
            ("grid", -3, math.nan),
            ("grid", -1, math.inf),
        ],
    )
    def test_malformed_section_exits_usage(self, tmp_path, capsys, field, index, value):
        """A section file with a non-integer order or a non-finite grid point
        is rejected with exit 2 and one line, not a traceback or a report."""
        seed_cache(20.0)
        grid = build_section_grid(20.0, [ZetaZero(ZERO_ORDINATES[0], 1, 1e-9)])
        payload = section_to_payload(
            GlobalSection(grid, np.ones(grid.size), np.ones(grid.size))
        )
        if index is None:
            payload[field] = value
        else:
            payload[field][index] = value
        section_file = tmp_path / "section.json"
        section_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("--t-max", "20", "jets", str(section_file)) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "reports" / "jets.csv").exists()

    def test_missing_section_file(self, capsys):
        seed_cache(20.0)
        assert run("--t-max", "20", "jets", "absent.json") == cli.EXIT_USAGE
        assert "not found" in capsys.readouterr().err


class TestCsvReports:
    """scan.csv, laplacian.csv and jets.csv come from one writer: a header
    line, then one line per row, each ended by the csv module's \\r\\n."""

    @staticmethod
    def write_section(path: Path) -> GlobalSection:
        zeros = specfun.find_zeros(0.0, 20.0)
        section = make_section(
            lambda L: np.exp(-L) * (1.0 + 1j * L), lambda L: np.cos(L) + 0.5j,
            build_section_grid(20.0, zeros),
        )
        path.write_text(json.dumps(section_to_payload(section)))
        return section

    @pytest.mark.parametrize(
        "argv,name,header",
        [
            (["scan"], "scan.csv", "L,min_row_score"),
            (["laplacian"], "laplacian.csv", "ordinate,eigenvalue,negativity_ok"),
            (["jets", "section.json"], "jets.csv", "t_k,L_k,slot,order,jet_re,jet_im"),
        ],
    )
    def test_header_and_line_ends(self, tmp_path, argv, name, header):
        seed_cache(20.0)
        self.write_section(tmp_path / "section.json")
        assert run("--t-max", "20", *argv) == cli.EXIT_OK
        data = (tmp_path / "reports" / name).read_bytes()
        lines = data.split(b"\r\n")
        assert lines[0] == header.encode()
        assert len(lines) >= 3 and lines[-1] == b""  # a header, rows, and a final line end
        assert all(b"\n" not in line and b"\r" not in line for line in lines)

    def test_bytes_are_the_csv_modules(self, tmp_path):
        """_csv_text, which renders every CSV report, and write_zero_cache give
        the very text csv.writer writes for the same rows: strings, floats, ints
        and bools need no quoting, and every line ends in \\r\\n."""
        header = ["L", "score", "ok", "order"]
        rows = [
            ["0.4445212230", "1.2500000000000000e-03", True, 0],
            [0.1 + 0.2, -3.5e-17, False, 12],
            ["-0.30000000000000", float("inf"), True, -1],
        ]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([header, *rows])
        assert specfun._csv_text(header, (row for row in rows)) == expected.getvalue()

        # an ordinate is written as the repr of a Python float, a numpy scalar too
        zeros = [ZetaZero(np.float64(t) if i % 2 else t, 1 + i % 2, 1e-12 * (i + 1))
                 for i, t in enumerate(ZERO_ORDINATES)]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(
            [["ordinate", "multiplicity", "abs_error"],
             *([repr(t), z.multiplicity, f"{z.abs_error:.6e}"]
               for t, z in zip(ZERO_ORDINATES, zeros))]
        )
        specfun.write_zero_cache(tmp_path / "zeros.csv", zeros)
        assert (tmp_path / "zeros.csv").read_bytes() == expected.getvalue().encode()

    def test_jet_rows(self, tmp_path):
        """One row per zero, slot and order: t_k and L_k to 14 places, the
        slot, the order, and the jet's real and imaginary parts to 17 digits."""
        seed_cache(20.0)
        section = self.write_section(tmp_path / "section.json")
        assert run("--t-max", "20", "jets", "section.json") == cli.EXIT_OK
        zeros = specfun.read_zero_cache(tmp_path / "zeros.csv")
        jets = quotient_jets(section, zeros)
        lines = (tmp_path / "reports" / "jets.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * len(zeros) == 3
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[2] == "plus" and first[3] == "0"
        assert second[2] == "minus" and second[3] == "0"
        assert first[0] == second[0] == f"{jets[0].ordinate:.14f}"
        assert first[1] == f"{jets[0].location:.14f}"
        assert float(first[4]) == jets[0].jets_plus[0].real
        assert float(second[5]) == jets[0].jets_minus[0].imag


class TestRunner:
    """main times each command and writes <command>_runtime.json from the
    exit code and entries the command returns."""

    def test_only_main_writes_the_reports(self):
        """In cli only main writes files, the reports and then the runtime file.
        cmd_zeros alone makes the cache's directory and writes the cache and its
        sidecar, through specfun."""
        writes = {"write_text", "open", "mkdir", "write_zero_cache", "open_replacing"}
        callers = set()
        for top in ast.parse(Path(cli.__file__).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in writes:
                        callers.add((getattr(top, "name", None), name))
        assert callers == {
            ("main", "mkdir"), ("main", "write_text"),
            ("cmd_zeros", "mkdir"), ("cmd_zeros", "write_zero_cache"),
            ("cmd_zeros", "open_replacing"),
        }

    def runtime(self, tmp_path, command: str) -> dict:
        return json.loads((tmp_path / "reports" / f"{command}_runtime.json").read_text())

    def test_every_command_writes_its_runtime(self, tmp_path):
        seed_cache(20.0)
        grid = build_section_grid(20.0, [ZetaZero(ZERO_ORDINATES[0], 1, 1e-9)])
        section = GlobalSection(grid, np.zeros(grid.size), np.zeros(grid.size))
        section_file = tmp_path / "section.json"
        section_file.write_text(json.dumps(section_to_payload(section)))
        argvs = {
            "zeros": ["--t-max", "20", "zeros"],
            "scan": ["--t-max", "20", "--L-window", "0.443,0.446", "--scan-step", "1e-3", "scan"],
            "detect": ["--t-max", "20", "detect", repr(L_STAR)],
            "verify": ["verify"],
            "laplacian": ["--t-max", "20", "laplacian"],
            "jets": ["--t-max", "20", "jets", str(section_file)],
        }
        extra = {
            "zeros": {"max_abs_error"},
            "scan": {"profile_seconds", "zeta_points", "zeta_blocks", "edge_points",
                     "grid_points", "dips"},
        }
        assert set(argvs) == set(cli._COMMANDS)
        for command, argv in argvs.items():
            assert run(*argv) == cli.EXIT_OK
            runtime = self.runtime(tmp_path, command)
            assert set(runtime) == {"command", "seconds", *extra.get(command, ())}
            assert runtime["command"] == command and runtime["seconds"] > 0.0

    def test_failed_assertion_writes_runtime(self, tmp_path, monkeypatch):
        seed_cache(20.0)
        monkeypatch.setattr(operators, "trace_identity_check", lambda f, u: 1.0)
        assert run("verify") == cli.EXIT_ASSERTION
        monkeypatch.setattr(laplacian, "negativity_rows", lambda zeros: [(14.13, 1.0, False)])
        assert run("--t-max", "20", "laplacian") == cli.EXIT_ASSERTION
        for command in ("verify", "laplacian"):
            runtime = self.runtime(tmp_path, command)
            assert set(runtime) == {"command", "seconds"} and runtime["command"] == command

    def test_usage_exit_writes_no_runtime(self, tmp_path):
        assert run("--t-max", "20", "scan") == cli.EXIT_USAGE  # no cache yet
        seed_cache(20.0)
        (tmp_path / "reports" / "zeros_runtime.json").unlink()
        assert run("--t-max", "300", "zeros") == cli.EXIT_USAGE  # past VALIDATED_T_MAX
        assert run("--t-max", "20", "--tol", "nan", "detect", "1.0") == cli.EXIT_USAGE
        assert not list((tmp_path / "reports").glob("*_runtime.json"))

    def test_unwritable_output_dir_exits_2_naming_it(self, tmp_path, capsys):
        # an OSError: the output directory would sit under a regular file
        (tmp_path / "plain").write_text("")
        assert run("--output-dir", "plain/reports", "verify") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: plain/reports: ") and "Not a directory" in err
        assert err.count("\n") == 1

    def test_parser_built_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
        assert run("--t-max", "5", "zeros") == cli.EXIT_OK
