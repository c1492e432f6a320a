"""End-to-end command-line behavior in throwaway directories."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracle_frozen import ZERO_ORDINATES
from zetacycles import cli, specfun
from zetacycles.sheaf import build_section_grid, section_to_payload, GlobalSection
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

    def test_bad_flag_value(self):
        assert run("--family-ks", "0,x", "zeros") == cli.EXIT_USAGE
        assert run("--tol", "-1", "zeros") == cli.EXIT_USAGE

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

    def test_unvalidated_range(self, capsys):
        assert run("--t-max", "300", "zeros") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: AccuracyError:") and err.count("\n") == 1

    def test_bad_gram_point(self, capsys, monkeypatch):
        exact = specfun.rotate_to_Z
        monkeypatch.setattr(specfun, "rotate_to_Z", lambda t, zeta: -exact(t, zeta))
        assert run("--t-max", "20", "zeros") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: AccuracyError: Gram's law fails at g_-1")
        assert err.count("\n") == 1

    def test_unknown_family_member(self, capsys):
        assert run("--family-ks", "9", "verify") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and err.count("\n") == 1


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


class TestDetect:
    def test_positive_verdict(self, tmp_path):
        seed_cache(20.0)
        assert run("--t-max", "20", "detect", repr(L_STAR)) == cli.EXIT_OK
        payload = json.loads((tmp_path / "reports" / "detect.json").read_text())
        assert payload["verdict"] is True
        assert payload["flagged"] == [-1, 1]
        assert payload["matched"][0]["distance"] <= 1e-9

    def test_negative_verdict_still_exits_zero(self, tmp_path):
        seed_cache(20.0)
        assert run("--t-max", "20", "detect", "0.41") == cli.EXIT_OK
        payload = json.loads((tmp_path / "reports" / "detect.json").read_text())
        assert payload["verdict"] is False
        assert payload["flagged"] == []


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

    def test_missing_section_file(self, capsys):
        seed_cache(20.0)
        assert run("--t-max", "20", "jets", "absent.json") == cli.EXIT_USAGE
        assert "not found" in capsys.readouterr().err
