"""Command-line interface: argument handling, output formats, exit codes."""

import json
import math

import pytest

from rabispec import ModelKind, ModelParams, Sector, closed_form_spectrum_g0, pole_energies
from rabispec.cli import main, match_spectra

from conftest import TWO_PHOTON_REF_EIGS

SPECTRUM_ARGS = [
    "spectrum",
    "--model", "two-photon",
    "--omega", "1",
    "--delta", "0.5",
    "--g", "0.2",
    "--q", "1/4",
    "--emin", "-0.5",
    "--emax", "2.5",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = [ln for ln in text.splitlines() if ln]
    i = 0
    while lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        meta[key] = val
        i += 1
    header = lines[i].split(",")
    rows = [ln.split(",") for ln in lines[i + 1:]]
    return meta, header, rows


class TestSpectrumCommand:
    def test_csv_structure_and_values(self, capsys):
        code, out, err = run_cli(capsys, SPECTRUM_ARGS)
        assert code == 0 and err == ""
        meta, header, rows = parse_csv(out)
        assert header == ["index", "energy", "residual", "flagged"]
        assert meta["model"] == "two-photon"
        assert "poles" in meta and "grid_step" in meta
        energies = [float(r[1]) for r in rows if r[3] == "false"]
        assert energies == pytest.approx(TWO_PHOTON_REF_EIGS[:3], abs=1e-7)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, SPECTRUM_ARGS)
        _, out2, _ = run_cli(capsys, SPECTRUM_ARGS)
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, SPECTRUM_ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["model"] == "two-photon"
        energies = [r["energy"] for r in payload["rows"] if not r["flagged"]]
        assert energies == pytest.approx(TWO_PHOTON_REF_EIGS[:3], abs=1e-7)
        # serialization is idempotent
        assert json.loads(json.dumps(payload)) == payload

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        code, out, _ = run_cli(capsys, SPECTRUM_ARGS + ["--output", str(path)])
        assert code == 0 and out == ""
        meta, _, rows = parse_csv(path.read_text())
        assert meta["model"] == "two-photon" and rows


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference point\n"
            "model = two-photon\n"
            "omega = 1\n"
            "delta = 0.5\n"
            "g = 0.1\n"
            "q = 1/4\n"
            "emin = -0.5\n"
            "emax = 2.5\n"
        )
        code, out, _ = run_cli(
            capsys, ["spectrum", "--config", str(cfg), "--g", "0.2"]
        )
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert float(meta["g"]) == 0.2

    @pytest.mark.parametrize("line, named", [
        ("gridstep = 0.5", "gridstep"),  # a typo of grid_step
        ("format = xml", "xml"),
    ])
    def test_bad_config_value_is_config_error(self, capsys, tmp_path, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = two-photon\ndelta = 0.5\ng = 0.2\nq = 1/4\nemax = 2.5\n" + line + "\n"
        )
        code, out, err = run_cli(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err.startswith("ERROR config ValueError: ") and named in err

    def test_kappa_accepts_fraction_and_decimal(self, capsys):
        base = ["oracle", "--model", "two-mode", "--delta", "0.3", "--g", "0.4",
                "--emin", "-1", "--emax", "3"]
        _, out1, _ = run_cli(capsys, base + ["--kappa", "3/2"])
        _, out2, _ = run_cli(capsys, base + ["--kappa", "1.5"])
        assert out1 == out2

    def test_missing_emax_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["spectrum", "--model", "driven", "--g", "0.5"]
        )
        assert code == 1
        assert "ERROR config" in err

    def test_coupling_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["spectrum", "--model", "two-photon", "--g", "0.5", "--q", "1/4",
             "--emax", "2"],
        )
        assert code == 1
        assert "ERROR config" in err

    def test_zero_coupling_hints_closed_form(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["spectrum", "--model", "driven", "--delta", "0.3", "--g", "0",
             "--emax", "2"],
        )
        assert code == 1
        assert "closed form" in err


class TestCurveCommand:
    def test_row_count_and_smoothness(self, capsys):
        # eigenvalue-free window below the ground state: one sign throughout
        code, out, _ = run_cli(
            capsys,
            ["curve", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emin", "-3", "--emax", "-1", "--samples", "50"],
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["energy", "value", "converged", "near_pole"]
        assert len(rows) == 50
        values = [float(r[1]) for r in rows]
        assert all(v1 * v2 > 0.0 for v1, v2 in zip(values, values[1:]))
        assert all(r[2] == "true" for r in rows)

    def test_pole_sample_reports_error_row(self, capsys):
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        pole = pole_energies(model, Sector.two_photon(0.25), 0)[0]
        code, out, _ = run_cli(
            capsys,
            ["curve", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emin", str(pole - 1e-7), "--emax", str(pole + 1e-7),
             "--samples", "3"],
        )
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert "PoleCollision" in meta["errors"]
        assert rows[1][1] == "nan"
        # guard-zone neighbors are flagged near_pole
        assert rows[0][3] == "true" and rows[2][3] == "true"


class TestOracleCommand:
    def test_decoupled_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--model", "driven", "--delta", "0.3", "--drive", "0.2",
             "--g", "0", "--emin", "-1", "--emax", "2.5"],
        )
        assert code == 0
        meta, _, rows = parse_csv(out)
        model = ModelParams(ModelKind.DRIVEN_RABI, 1.0, 0.3, 0.0, 0.2)
        ref = [e for e in closed_form_spectrum_g0(model, Sector.driven(), 6)
               if -1.0 <= e <= 2.5]
        assert [float(r[1]) for r in rows] == pytest.approx(ref, abs=1e-10)
        assert int(meta["oracle_n_used"]) >= 16


class TestSeriesCommand:
    def test_rows_and_tail_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["series", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emax", "8",
             "--energy", repr(TWO_PHOTON_REF_EIGS[0]), "--order", "2000",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        meta, rows = payload["meta"], payload["rows"]
        assert meta["not_an_eigenvalue"] is False
        assert meta["spectral_residual"] < 1e-4
        assert meta["norm_tail_ratio"] == pytest.approx(4.0 * 0.2**2, rel=0.05)
        assert len(rows) == 2001
        assert rows[0]["n"] == 0 and rows[0]["k_minus"] == 1.0
        assert math.isfinite(rows[0]["k_plus"])

    def test_decoupled_plus_column_zero(self, capsys):
        with pytest.warns(Warning):
            code, out, _ = run_cli(
                capsys,
                ["series", "--model", "two-photon", "--delta", "0", "--g", "0.2",
                 "--q", "1/4", "--emax", "8", "--energy", "0.3", "--order", "50",
                 "--format", "json"],
            )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["not_an_eigenvalue"] is True
        assert all(r["k_plus"] == 0.0 for r in payload["rows"])


class TestCompareCommand:
    def test_matched_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compare", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emin", "-0.5", "--emax", "2.5"],
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["root", "oracle", "diff", "status"]
        assert [r[3] for r in rows] == ["matched"] * 3
        assert all(float(r[2]) < 1e-6 for r in rows)

    def test_unmatched_rows_exit_2(self, capsys):
        # negative control: an impossible matching tolerance
        code, out, _ = run_cli(
            capsys,
            ["compare", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emin", "-0.5", "--emax", "2.5",
             "--match-tol", "1e-15"],
        )
        assert code == 2
        _, _, rows = parse_csv(out)
        statuses = {r[3] for r in rows}
        assert "cf_only" in statuses and "oracle_only" in statuses

    def test_eigenvalue_on_pole_reported_exceptional(self, capsys):
        # at these parameters one oracle level sits exactly on a pole energy,
        # invisible to the continued fraction; the report must say so and the
        # run must still count as a success
        code, out, _ = run_cli(
            capsys,
            ["compare", "--model", "driven", "--delta", "0.4", "--g", "0.6",
             "--drive", "0.3", "--emin", "-1.5", "--emax", "8"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        exceptional = [r for r in rows if r[3] == "exceptional_candidate"]
        assert len(exceptional) == 1
        assert float(exceptional[0][1]) == pytest.approx(0.94, abs=1e-6)
        assert all(r[3] in ("matched", "exceptional_candidate") for r in rows)


class TestMatching:
    def test_greedy_matcher_statuses(self):
        rows = match_spectra(
            [1.0, 2.5], [1.0000004, 3.9], poles=[2.5001], match_tol=1e-6,
            eps_exc=1e-3,
        )
        by_status = {s: (r, o) for r, o, _, s in rows}
        assert by_status["matched"] == (1.0, 1.0000004)
        assert by_status["exceptional_candidate"] == (2.5, None)
        assert by_status["oracle_only"] == (None, 3.9)
