"""Command-line interface: argument handling, output formats, exit codes."""

import json
import math
import warnings

import pytest

from rabispec import (
    ModelKind,
    ModelParams,
    Sector,
    closed_form_spectrum_g0,
)
from rabispec import cli
from rabispec.cli import main, match_spectra
from rabispec.models import pole_energy

from conftest import TWO_PHOTON_REF_EIGS
from reference import split_spectral_value

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


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_json(text):
    """json.loads that rejects Infinity and NaN, which RFC 8259 JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


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
        assert "poles" in meta and "count_rows" in meta
        assert int(meta["count_calls"]) > 0
        assert int(meta["count_row_steps"]) >= 64 * int(meta["count_calls"])
        energies = [float(r[1]) for r in rows if r[3] == "false"]
        assert energies == pytest.approx(TWO_PHOTON_REF_EIGS[:3], abs=1e-7)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, SPECTRUM_ARGS)
        _, out2, _ = run_cli(capsys, SPECTRUM_ARGS)
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, SPECTRUM_ARGS + ["--format", "json"])
        assert code == 0
        payload = load_json(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["model"] == "two-photon"
        assert payload["meta"]["count_calls"] > 0
        assert payload["meta"]["count_row_steps"] >= 64 * payload["meta"]["count_calls"]
        energies = [r["energy"] for r in payload["rows"] if not r["flagged"]]
        assert energies == pytest.approx(TWO_PHOTON_REF_EIGS[:3], abs=1e-7)
        # serialization is idempotent
        assert load_json(json.dumps(payload)) == payload

    def test_level_on_pole_residual(self, capsys):
        # no residual is defined at a level exactly on a pole: JSON null, CSV inf
        args = ["spectrum", "--model", "driven", "--delta", "0.4", "--g", "0.6",
                "--drive", "0.3", "--emin", "0.5", "--emax", "1.3"]
        code, out, _ = run_cli(capsys, args + ["--format", "json"])
        assert code == 0
        (row,) = load_json(out)["rows"]
        assert row["flagged"] is True and row["residual"] is None
        assert row["energy"] == pytest.approx(0.94, abs=1e-12)
        _, out, _ = run_cli(capsys, args)
        _, _, rows = parse_csv(out)
        assert rows == [["0", "0.93999999999999995", "inf", "true"]]

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
        ("gridstep = 0.5", "gridstep"),
        ("format = xml", "xml"),
        ("root_abs_tol = 0", "root_abs_tol"),
        ("grid_step = -1", "grid_step"),  # a retired key is an unknown key
        ("match_tol = nan", "match_tol"),
        ("match_tol = 0", "match_tol"),
        ("match_tol = -1", "match_tol"),
    ])
    def test_bad_config_value_is_config_error(self, capsys, tmp_path, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = two-photon\ndelta = 0.5\ng = 0.2\nq = 1/4\nemax = 2.5\n" + line + "\n"
        )
        code, out, err = run_cli(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err.startswith("ERROR config ValueError: ") and named in err

    @pytest.mark.parametrize("command", [
        "spectrum --emax=inf", "spectrum --emin=-inf", "curve --emax=nan", "compare --emin=nan",
        "series --energy=0.4 --emax=inf", "series --energy=nan",
    ])
    def test_non_finite_energy_is_config_error(self, capsys, command):
        # "--emin -inf" would read as a flag; a later flag overrides the --emax before it
        name, *flags = command.split()
        argv = [name, "--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                "--emax", "8", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("ERROR config ValueError: ") and "must be finite" in err

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

    def test_unwritable_output_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        argv = ["oracle", "--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                "--emax", "2.5", "--output", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("ERROR config FileNotFoundError: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("command, extra", [("series", ["--energy", "0.3"]), ("compare", [])])
    def test_unwritable_output_fails_before_the_work(
        self, capsys, monkeypatch, tmp_path, command, extra
    ):
        # the path is checked with the configuration, so the one ERROR line
        # comes before any work: no series is built (at E = 0.3, no
        # eigenvalue, it would warn) and compare runs neither route
        def no_work(*args, **kwargs):
            raise AssertionError("the work ran before the output path was checked")

        for name in ("minimal_series", "compute_spectrum", "oracle_spectrum"):
            monkeypatch.setattr(cli, name, no_work)
        path = tmp_path / "missing" / "x.csv"
        argv = [command, "--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                "--emax", "2.5", "--output", str(path)] + extra
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("ERROR config FileNotFoundError: ") and err.count("\n") == 1

    def test_output_check_truncates_nothing(self, capsys, tmp_path):
        # a run that fails after the check (E on pole E_0) leaves the file as it was
        path = tmp_path / "x.csv"
        path.write_text("kept\n")
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        pole = pole_energy(model, Sector.two_photon(0.25), 0)
        argv = ["series", "--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                "--emax", "2.5", "--energy", repr(pole), "--output", str(path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 1 and err.startswith("ERROR config PoleCollision: ")
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_oracle_n_above_ceiling_is_config_error(self, capsys, command):
        # the oracle would diagonalize nothing, so no truncation ceiling is reported
        argv = [command, "--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                "--emax", "2.5", "--oracle-n", "100000"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err == ("ERROR config ValueError: starting truncation 100000 exceeds the "
                       "ceiling n_max=8192\n")


# Each shared option with a run that uses it: (subcommand, the other options,
# the value under test).  Every option the CLI shares, and no other, is here.
TWO_PHOTON_RUN = {"model": "two-photon", "delta": "0.5", "g": "0.2", "q": "1/4", "emax": "3"}
OPTION_RUNS = {
    "model": (["oracle"], {"g": "0.4", "kappa": "1", "emax": "3"}, "two-mode"),
    "omega": (["oracle"], TWO_PHOTON_RUN, "1.5"),
    "delta": (["oracle"], TWO_PHOTON_RUN, "0.3"),
    "g": (["oracle"], TWO_PHOTON_RUN, "0.3"),
    "drive": (["oracle"], {"model": "driven", "g": "0.5", "emax": "3"}, "0.3"),
    "q": (["oracle"], TWO_PHOTON_RUN, "3/4"),
    "kappa": (["oracle"], {"model": "two-mode", "g": "0.4", "emax": "3"}, "3/2"),
    "emin": (["oracle"], TWO_PHOTON_RUN, "-1"),
    "emax": (["oracle"], TWO_PHOTON_RUN, "4"),
    "cf_rel_tol": (["curve", "--samples", "5"], TWO_PHOTON_RUN, "1e-10"),
    "root_abs_tol": (["spectrum"], TWO_PHOTON_RUN, "1e-11"),
    "oracle_n": (["oracle"], TWO_PHOTON_RUN, "64"),
    "match_tol": (["compare"], TWO_PHOTON_RUN, "1e-5"),
    "format": (["oracle"], TWO_PHOTON_RUN, "json"),
    "output": (["oracle"], TWO_PHOTON_RUN, None),  # a path under tmp_path
}


def as_flags(options):
    return [arg for key, value in options.items() for arg in ("--" + key.replace("_", "-"), value)]


class TestOptionTable:
    @pytest.mark.parametrize("name", list(OPTION_RUNS))
    def test_flag_and_config_key_agree(self, capsys, tmp_path, name):
        command, run, value = OPTION_RUNS[name]
        out_file = tmp_path / "out.txt"
        value = str(out_file) if value is None else value
        others = as_flags({k: v for k, v in run.items() if k != name})

        def output(argv):
            code, out, err = run_cli(capsys, command + others + argv)
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            return code, out, err, written

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        by_flag = output(as_flags({name: value}))
        assert by_flag[0] == 0 and by_flag[2] == ""
        assert output(["--config", str(cfg)]) == by_flag
        # the value takes effect: leaving it out changes the result
        assert output([]) != by_flag

    def test_unknown_key_lists_the_table(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gridstep = 0.5\n")
        code, out, err = run_cli(capsys, ["oracle", "--config", str(cfg)])
        assert code == 1 and out == ""
        known = err.rstrip("\n").split("; known: ")[1].split(", ")
        assert known == list(OPTION_RUNS) == list(cli._OPTIONS)


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
        pole = pole_energy(model, Sector.two_photon(0.25), 0)
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

    def test_pole_sample_is_json_null(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["curve", "--model", "driven", "--delta", "0.4", "--g", "0.6", "--drive", "0.3",
             "--emin", "0.9", "--emax", "0.98", "--samples", "3", "--format", "json"],
        )
        assert code == 0
        payload = load_json(out)
        assert "PoleCollision" in payload["meta"]["errors"]
        values = [r["value"] for r in payload["rows"]]
        assert values[1] is None and all(math.isfinite(v) for v in values[::2])

    def test_near_pole_flag(self, capsys):
        # a sample is near_pole within 1e-6 omega of a pole, not 1e-5 away
        model = ModelParams(ModelKind.TWO_PHOTON, 1.0, 0.5, 0.2)
        pole = pole_energy(model, Sector.two_photon(0.25), 1)
        code, out, _ = run_cli(
            capsys,
            ["curve", "--model", "two-photon", "--delta", "0.5", "--g", "0.2",
             "--q", "1/4", "--emin", repr(pole + 5e-7), "--emax", repr(pole + 1e-5),
             "--samples", "2"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[2:] for r in rows] == [["true", "true"], ["true", "false"]]

    def test_values_match_scalar_reference(self, capsys):
        model = ModelParams(ModelKind.TWO_MODE, 1.0, 0.7, 0.4)
        sector = Sector.two_mode(1.0)
        code, out, _ = run_cli(
            capsys,
            ["curve", "--model", "two-mode", "--delta", "0.7", "--g", "0.4", "--kappa", "1",
             "--emin", "-1", "--emax", "4", "--samples", "50", "--format", "json"],
        )
        assert code == 0
        rows = load_json(out)["rows"]
        assert len(rows) == 50 and all(r["converged"] for r in rows)
        for r in rows:
            ref = split_spectral_value(model, sector, r["energy"], 0)
            assert abs(r["value"] - ref) <= 1e-9 * max(1.0, abs(ref)), r["energy"]

    def test_zero_coupling_hints_closed_form(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["curve", "--model", "two-mode", "--delta", "0.7", "--g", "0", "--kappa", "1",
             "--emin", "-1", "--emax", "4", "--samples", "5"],
        )
        assert code == 1 and out == ""
        assert "ZeroCoupling" in err and "closed form" in err

    @pytest.mark.parametrize("emin, emax", [("4", "-1"), ("1", "1")])
    def test_empty_window_rejected(self, capsys, emin, emax):
        # the config check rejects E_min >= E_max once, for curve as for the others
        for command in (["curve", "--samples", "3"], ["spectrum"], ["compare"], ["oracle"]):
            code, out, err = run_cli(
                capsys,
                command + ["--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4",
                           "--emin", emin, "--emax", emax],
            )
            assert code == 1 and out == "", command
            assert err == "ERROR config ValueError: window must satisfy E_min < E_max\n", command

    def test_nan_tolerance_rejected(self, capsys):
        # the CLI checks every tolerance itself, for every subcommand, used or
        # not: a NaN or non-positive value is a config error
        commands = (["curve", "--samples", "5"], ["spectrum"], ["compare"], ["oracle"],
                    ["series", "--energy", "0.4", "--order", "20"])
        for command in commands:
            for option in ("cf_rel_tol", "root_abs_tol", "match_tol"):
                for value in ("nan", "0", "-1"):
                    code, out, err = run_cli(
                        capsys,
                        command + ["--model", "two-mode", "--delta", "0.7", "--g", "0.4",
                                   "--kappa", "1", "--emin", "-1", "--emax", "4",
                                   "--" + option.replace("_", "-"), value],
                    )
                    assert code == 1 and out == "", (command, option, value)
                    assert err.startswith(f"ERROR config ValueError: {option} must be positive")


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
        payload = load_json(out)
        meta, rows = payload["meta"], payload["rows"]
        assert meta["not_an_eigenvalue"] is False
        assert meta["spectral_residual"] < 1e-4
        assert meta["norm_tail_ratio"] == pytest.approx(4.0 * 0.2**2, rel=0.05)
        assert len(rows) == 2001
        assert rows[0]["n"] == 0 and rows[0]["k_minus"] == 1.0
        assert math.isfinite(rows[0]["k_plus"])

    def test_root_found_on_split_function_is_an_eigenvalue(self, capsys):
        # an oracle level where |F| = 126 but W_5 and W_6 vanish: the series
        # judges E by the twisted residual at the matching index, not by |F|
        code, out, _ = run_cli(
            capsys,
            ["series", "--model", "driven", "--delta", "0.7", "--g", "0.1", "--drive", "0.3",
             "--emax", "6", "--energy", "5.1427033618120745", "--format", "json"],
        )
        assert code == 0
        meta = load_json(out)["meta"]
        assert meta["not_an_eigenvalue"] is False
        assert meta["spectral_residual"] < 1e-4

    def test_decoupled_plus_column_zero(self, capsys):
        with pytest.warns(Warning):
            code, out, _ = run_cli(
                capsys,
                ["series", "--model", "two-photon", "--delta", "0", "--g", "0.2",
                 "--q", "1/4", "--emax", "8", "--energy", "0.3", "--order", "50",
                 "--format", "json"],
            )
        assert code == 0
        payload = load_json(out)
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
        meta, header, rows = parse_csv(out)
        assert int(meta["count_calls"]) > 0
        assert int(meta["count_row_steps"]) >= 64 * int(meta["count_calls"])
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


    def test_every_level_of_readme_window_found(self, capsys):
        # the level on the pole is found too: its row carries the root
        code, out, _ = run_cli(
            capsys,
            ["compare", "--model", "driven", "--delta", "0.4", "--g", "0.6",
             "--drive", "0.3", "--emin", "-1.5", "--emax", "8", "--match-tol", "1e-7"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 18 and all(r[0] and r[1] for r in rows)
        assert [r[3] for r in rows].count("matched") == 17
        (exceptional,) = [r for r in rows if r[3] == "exceptional_candidate"]
        assert float(exceptional[0]) == pytest.approx(0.94, abs=1e-7)


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


class TestParserReuse:
    def test_interleaved_commands_match_their_first_call(self, capsys):
        # one parser serves every call in a process: no state may carry over
        # from one subcommand, or from a rejected call, to the next
        base = ["--model", "two-photon", "--delta", "0.5", "--g", "0.2", "--q", "1/4"]
        calls = {
            "series": ["series"] + base + ["--emax", "3", "--energy", "0.4165", "--order", "20"],
            "spectrum": SPECTRUM_ARGS,
            "bad": ["spectrum", "--model", "driven", "--g", "0.5"],
            "oracle": ["oracle"] + base + ["--emax", "4", "--format", "json"],
            "curve": ["curve"] + base + ["--emin", "0", "--emax", "2", "--samples", "5"],
            "compare": ["compare"] + base + ["--emax", "3"],
        }
        first = {name: run_cli(capsys, argv) for name, argv in calls.items()}
        assert first["bad"][0] == 1 and first["bad"][1] == ""
        assert all(first[name][0] == 0 for name in calls if name != "bad")
        order = ["series", "spectrum", "bad", "spectrum", "curve", "series",
                 "oracle", "compare", "bad", "curve", "spectrum"]
        for name in order:
            assert run_cli(capsys, calls[name]) == first[name], name
        with pytest.raises(SystemExit):
            main(["spectrum", "--model", "bogus"])
        capsys.readouterr()
        assert run_cli(capsys, calls["series"]) == first["series"]
        assert cli._parser() is cli._parser()
