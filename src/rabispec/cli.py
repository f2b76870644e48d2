"""Command-line front end with machine-readable CSV/JSON output.

Subcommands: ``spectrum`` (roots of the transcendental function), ``curve``
(samples of F for external plotting, all from one ``f_values`` call),
``oracle`` (truncated-Fock eigenvalues), ``compare`` (matching report between
the two routes) and ``series`` (minimal-solution coefficients at one energy).

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure
(truncation ceiling, unmatched rows in compare).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .contfrac import DEFAULT_REL_TOL
from .errors import RabispecError, TruncationCeiling, ZeroCoupling
from .models import ModelKind, ModelParams, Sector, distance_to_pole_set, pole_lattice
from .oracle import oracle_spectrum
from .series import minimal_series, norm_tail_ratio, norm_term_ratio
from .spectral import (
    SpectrumOptions,
    compute_spectrum,
    default_window_min,
    eps_exceptional,
    f_values,
    poles_in_window,
)

# curve samples closer than this to a pole (in units of omega) are marked near_pole
_NEAR_POLE_FACTOR = 1e-6


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class RunConfig:
    """A checked run: model, sector and window, and each shared option's value by name."""

    model: ModelParams
    sector: Sector
    window: tuple[float, float]
    opts: dict


class _Option(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


# Every option the subcommands share, declared once: the flag is --name with
# "-" for "_", the config-file key is the name, a file value is cast by the
# type, and the default applies when neither flag nor file gives a value.
_OPTIONS = {
    "model": _Option(str, None, "model kind", tuple(sorted(k.value for k in ModelKind))),
    "omega": _Option(float, 1.0, "boson frequency (default 1)"),
    "delta": _Option(float, 0.0, "level splitting (default 0)"),
    "g": _Option(float, None, "coupling strength"),
    "drive": _Option(float, 0.0, "drive amplitude (driven model only)"),
    "q": _Option(str, None, "two-photon sector, 1/4 or 3/4"),
    "kappa": _Option(str, None, "two-mode sector, half-integer as p/2 or decimal"),
    "emin": _Option(float, None, "lower window edge"),
    "emax": _Option(float, None, "upper window edge"),
    "cf_rel_tol": _Option(float, DEFAULT_REL_TOL, "continued-fraction tolerance"),
    "root_abs_tol": _Option(float, SpectrumOptions.root_abs_tol, "root bracket tolerance"),
    "oracle_n": _Option(int, None, "starting Fock truncation for the oracle"),
    "match_tol": _Option(float, 1e-6, "root/oracle matching tolerance"),
    "format": _Option(str, "csv", "output format (default csv)", ("csv", "json")),
    "output": _Option(str, None, "output path (default: standard output)"),
}
# The sector option of each squeezed model, the Sector it builds and what a
# missing value asks for; the driven model has one trivial sector.
_SECTOR_OPTIONS = {
    ModelKind.TWO_PHOTON: ("q", Sector.two_photon, "--q 1/4 or 3/4"),
    ModelKind.TWO_MODE: ("kappa", Sector.two_mode, "--kappa"),
}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}; known: {', '.join(_OPTIONS)}")
            values[key] = val.strip()
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}
    opts = {}
    for name, opt in _OPTIONS.items():
        opts[name] = getattr(args, name)
        if opts[name] is None:
            opts[name] = opt.type(file_vals[name]) if name in file_vals else opt.default

    if opts["model"] not in _OPTIONS["model"].choices:
        raise ValueError(f"unknown or missing model: {opts['model']!r}")
    kind = ModelKind(opts["model"])
    if opts["g"] is None:
        raise ValueError("coupling --g is required")
    drive = opts["drive"] if kind is ModelKind.DRIVEN_RABI else 0.0
    model = ModelParams(kind, opts["omega"], opts["delta"], opts["g"], drive)
    if kind in _SECTOR_OPTIONS:
        name, make_sector, wanted = _SECTOR_OPTIONS[kind]
        if opts[name] is None:
            raise ValueError(f"{kind.value} model requires {wanted}")
        sector = make_sector(float(Fraction(opts[name])))
    else:
        sector = Sector.driven()

    e_min, e_max = opts["emin"], opts["emax"]
    if e_max is None:
        raise ValueError("--emax is required")
    if e_min is None:
        e_min = default_window_min(model, sector)
    # an energy given as inf or nan would reach the recurrence coefficients
    for name, value in (("emin", e_min), ("emax", e_max), ("energy", getattr(args, "energy", 0.0))):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    for name in ("cf_rel_tol", "root_abs_tol", "match_tol"):
        if not opts[name] > 0.0:
            raise ValueError(f"{name} must be positive, got {opts[name]}")
    if opts["format"] not in _OPTIONS["format"].choices:
        raise ValueError(f"unknown output format {opts['format']!r}; choose csv or json")
    if opts["output"]:
        # fail on an unwritable path before any work; append truncates nothing
        with open(opts["output"], "a", encoding="utf-8"):
            pass
    return RunConfig(model, sector, (e_min, e_max), opts)


def _meta(cfg: RunConfig) -> dict:
    m, s = cfg.model, cfg.sector
    meta = {
        "model": m.kind.value,
        "omega": m.omega,
        "delta": m.delta,
        "g": m.g,
        "emin": cfg.window[0],
        "emax": cfg.window[1],
        "cf_rel_tol": cfg.opts["cf_rel_tol"],
        "root_abs_tol": cfg.opts["root_abs_tol"],
    }
    if m.kind in _SECTOR_OPTIONS:
        meta[_SECTOR_OPTIONS[m.kind][0]] = s.value
    else:
        meta["drive"] = m.drive
    return meta


def _json_value(x):
    # JSON (RFC 8259) has no Infinity or NaN; CSV keeps inf and nan
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(cfg: RunConfig, meta: dict, columns: list[str], rows: list[list]) -> None:
    if cfg.opts["format"] == "json":
        payload = {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "rows": [{c: _json_value(v) for c, v in zip(columns, r)} for r in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in r) for r in rows]
        text = "\n".join(lines) + "\n"
    if cfg.opts["output"]:
        with open(cfg.opts["output"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(cfg: RunConfig) -> int:
    result = compute_spectrum(
        cfg.model, cfg.sector, cfg.window, SpectrumOptions(root_abs_tol=cfg.opts["root_abs_tol"])
    )
    meta = _meta(cfg)
    meta["count_rows"] = result.count_rows
    meta["count_calls"] = result.count_calls
    meta["count_row_steps"] = result.count_row_steps
    meta["poles"] = ";".join(_fmt(p) for p in result.poles)
    levels = [(r, False) for r in result.roots] + [(r, True) for r in result.flagged]
    rows = [[i, r.energy, r.residual, flagged] for i, (r, flagged) in enumerate(levels)]
    _emit(cfg, meta, ["index", "energy", "residual", "flagged"], rows)
    return 0


def cmd_curve(cfg: RunConfig, samples: int) -> int:
    if samples < 2:
        raise ValueError("--samples must be >= 2")
    meta = _meta(cfg)
    meta["samples"] = samples
    m, s = cfg.model, cfg.sector
    lo, hi = cfg.window
    step = (hi - lo) / (samples - 1)
    energies = lo + np.arange(samples) * step
    values = f_values(m, s, energies, cfg.opts["cf_rel_tol"])  # nan on a pole or unconverged
    dist = distance_to_pole_set(m, s, energies)
    collisions = energies[dist < m.eps_pole].tolist()
    if collisions:
        meta["errors"] = ";".join(f"{_fmt(e)}:PoleCollision" for e in collisions)
    near_pole = (dist < _NEAR_POLE_FACTOR * m.omega).tolist()
    rows = [
        [e, v, math.isfinite(v), near]
        for e, v, near in zip(energies.tolist(), values.tolist(), near_pole)
    ]
    _emit(cfg, meta, ["energy", "value", "converged", "near_pole"], rows)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    vals, n_used = oracle_spectrum(
        cfg.model, cfg.sector, cfg.window, n_start=cfg.opts["oracle_n"]
    )
    meta = _meta(cfg)
    meta["oracle_n_used"] = n_used
    rows = [[i, v, n_used] for i, v in enumerate(vals)]
    _emit(cfg, meta, ["index", "energy", "n_used"], rows)
    return 0


def match_spectra(
    root_energies: list[float],
    oracle_energies: list[float],
    poles: list[float],
    match_tol: float,
    eps_exc: float,
) -> list[tuple[float | None, float | None, float | None, str]]:
    """Greedy nearest-neighbor matching of solver roots against oracle levels.

    Rows are (root, oracle, |diff|, status) with status one of matched,
    cf_only, oracle_only, exceptional_candidate.  A level within ``eps_exc``
    of a pole is an exceptional candidate whether both routes found it (root
    and oracle filled in) or only one.
    """

    def near_pole(e: float) -> bool:
        return any(abs(e - p) < eps_exc for p in poles)

    roots = sorted(root_energies)
    oracle = sorted(oracle_energies)
    used_oracle = [False] * len(oracle)
    rows: list[tuple[float | None, float | None, float | None, str]] = []
    for r in roots:
        best_j, best_d = None, None
        for j, o in enumerate(oracle):
            if used_oracle[j]:
                continue
            d = abs(r - o)
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if best_j is not None and best_d is not None and best_d <= match_tol:
            used_oracle[best_j] = True
            status = "exceptional_candidate" if near_pole(r) else "matched"
            rows.append((r, oracle[best_j], best_d, status))
        elif near_pole(r):
            rows.append((r, None, None, "exceptional_candidate"))
        else:
            rows.append((r, None, None, "cf_only"))
    for j, o in enumerate(oracle):
        if used_oracle[j]:
            continue
        status = "exceptional_candidate" if near_pole(o) else "oracle_only"
        rows.append((None, o, None, status))
    rows.sort(key=lambda row: row[0] if row[0] is not None else row[1])
    return rows


def cmd_compare(cfg: RunConfig) -> int:
    result = compute_spectrum(
        cfg.model, cfg.sector, cfg.window, SpectrumOptions(root_abs_tol=cfg.opts["root_abs_tol"])
    )
    oracle_vals, n_used = oracle_spectrum(
        cfg.model, cfg.sector, cfg.window, n_start=cfg.opts["oracle_n"]
    )
    poles = poles_in_window(
        cfg.model, cfg.sector, cfg.window[0] - pole_lattice(cfg.model, cfg.sector)[1], cfg.window[1]
    )
    rows = match_spectra(
        result.energies + [r.energy for r in result.flagged],
        oracle_vals,
        poles,
        cfg.opts["match_tol"],
        eps_exceptional(cfg.model),
    )
    meta = _meta(cfg)
    meta["oracle_n_used"] = n_used
    meta["match_tol"] = cfg.opts["match_tol"]
    meta["count_calls"] = result.count_calls
    meta["count_row_steps"] = result.count_row_steps
    out_rows = [["" if v is None else v for v in row] for row in rows]
    _emit(cfg, meta, ["root", "oracle", "diff", "status"], out_rows)
    unmatched = [s for *_, s in rows if s in ("cf_only", "oracle_only")]
    return 2 if unmatched else 0


def cmd_series(cfg: RunConfig, energy: float, order: int) -> int:
    series = minimal_series(cfg.model, cfg.sector, energy, order)
    meta = _meta(cfg)
    meta["energy"] = energy
    meta["order"] = order
    meta["spectral_residual"] = series.residual
    meta["not_an_eigenvalue"] = series.flagged
    meta["norm_tail_ratio"] = norm_tail_ratio(series) if order >= 100 else ""
    rows = []
    for n in range(order + 1):
        term_ratio = norm_term_ratio(series, n) if n < order else ""
        rows.append([n, series.minus[n], series.plus[n], term_ratio])
    _emit(cfg, meta, ["n", "k_minus", "k_plus", "norm_term_ratio"], rows)
    return 0


_COMMANDS = {
    "spectrum": lambda cfg, args: cmd_spectrum(cfg),
    "curve": lambda cfg, args: cmd_curve(cfg, args.samples),
    "oracle": lambda cfg, args: cmd_oracle(cfg),
    "compare": lambda cfg, args: cmd_compare(cfg),
    "series": lambda cfg, args: cmd_series(cfg, args.energy, args.order),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="rabispec",
        description="Continued-fraction spectra of the 2-photon, two-mode and driven Rabi models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file; explicit flags override it")
        for key, opt in _OPTIONS.items():
            p.add_argument(
                "--" + key.replace("_", "-"), type=opt.type, choices=opt.choices, help=opt.help
            )
        if name == "curve":
            p.add_argument("--samples", type=int, default=200)
        if name == "series":
            p.add_argument("--energy", type=float, required=True)
            p.add_argument("--order", type=int, default=500)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_build_config(args), args)
    except TruncationCeiling as exc:
        print(f"ERROR numerical TruncationCeiling: {exc}", file=sys.stderr)
        return 2
    except (RabispecError, ValueError, OSError) as exc:
        zero_g = isinstance(exc, ZeroCoupling)
        hint = " (use the decoupled g=0 closed form instead)" if zero_g else ""
        print(f"ERROR config {type(exc).__name__}: {exc}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
