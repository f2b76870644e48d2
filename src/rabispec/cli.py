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

import numpy as np

from .contfrac import DEFAULT_REL_TOL
from .errors import RabispecError, TruncationCeiling, ZeroCoupling
from .models import ModelKind, ModelParams, Sector, distance_to_pole_set, pole_spacing
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

_MODEL_NAMES = {
    "two-photon": ModelKind.TWO_PHOTON,
    "two-mode": ModelKind.TWO_MODE,
    "driven": ModelKind.DRIVEN_RABI,
}
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
    model: ModelParams
    sector: Sector
    e_min: float
    e_max: float
    cf_rel_tol: float
    root_abs_tol: float
    oracle_n: int | None
    match_tol: float
    out_format: str
    output: str | None


_CONFIG_KEYS = (
    "model", "omega", "delta", "g", "drive", "q", "kappa", "emin", "emax",
    "cf_rel_tol", "root_abs_tol", "oracle_n", "match_tol", "format", "output",
)
_FORMATS = ("csv", "json")


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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}; known: {', '.join(_CONFIG_KEYS)}")
            values[key] = val.strip()
    return values


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; explicit flags override it")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="model kind")
    p.add_argument("--omega", type=float, help="boson frequency (default 1)")
    p.add_argument("--delta", type=float, help="level splitting (default 0)")
    p.add_argument("--g", type=float, help="coupling strength")
    p.add_argument("--drive", type=float, help="drive amplitude (driven model only)")
    p.add_argument("--q", help="two-photon sector, 1/4 or 3/4")
    p.add_argument("--kappa", help="two-mode sector, half-integer as p/2 or decimal")
    p.add_argument("--emin", type=float, help="lower window edge")
    p.add_argument("--emax", type=float, help="upper window edge")
    p.add_argument("--cf-rel-tol", type=float, help="continued-fraction tolerance")
    p.add_argument("--root-abs-tol", type=float, help="root bracket tolerance")
    p.add_argument("--oracle-n", type=int, help="starting Fock truncation for the oracle")
    p.add_argument("--match-tol", type=float, help="root/oracle matching tolerance")
    p.add_argument("--format", choices=_FORMATS, help="output format (default csv)")
    p.add_argument("--output", help="output path (default: standard output)")


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag, key, cast, default=None):
        if flag is not None:
            return flag
        if key in file_vals:
            return cast(file_vals[key])
        return default

    model_name = pick(args.model, "model", str)
    if model_name not in _MODEL_NAMES:
        raise ValueError(f"unknown or missing model: {model_name!r}")
    kind = _MODEL_NAMES[model_name]
    omega = pick(args.omega, "omega", float, 1.0)
    delta = pick(args.delta, "delta", float, 0.0)
    g = pick(args.g, "g", float)
    if g is None:
        raise ValueError("coupling --g is required")
    drive = pick(args.drive, "drive", float, 0.0)
    model = ModelParams(kind, omega, delta, g, drive if kind is ModelKind.DRIVEN_RABI else 0.0)

    if kind is ModelKind.TWO_PHOTON:
        q = pick(args.q, "q", str)
        if q is None:
            raise ValueError("two-photon model requires --q 1/4 or 3/4")
        sector = Sector.two_photon(float(Fraction(q)))
    elif kind is ModelKind.TWO_MODE:
        kappa = pick(args.kappa, "kappa", str)
        if kappa is None:
            raise ValueError("two-mode model requires --kappa")
        sector = Sector.two_mode(float(Fraction(kappa)))
    else:
        sector = Sector.driven()

    e_max = pick(args.emax, "emax", float)
    if e_max is None:
        raise ValueError("--emax is required")
    e_min = pick(args.emin, "emin", float)
    if e_min is None:
        e_min = default_window_min(model, sector)
    # an energy given as inf or nan would reach the recurrence coefficients
    for name, value in (("emin", e_min), ("emax", e_max), ("energy", getattr(args, "energy", 0.0))):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not e_min < e_max:
        raise ValueError("window must satisfy E_min < E_max")
    cf_rel_tol = pick(args.cf_rel_tol, "cf_rel_tol", float, DEFAULT_REL_TOL)
    match_tol = pick(args.match_tol, "match_tol", float, 1e-6)
    for name, value in (("cf_rel_tol", cf_rel_tol), ("match_tol", match_tol)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    out_format = pick(args.format, "format", str, "csv")
    if out_format not in _FORMATS:
        raise ValueError(f"unknown output format {out_format!r}; choose csv or json")
    return RunConfig(
        model=model,
        sector=sector,
        e_min=e_min,
        e_max=e_max,
        cf_rel_tol=cf_rel_tol,
        root_abs_tol=pick(args.root_abs_tol, "root_abs_tol", float, SpectrumOptions.root_abs_tol),
        oracle_n=pick(args.oracle_n, "oracle_n", int),
        match_tol=match_tol,
        out_format=out_format,
        output=pick(args.output, "output", str),
    )


def _meta(cfg: RunConfig) -> dict:
    m, s = cfg.model, cfg.sector
    meta = {
        "model": m.kind.value,
        "omega": m.omega,
        "delta": m.delta,
        "g": m.g,
        "emin": cfg.e_min,
        "emax": cfg.e_max,
        "cf_rel_tol": cfg.cf_rel_tol,
        "root_abs_tol": cfg.root_abs_tol,
    }
    if m.kind is ModelKind.DRIVEN_RABI:
        meta["drive"] = m.drive
    elif m.kind is ModelKind.TWO_PHOTON:
        meta["q"] = s.value
    else:
        meta["kappa"] = s.value
    return meta


def _json_value(x):
    # JSON (RFC 8259) has no Infinity or NaN; CSV keeps inf and nan
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(cfg: RunConfig, meta: dict, columns: list[str], rows: list[list]) -> None:
    if cfg.out_format == "json":
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
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_options(cfg: RunConfig) -> SpectrumOptions:
    return SpectrumOptions(root_abs_tol=cfg.root_abs_tol)


def cmd_spectrum(cfg: RunConfig) -> int:
    result = compute_spectrum(
        cfg.model, cfg.sector, (cfg.e_min, cfg.e_max), _spectrum_options(cfg)
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
    step = (cfg.e_max - cfg.e_min) / (samples - 1)
    energies = cfg.e_min + np.arange(samples) * step
    values = f_values(m, s, energies, cfg.cf_rel_tol)  # nan on a pole or unconverged
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
        cfg.model, cfg.sector, (cfg.e_min, cfg.e_max), n_start=cfg.oracle_n
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
        cfg.model, cfg.sector, (cfg.e_min, cfg.e_max), _spectrum_options(cfg)
    )
    oracle_vals, n_used = oracle_spectrum(
        cfg.model, cfg.sector, (cfg.e_min, cfg.e_max), n_start=cfg.oracle_n
    )
    poles = poles_in_window(
        cfg.model, cfg.sector, cfg.e_min - pole_spacing(cfg.model, cfg.sector), cfg.e_max
    )
    rows = match_spectra(
        result.energies + [r.energy for r in result.flagged],
        oracle_vals,
        poles,
        cfg.match_tol,
        eps_exceptional(cfg.model),
    )
    meta = _meta(cfg)
    meta["oracle_n_used"] = n_used
    meta["match_tol"] = cfg.match_tol
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


def _closed_form_hint(exc: Exception) -> str:
    if isinstance(exc, ZeroCoupling):
        return " (use the decoupled g=0 closed form instead)"
    return ""


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="rabispec",
        description="Continued-fraction spectra of the 2-photon, two-mode and driven Rabi models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "curve", "oracle", "compare", "series"):
        p = sub.add_parser(name)
        _add_common_args(p)
        if name == "curve":
            p.add_argument("--samples", type=int, default=200)
        if name == "series":
            p.add_argument("--energy", type=float, required=True)
            p.add_argument("--order", type=int, default=500)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _build_config(args)
    except (RabispecError, ValueError, OSError) as exc:
        print(f"ERROR config {type(exc).__name__}: {exc}{_closed_form_hint(exc)}", file=sys.stderr)
        return 1

    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "curve":
            return cmd_curve(cfg, args.samples)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_series(cfg, args.energy, args.order)
    except TruncationCeiling as exc:
        print(f"ERROR numerical TruncationCeiling: {exc}", file=sys.stderr)
        return 2
    except RabispecError as exc:
        print(f"ERROR config {type(exc).__name__}: {exc}{_closed_form_hint(exc)}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR config ValueError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
