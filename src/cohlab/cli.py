"""Command-line front end: figure reproduction, parameter sweeps, CSV output.

Configuration comes from a flat key=value file plus command-line overrides
(CLI > file > defaults); ω0, α0 and tmax must be finite and positive,
BathSpec checks s and η0, and the phase-flip code checks n.  Frequencies
are in units of ω_c and times in units of 1/ω_c.  Each command runs one
pipeline: configs -> each distinct propagator solved once, on its own
output grid -> CSV writers that only format.  A figure or sweep derives all of its curves from those solutions,
solved one after another in the calling process.  With solver 'both' every
solve is checked against the other route once.  That check and each solver's
diagnostics are footer lines that travel with the solution into every CSV
drawn from it.  The parser is built once per process, on first use; this
module keeps nothing else between calls.  The output directory is made by
the first CSV written into it, so a command that fails before writing
leaves nothing on disk.

Every CSV starts with a '#'-prefixed header recording the fully resolved
configuration, uses 17-significant-digit floats, '\\n' newlines and UTF-8,
so output is byte-deterministic for a fixed configuration and version.
Each distinct column among the CSVs of one command (the output times, p_e
across the codes of one curve) is formatted once, in one `%` call, and its
cells are held until the last CSV that uses it is written.

Exit codes: 0 ok; 1 for a solver error or a cross-solver discrepancy above
CROSS_SOLVER_TOL; 2 for a configuration error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .bath import BathSpec, spectral_density
from .channel import metrics_closed, x_state_metrics
from .codes import bitflip_metrics, bitflip_p_e, corrected_c, phase_success_prob
from .propagator import TimeGrid, check_stepper_range, solve_laplace, solve_volterra
from .qubit import phase_error_prob

__all__ = ["RunConfig", "ConfigError", "main"]

CROSS_SOLVER_TOL = 1e-3


class ConfigError(ValueError):
    """Malformed configuration file or option values."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; defaults match the reference experiments
    (initial amplitude 1.2, mode frequency 0.1 in cutoff units)."""

    s: float = 1.0
    eta0: float = 0.01
    omega0: float = 0.1
    alpha0: float = 1.2
    tmax: float = 1000.0
    points: int = 20000
    out_points: int = 400
    log_out: bool = True
    solver: str = "laplace"
    code: str = "none"
    n: int = 1
    out: str = "."

    def __post_init__(self):
        if self.solver not in ("volterra", "laplace", "both"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.code not in ("none", "phase", "bit"):
            raise ConfigError(f"unknown code {self.code!r}")
        for name in ("omega0", "alpha0", "tmax"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"parameter {name} must be finite, got {value}")
            if not value > 0:
                raise ConfigError(f"parameter {name} must be positive, got {value}")
        if self.points < 2 or self.out_points < 2:
            raise ConfigError("points and out_points must be at least 2")
        if self.log_out and self.out_points < 3:
            raise ConfigError(f"out_points must be at least 3 for log-spaced output, got {self.out_points}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.out:
            raise ConfigError("parameter out must name a directory, got ''")
        try:
            self.bath
            if self.solver != "laplace":
                check_stepper_range(self.s)
            if self.code == "phase":
                phase_success_prob(self.n, 0.0)
        except ValueError as exc:  # the bath's checks of s and eta0, the stepper's on s, the code's on n
            raise ConfigError(str(exc)) from None

    @property
    def bath(self) -> BathSpec:
        return BathSpec(self.s, self.eta0)

    def header_items(self) -> list[tuple[str, str]]:
        items = [(f.name, repr(getattr(self, f.name))) for f in fields(self)]
        items.append(("cohlab_version", __version__))
        return sorted(items)


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat `key = value` file, '#' comments; keys are RunConfig fields."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from None
    return values


def _coerce(key: str, val: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if val.lower() not in _BOOL:
            raise ValueError(f"expected a boolean, got {val!r}")
        return _BOOL[val.lower()]
    if kind == "int":
        return int(val)
    if kind == "float":
        return float(val)
    return val


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path: str, header_items, columns: list[str], rows, footer: list[str] = ()):
    """The '# key = value' header, the column names, one line per entry of
    `rows` (one entry per CSV row, already formatted, as `_csv_lines` yields
    them), then the '# ' footer lines.  Makes the file's directory if it is
    missing, so a command that writes no CSV leaves nothing on disk."""
    lines = [f"# {k} = {v}" for k, v in header_items]
    lines.append(",".join(columns))
    lines.extend(rows)
    lines.extend(f"# {f}" for f in footer)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cells(column: np.ndarray) -> list[str]:
    """A column's cells, '%d' for ints and '%.17g' for the rest, from one
    `%` call over the whole column."""
    fmt = "%d\n" if column.dtype.kind in "iu" else "%.17g\n"
    return (fmt * len(column) % tuple(column.tolist())).split("\n")[:-1]


def _csv_lines(tables: list[list[np.ndarray]]):
    """Yield the CSV lines of each table, a list of equal-length columns.

    Each distinct column (same dtype and bytes) is formatted once, by
    `_cells`, and its cells are released after the last table using it.
    """
    keys = [[(c.dtype.str, c.tobytes()) for c in table] for table in tables]
    last = {k: i for i, table_keys in enumerate(keys) for k in table_keys}
    held = {}
    for i, (table, table_keys) in enumerate(zip(tables, keys)):
        cells = [held[k] if k in held else held.setdefault(k, _cells(c)) for c, k in zip(table, table_keys)]
        held = {k: v for k, v in held.items() if last[k] > i}  # what a later table uses
        yield list(map(",".join, zip(*cells)))


def _write_tables(items) -> list[str]:
    """Write each (path, header items, column names, columns, footer) item
    as one CSV, each distinct column formatted once; returns the paths."""
    lines = _csv_lines([columns for _, _, _, columns, _ in items])
    for (path, header, names, _, footer), rows in zip(items, lines):
        write_csv(path, header, names, rows, footer)
    return [path for path, *_ in items]


# ---------------------------------------------------------------------------
# solve: each distinct propagator once, with its cross-solver check
# ---------------------------------------------------------------------------

# the RunConfig fields that determine u on the output grid
_PROPAGATOR_FIELDS = ("s", "eta0", "omega0", "tmax", "points", "out_points", "log_out", "solver")


class _Solved(NamedTuple):
    """u on the output grid per solver, and the footer lines and verdict
    that every CSV drawn from it carries: the cross-solver check (no line
    and True for a single solver) followed by one line of diagnostics per
    solver."""

    grid: TimeGrid
    sols: dict
    footer: list
    ok: bool


def _output_grid(cfg: RunConfig) -> TimeGrid:
    if cfg.log_out:
        return TimeGrid.log(cfg.tmax, cfg.out_points, min(0.1, cfg.tmax / 10.0))
    return TimeGrid.uniform(cfg.tmax, cfg.out_points - 1)


def _solve_u(cfg: RunConfig, out_grid: TimeGrid) -> _Solved:
    """u on the output grid per requested solver(s), checked against each other.

    Time stepping runs on the uniform grid and answers at the output times
    from its finest level; Laplace inversion evaluates them directly.  Each
    solver's diagnostics become one footer line (`laplace: panels = …`),
    values by repr; they record and never gate, and η₀ = 0 has none.
    """
    sols = {}
    spec = cfg.bath
    if cfg.solver in ("volterra", "both"):
        sols["volterra"] = solve_volterra(spec, cfg.omega0, TimeGrid.uniform(cfg.tmax, cfg.points),
                                          times=out_grid)
    if cfg.solver in ("laplace", "both"):
        sols["laplace"] = solve_laplace(spec, cfg.omega0, out_grid)
    evidence = [f"{m}: " + ", ".join(f"{k} = {v!r}" for k, v in sol.diagnostics.items())
                for m, sol in sorted(sols.items()) if sol.diagnostics]
    if len(sols) < 2:
        return _Solved(out_grid, sols, evidence, True)
    diff = float(np.max(np.abs(sols["volterra"].u - sols["laplace"].u)))
    return _Solved(out_grid, sols,
                   [f"max_solver_discrepancy = {diff:.17g} (tol {CROSS_SOLVER_TOL})"] + evidence,
                   diff <= CROSS_SOLVER_TOL)


def _solve_each_once(cfgs: list[RunConfig]) -> list[_Solved]:
    """_solve_u for every config, solving each distinct propagator once on
    its own output grid.

    Configs that differ only outside _PROPAGATOR_FIELDS (α0, code, n, out)
    share one solution.  Nothing is kept between calls.
    """
    keys = [tuple(getattr(c, f) for f in _PROPAGATOR_FIELDS) for c in cfgs]
    by_key = {k: _solve_u(c, _output_grid(c)) for k, c in dict(zip(keys, cfgs)).items()}
    return [by_key[k] for k in keys]


# ---------------------------------------------------------------------------
# write: tables formatted from a solution
# ---------------------------------------------------------------------------

def _u_table(cfg: RunConfig, sol: _Solved) -> tuple[list[str], list]:
    """Column names and columns: t, then Re u, Im u and |u| per solver."""
    methods = sorted(sol.sols)
    names = ["t"] + [f"{c}_{m}" for m in methods for c in ("re_u", "im_u", "abs_u")]
    columns = [sol.grid.samples]
    for m in methods:
        u = sol.sols[m].u
        # hypot rounds |u| as the scalar abs() does; np.abs on a complex array
        # differs from it in the last bit
        columns += [u.real, u.imag, np.hypot(u.real, u.imag)]
    return names, columns


def _channel_table(cfg: RunConfig, sol: _Solved) -> tuple[list[str], list]:
    """Column names and columns, one row per output time, from the Laplace
    solution when there is one; every metric is one array pass over u, with
    |u| > 1 roundoff clamped to the unit circle."""
    u = sol.sols.get("laplace", sol.sols.get("volterra")).u
    u = u / np.maximum(np.abs(u), 1.0)
    p_e = phase_error_prob(cfg.alpha0, u)
    if cfg.code == "phase":
        c_prime = corrected_c(cfg.n, p_e)
        m, extra = x_state_metrics(cfg.alpha0, u, c_prime), {"c_prime": c_prime}
    elif cfg.code == "bit":
        m, extra = bitflip_metrics(cfg.n, cfg.alpha0, u), {"p_e_n": bitflip_p_e(cfg.n, cfg.alpha0, u)}
    else:
        m, extra = metrics_closed(cfg.alpha0, u), {}
    return (["t", "concurrence", "f_max", "fidelity", "p_e", *extra],
            [sol.grid.samples, m.concurrence, m.f_max, m.fidelity, p_e, *extra.values()])


_TABLES = {"u": _u_table, "channel": _channel_table}


def _write_curves(kind: str, prefix: str, cfgs: list[RunConfig]) -> tuple[list[str], bool]:
    """One CSV per config: the `kind` table of its solution under the
    solution's footer; the verdict is that of every solution."""
    solved = _solve_each_once(cfgs)
    items = []
    for c, sol in zip(cfgs, solved):
        tag = "" if kind == "u" or c.code == "none" else f"_{c.code}{c.n}"
        items.append((os.path.join(c.out, f"{prefix}s{c.s:g}_eta{c.eta0:g}{tag}.csv"),
                      c.header_items(), *_TABLES[kind](c, sol), sol.footer))
    return _write_tables(items), all(sol.ok for sol in solved)


def _sweep_values(axis: str, text: str) -> list:
    """The comma-separated --values, as integers on the n axis."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []  # a non-number gets the empty list's error
    if not values or (axis == "n" and not all(v.is_integer() for v in values)):
        want = "integers" if axis == "n" else "numbers"
        raise ConfigError(f"--values must be a comma-separated list of {want}, got {text!r}")
    return [int(v) for v in values] if axis == "n" else values


def _write_sweep(cfg: RunConfig, axis: str, values: list) -> tuple[list[str], bool]:
    """One long-format CSV, the axis value first in every row; the header
    gives the swept values for the axis field, and each curve's
    cross-solver footer lines are tagged with its axis value."""
    cfgs = [replace(cfg, **{axis: v}) for v in values]
    solved = _solve_each_once(cfgs)
    tables, footer = [], []
    for c, sol in zip(cfgs, solved):
        v = getattr(c, axis)
        names, columns = _channel_table(c, sol)
        tables.append([np.full(len(columns[0]), v), *columns])
        footer += [f"{axis} = {v!r}: {line}" for line in sol.footer]
    path = os.path.join(cfg.out, f"sweep_{axis}.csv")
    header = [(k, repr(values) if k == axis else v) for k, v in cfg.header_items()]
    columns = [np.concatenate(c) for c in zip(*tables)]  # the values' rows one after another
    return _write_tables([(path, header, [axis] + names, columns, footer)]), all(sol.ok for sol in solved)


# ---------------------------------------------------------------------------
# figure bundles
# ---------------------------------------------------------------------------

def _curves(common: dict, *axes: list[dict]) -> list[dict]:
    """Per-curve RunConfig overrides: `common` plus one entry of each axis,
    the first axis outermost."""
    return [{k: v for d in (common, *pick) for k, v in d.items()}
            for pick in itertools.product(*axes)]


_S = [{"s": s} for s in (0.5, 1.0, 3.0)]
_PHASE = [{"code": "none", "n": 1}] + [{"code": "phase", "n": n} for n in (3, 9, 101)]
_BIT = [{"code": "none", "n": 1}] + [{"code": "bit", "n": n} for n in (3, 6, 9)]
_CODE_RECIPE = ("per s: concurrence vs t and fidelity vs t for {}; x axis log scale; "
                "horizontal line F = 2/3")

# figure id -> (curve kind, per-curve overrides with each caption's parameters, recipe); a
# 10^4 horizon comes with 2 x 10^5 stepper steps, the step h = 0.05 of every 10^3 curve
_FIGURES = {
    "1a": ("J", _curves({"eta0": 0.5}, _S),
           "plot J vs omega for each CSV; linear axes; omega in units of omega_c (unscaled coupling)"),
    "1b": ("J", _curves({"eta0": 0.5}, _S),
           "plot J vs omega for each CSV; linear axes; omega in units of omega_c "
           "(scaled coupling, common peak 2*pi*eta0*omega_c)"),
    "2a": ("u", _curves({"eta0": 0.01, "tmax": 1000.0}, _S),
           "plot abs_u_laplace vs t; x axis log scale, t in units of 1/omega_c; one curve per s"),
    "2b": ("u", _curves({"eta0": 0.5, "tmax": 1000.0}, _S),
           "plot abs_u_laplace vs t; x axis log scale; one curve per s"),
    "3": ("channel", _curves({"code": "none"}, _S, [{"eta0": 0.01, "tmax": 10000.0, "points": 200000},
                                                    {"eta0": 0.5, "tmax": 1000.0}]),
          "two panels per eta0: concurrence vs t and fidelity vs t; x axis log scale; "
          "draw horizontal line F = 2/3 on fidelity panels"),
    "4": ("channel", _curves({"eta0": 0.01, "tmax": 10000.0, "points": 200000}, _S, _PHASE),
          _CODE_RECIPE.format("n = 1, 3, 9, 101")),
    "5": ("channel", _curves({"eta0": 0.5, "tmax": 1000.0}, _S, _PHASE),
          _CODE_RECIPE.format("n = 1, 3, 9, 101")),
    "6": ("channel", _curves({"eta0": 0.5, "tmax": 1000.0}, _S, _BIT),
          _CODE_RECIPE.format("bit-flip n = 1, 3, 6, 9")),
}


def _spectral_curve(cfg: RunConfig, fig_id: str) -> tuple:
    """The figure 1a/1b CSV item of one config: J on 801 points of [0, 8] (ω_c)."""
    # 1b keeps η0 (scaled coupling); 1a rescales it so that η_s = η0
    eta0 = cfg.eta0 if fig_id == "1b" else cfg.eta0 * (cfg.s / math.e) ** cfg.s
    w = np.linspace(0.0, 8.0, 801)
    return (os.path.join(cfg.out, f"figure{fig_id}_J_s{cfg.s:g}.csv"), cfg.header_items(),
            ["omega", "J"], [w, spectral_density(BathSpec(cfg.s, eta0), w)], ())


def _write_figure(fig_id: str, cfg: RunConfig) -> tuple[list[str], bool]:
    kind, curves, recipe = _FIGURES[fig_id]
    cfgs = [replace(cfg, **o) for o in curves]
    if kind == "J":
        paths, ok = _write_tables([_spectral_curve(c, fig_id) for c in cfgs]), True
    else:
        paths, ok = _write_curves(kind, f"figure{fig_id}_" + ("u_" if kind == "u" else ""), cfgs)
    recipe_path = os.path.join(cfg.out, f"figure{fig_id}_recipe.txt")
    with open(recipe_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"figure {fig_id}\n{recipe}\nfiles:\n")
        fh.writelines(f"  {os.path.basename(p)}\n" for p in paths)
    return paths + [recipe_path], ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--out", help="output directory (default '.')")
    p.add_argument("--solver", choices=["volterra", "laplace", "both"])
    p.add_argument("--s", type=float, help="spectral power (1/2 sub-Ohmic, 1 Ohmic, 3 super-Ohmic)")
    p.add_argument("--eta0", type=float, help="coupling strength")
    p.add_argument("--omega0", type=float, help="mode frequency (units of omega_c)")
    p.add_argument("--alpha0", type=float, help="initial coherent amplitude")
    p.add_argument("--code", choices=["none", "phase", "bit"])
    p.add_argument("--n", type=int, help="repetition-code size")
    p.add_argument("--tmax", type=float, help="solver horizon (units of 1/omega_c)")
    p.add_argument("--points", type=int, help="uniform solver grid steps")
    p.add_argument("--out-points", dest="out_points", type=int,
                   help="output rows (at least 3 when log-spaced)")
    p.add_argument("--linear-out", dest="log_out", action="store_const", const=False,
                   help="uniform instead of log-spaced output times")


@functools.cache  # depends on no input, and parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cohlab",
                                 description="coherent-state qubit decoherence toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, desc in (("propagator", "u(t) by the requested solver(s)"),
                       ("channel", "concurrence / fidelity time series"),
                       ("figure", "reference figure data bundles"),
                       ("sweep", "long-format parameter sweep")):
        p = sub.add_parser(name, help=desc)
        _add_config_flags(p)
        if name == "figure":
            p.add_argument("--id", required=True, dest="fig_id", choices=list(_FIGURES))
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=["eta0", "s", "n", "alpha0", "omega0"])
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "figure":
            paths, ok = _write_figure(args.fig_id, cfg)
        elif args.command == "sweep":
            paths, ok = _write_sweep(cfg, args.axis, _sweep_values(args.axis, args.values))
        else:
            kind = "u" if args.command == "propagator" else "channel"
            paths, ok = _write_curves(kind, f"{args.command}_", [cfg])
    except ConfigError as exc:
        print(f"cohlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver / quadrature failures
        print(f"cohlab: error: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    if not ok:
        print("cohlab: cross-solver discrepancy exceeded tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
