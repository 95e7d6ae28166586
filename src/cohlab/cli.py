"""Command-line front end: figure reproduction, parameter sweeps, CSV output.

Configuration comes from a flat key=value file plus command-line overrides
(CLI > file > defaults).  Every CSV starts with a '#'-prefixed header
recording the fully resolved configuration, uses 17-significant-digit
floats, '\\n' newlines and UTF-8, so output is byte-deterministic for a
fixed configuration and version.  A figure or sweep solves each distinct
propagator once and derives all of its curves from that solution;
COHLAB_THREADS sets the worker pool for those solves, capped by their
number and the number of CPUs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .bath import BathSpec, spectral_density
from .channel import metrics_closed
from .codes import bitflip_metrics, bitflip_p_e, corrected_c, corrected_channel_metrics
from .propagator import TimeGrid, resample, solve_laplace, solve_volterra
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
    omega_c: float = 1.0
    omega0: float = 0.1
    alpha0: float = 1.2
    tmax: float = 1000.0
    points: int = 20000
    out_points: int = 400
    tmin_out: float = 0.1
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
        if self.eta0 < 0:
            raise ConfigError(f"eta0 must be >= 0, got {self.eta0}")
        for name in ("s", "omega_c", "omega0", "alpha0", "tmax", "tmin_out"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"parameter {name} must be positive, got {getattr(self, name)}")
        if self.points < 2 or self.out_points < 2:
            raise ConfigError("points and out_points must be at least 2")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.code == "phase" and self.n % 2 == 0:
            raise ConfigError("phase-flip code requires odd n")

    @property
    def bath(self) -> BathSpec:
        return BathSpec(self.s, self.eta0, self.omega_c)

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
    if kind in ("bool", bool):
        if val.lower() not in _BOOL:
            raise ValueError(f"expected a boolean, got {val!r}")
        return _BOOL[val.lower()]
    if kind in ("int", int):
        return int(val)
    if kind in ("float", float):
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
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path: str, header_items, columns: list[str], rows, footer: list[str] = ()):
    """Rows of equal layout: int columns print as '%d', the rest as '%.17g'."""
    lines = [f"# {k} = {v}" for k, v in header_items]
    lines.append(",".join(columns))
    if len(rows):
        fmt = ",".join("%d" if isinstance(x, (int, np.integer)) else "%.17g" for x in rows[0])
        lines.extend(fmt % tuple(row) for row in rows)
    lines.extend(f"# {f}" for f in footer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# propagator evaluation shared by the commands
# ---------------------------------------------------------------------------

# the RunConfig fields that determine u on the output grid
_PROPAGATOR_FIELDS = ("s", "eta0", "omega_c", "omega0", "tmax", "points",
                      "out_points", "tmin_out", "log_out", "solver")


def _output_grid(cfg: RunConfig) -> TimeGrid:
    if cfg.log_out:
        return TimeGrid.log(cfg.tmax, cfg.out_points, min(cfg.tmin_out, cfg.tmax / 10.0))
    return TimeGrid.uniform(cfg.tmax, cfg.out_points - 1)


def _solve_u(cfg: RunConfig) -> tuple[TimeGrid, dict]:
    """The output grid and u on it per requested solver(s).

    Time stepping always runs on the uniform grid and is cubic-resampled;
    Laplace inversion is evaluated on the output grid directly.
    """
    out_grid = _output_grid(cfg)
    sols = {}
    spec = cfg.bath
    if cfg.solver in ("volterra", "both"):
        uniform = TimeGrid.uniform(cfg.tmax, cfg.points)
        sols["volterra"] = resample(solve_volterra(spec, cfg.omega0, uniform), out_grid)
    if cfg.solver in ("laplace", "both"):
        sols["laplace"] = solve_laplace(spec, cfg.omega0, out_grid)
    return out_grid, sols


def _solve_each_once(cfgs: list[RunConfig]) -> list[tuple[TimeGrid, dict]]:
    """_solve_u for every config, solving each distinct propagator once.

    Configs that differ only outside _PROPAGATOR_FIELDS (α0, code, n, out)
    share one solution.  With COHLAB_THREADS > 1 the distinct solves run in
    a process pool.  Nothing is kept between calls.
    """
    keys = [tuple(getattr(c, f) for f in _PROPAGATOR_FIELDS) for c in cfgs]
    distinct = dict(zip(keys, cfgs))
    workers = _worker_count(len(distinct))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_u, distinct.values()))
    else:
        solved = [_solve_u(c) for c in distinct.values()]
    by_key = dict(zip(distinct, solved))
    return [by_key[k] for k in keys]


def _discrepancy_footer(sols: dict) -> tuple[list[str], bool]:
    if len(sols) < 2:
        return [], True
    diff = float(np.max(np.abs(sols["volterra"].u - sols["laplace"].u)))
    return [f"max_solver_discrepancy = {diff:.17g} (tol {CROSS_SOLVER_TOL})"], diff <= CROSS_SOLVER_TOL


def _write_propagator(cfg: RunConfig, out_grid: TimeGrid, sols: dict,
                      prefix: str = "propagator_") -> tuple[str, bool]:
    methods = sorted(sols)
    columns = ["t"] + [f"{c}_{m}" for m in methods for c in ("re_u", "im_u", "abs_u")]
    data = [out_grid.samples]
    for m in methods:
        u = sols[m].u
        # hypot rounds |u| as the scalar abs() does; np.abs on a complex array
        # differs from it in the last bit
        data += [u.real, u.imag, np.hypot(u.real, u.imag)]
    footer, ok = _discrepancy_footer(sols)
    path = os.path.join(cfg.out, f"{prefix}s{cfg.s:g}_eta{cfg.eta0:g}.csv")
    write_csv(path, cfg.header_items(), columns, np.column_stack(data).tolist(), footer)
    return path, ok


def cmd_propagator(cfg: RunConfig) -> tuple[str, bool]:
    return _write_propagator(cfg, *_solve_u(cfg))


def _channel_columns(cfg: RunConfig) -> list[str]:
    cols = ["t", "concurrence", "f_max", "fidelity", "p_e"]
    if cfg.code == "phase":
        cols.append("c_prime")
    elif cfg.code == "bit":
        cols.append("p_e_n")
    return cols


def _channel_rows(cfg: RunConfig, out_grid: TimeGrid, sols: dict) -> list[list[float]]:
    """One row per output time under _channel_columns, from the Laplace
    solution when there is one; every metric is one array pass over u,
    with |u| > 1 roundoff clamped to the unit circle."""
    u = sols.get("laplace", sols.get("volterra")).u
    u = u / np.maximum(np.abs(u), 1.0)
    p_e = phase_error_prob(cfg.alpha0, u)
    if cfg.code == "phase":
        c_prime = corrected_c(cfg.n, p_e)
        m = corrected_channel_metrics(cfg.alpha0, u, cfg.n, c_prime=c_prime)
        extra = [c_prime]
    elif cfg.code == "bit":
        m = bitflip_metrics(cfg.n, cfg.alpha0, u)
        extra = [bitflip_p_e(cfg.n, cfg.alpha0, u)]
    else:
        m = metrics_closed(cfg.alpha0, u)
        extra = []
    cols = [out_grid.samples, m.concurrence, m.f_max, m.fidelity, p_e] + extra
    return np.column_stack(cols).tolist()


def _write_channel(cfg: RunConfig, out_grid: TimeGrid, sols: dict,
                   prefix: str = "channel_") -> tuple[str, bool]:
    footer, ok = _discrepancy_footer(sols)
    tag = "" if cfg.code == "none" else f"_{cfg.code}{cfg.n}"
    path = os.path.join(cfg.out, f"{prefix}s{cfg.s:g}_eta{cfg.eta0:g}{tag}.csv")
    write_csv(path, cfg.header_items(), _channel_columns(cfg),
              _channel_rows(cfg, out_grid, sols), footer)
    return path, ok


def cmd_channel(cfg: RunConfig) -> tuple[str, bool]:
    return _write_channel(cfg, *_solve_u(cfg))


def cmd_sweep(cfg: RunConfig, axis: str, values: list[float]) -> tuple[str, bool]:
    if axis not in ("eta0", "s", "n", "alpha0", "omega0"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    cfgs = [replace(cfg, **{axis: int(v) if axis == "n" else float(v)}) for v in values]
    rows = []
    for c, (out_grid, sols) in zip(cfgs, _solve_each_once(cfgs)):
        v = getattr(c, axis)
        rows += [[v] + r for r in _channel_rows(c, out_grid, sols)]
    path = os.path.join(cfg.out, f"sweep_{axis}.csv")
    write_csv(path, cfg.header_items(), [axis] + _channel_columns(cfg), rows)
    return path, True


# ---------------------------------------------------------------------------
# figure bundles
# ---------------------------------------------------------------------------

_S_VALUES = (0.5, 1.0, 3.0)


def _write_spectral_curve(cfg: RunConfig, label: str) -> tuple[str, bool]:
    # 1b keeps η0 (scaled coupling); 1a rescales it so that η_s = η0
    eta0 = cfg.eta0 if label == "1b" else cfg.eta0 * (cfg.s / math.e) ** cfg.s
    spec = BathSpec(cfg.s, eta0, cfg.omega_c)
    w = np.linspace(0.0, 8.0 * cfg.omega_c, 801)
    rows = np.column_stack([w, spectral_density(spec, w)])
    path = os.path.join(cfg.out, f"figure{label}_J_s{cfg.s:g}.csv")
    write_csv(path, cfg.header_items(), ["omega", "J"], rows)
    return path, True


def _figure_tasks(fig_id: str, cfg: RunConfig) -> list[tuple]:
    """(kind, label, config) task triples with each caption's parameters."""
    tasks = []
    if fig_id in ("1a", "1b"):
        for s in _S_VALUES:
            tasks.append(("J", fig_id, replace(cfg, s=s, eta0=0.5)))
        return tasks
    if fig_id in ("2a", "2b"):
        eta0 = 0.01 if fig_id == "2a" else 0.5
        for s in _S_VALUES:
            tasks.append(("u", fig_id, replace(cfg, s=s, eta0=eta0, tmax=1000.0)))
        return tasks
    if fig_id == "3":
        for s in _S_VALUES:
            for eta0, tmax in ((0.01, 10000.0), (0.5, 1000.0)):
                tasks.append(("channel", fig_id, replace(cfg, s=s, eta0=eta0, tmax=tmax, code="none")))
        return tasks
    if fig_id in ("4", "5"):
        eta0, tmax = (0.01, 10000.0) if fig_id == "4" else (0.5, 1000.0)
        for s in _S_VALUES:
            for n in (1, 3, 9, 101):
                code = "none" if n == 1 else "phase"
                tasks.append(("channel", fig_id, replace(cfg, s=s, eta0=eta0, tmax=tmax, code=code, n=n)))
        return tasks
    if fig_id == "6":
        for s in _S_VALUES:
            for n in (1, 3, 6, 9):
                code = "none" if n == 1 else "bit"
                tasks.append(("channel", fig_id, replace(cfg, s=s, eta0=0.5, tmax=1000.0, code=code, n=n)))
        return tasks
    raise ConfigError(f"unknown figure id {fig_id!r}; known: 1a 1b 2a 2b 3 4 5 6")


_RECIPES = {
    "1a": "plot J vs omega for each CSV; linear axes; omega in units of omega_c (unscaled coupling)",
    "1b": "plot J vs omega for each CSV; linear axes; omega in units of omega_c (scaled coupling, common peak 2*pi*eta0*omega_c)",
    "2a": "plot abs_u_laplace vs t; x axis log scale, t in units of 1/omega_c; one curve per s",
    "2b": "plot abs_u_laplace vs t; x axis log scale; one curve per s",
    "3": "two panels per eta0: concurrence vs t and fidelity vs t; x axis log scale; draw horizontal line F = 2/3 on fidelity panels",
    "4": "per s: concurrence vs t and fidelity vs t for n = 1, 3, 9, 101; x axis log scale; horizontal line F = 2/3",
    "5": "per s: concurrence vs t and fidelity vs t for n = 1, 3, 9, 101; x axis log scale; horizontal line F = 2/3",
    "6": "per s: concurrence vs t and fidelity vs t for bit-flip n = 1, 3, 6, 9; x axis log scale; horizontal line F = 2/3",
}


def cmd_figure(fig_id: str, cfg: RunConfig) -> tuple[list[str], bool]:
    tasks = _figure_tasks(fig_id, cfg)
    if fig_id in ("1a", "1b"):
        results = [_write_spectral_curve(c, label) for _, label, c in tasks]
    else:
        solved = _solve_each_once([c for _, _, c in tasks])
        write = {"u": _write_propagator, "channel": _write_channel}
        prefix = {"u": f"figure{fig_id}_u_", "channel": f"figure{fig_id}_"}
        results = [write[kind](c, *sol, prefix=prefix[kind])
                   for (kind, _, c), sol in zip(tasks, solved)]
    paths = [p for p, _ in results]
    ok = all(flag for _, flag in results)
    recipe = os.path.join(cfg.out, f"figure{fig_id}_recipe.txt")
    with open(recipe, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"figure {fig_id}\n{_RECIPES[fig_id]}\nfiles:\n")
        for p in paths:
            fh.write(f"  {os.path.basename(p)}\n")
    return paths + [recipe], ok


def _worker_count(n_tasks: int) -> int:
    """Pool size: COHLAB_THREADS, capped by the task count and the CPU count."""
    try:
        wanted = int(os.environ.get("COHLAB_THREADS", "1"))
    except ValueError:
        wanted = 1
    return max(1, min(wanted, n_tasks, os.cpu_count() or 1))


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
    p.add_argument("--out-points", dest="out_points", type=int, help="output rows")
    p.add_argument("--linear-out", dest="log_out", action="store_const", const=False,
                   help="uniform instead of log-spaced output times")


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
            p.add_argument("--id", required=True, dest="fig_id",
                           choices=["1a", "1b", "2a", "2b", "3", "4", "5", "6"])
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=["eta0", "s", "n", "alpha0", "omega0"])
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        if args.command == "propagator":
            path, ok = cmd_propagator(cfg)
            paths = [path]
        elif args.command == "channel":
            path, ok = cmd_channel(cfg)
            paths = [path]
        elif args.command == "figure":
            paths, ok = cmd_figure(args.fig_id, cfg)
        else:
            values = [float(v) for v in args.values.split(",") if v.strip()]
            if not values:
                raise ConfigError("--values must list at least one number")
            path, ok = cmd_sweep(cfg, args.axis, values)
            paths = [path]
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
