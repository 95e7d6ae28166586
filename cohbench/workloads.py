"""The three benchmark workloads.

Each workload draws its inputs from the seed, runs one pass of operations
(`run_pass`, the timed part), and afterwards checks the outputs against the
independent references in `refs` (`prepare` computes them, untimed).
Every check is a function of the prepared data, so the self-test can feed
it a deliberately wrong copy and confirm it rejects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np
from scipy.interpolate import CubicSpline

import refs

import cohlab
from cohlab import BathSpec, TimeGrid, find_poles, solve_laplace, solve_volterra
from cohlab import cli
from cohlab.bath import imaginary_axis_denominator

_S_REF = (0.5, 1.0, 3.0)
# Agreement of the two routes for u.  Time stepping is converged far below
# this, but the Laplace route is off by up to 4.1e-5 near t = 1.15 at s = 3,
# eta0 = 0.01, omega0 <= 0.1025: build_panels accepts the wide panel [1, 25.5]
# with a Chebyshev tail of 7e-5, and the Filon branch inherits it.  The
# program's own cross-solver tolerance is 1e-3.
CROSS_ROUTE_TOL = 1e-4


def _jitter(rng, centre: float, rel: float) -> float:
    return round(centre * (1.0 + rng.uniform(-rel, rel)), 6)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _volterra_abs_u(s: float, eta0: float, omega0: float, t: np.ndarray) -> np.ndarray:
    """|u| by time stepping to t = 200, splined onto the times t."""
    n = 8000 if eta0 >= 0.1 else 4000
    grid = TimeGrid.uniform(200.0, n)
    sol = solve_volterra(BathSpec(s, eta0), omega0, grid)
    return np.abs(CubicSpline(grid.samples, sol.u)(t))


def _result(ok: bool, detail: str) -> tuple[bool, str]:
    return bool(ok), detail


def _check_identical(wl, data):
    """Every pass (warm-up included) produced the same output digest."""
    fps = data["fingerprints"]
    return _result(len(set(fps)) == 1, f"{len(fps)} passes, {len(set(fps))} distinct output digests")


class Workload:
    name = ""
    ops: list[str] = []

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.rng = np.random.default_rng(seed)

    def inputs(self) -> dict:
        raise NotImplementedError

    def run_pass(self) -> list:
        raise NotImplementedError

    def fingerprint(self, outputs) -> str:
        raise NotImplementedError

    def prepare(self, outputs, fingerprints: list[str]) -> dict:
        raise NotImplementedError

    def failed_ops(self, data) -> dict[str, str]:
        """op label -> reason and layer at fault, for ops that failed."""
        return {}

    checks: dict = {}

    def mutations(self, data) -> list[tuple[str, str, dict]]:
        """(check name, what was broken, wrong copy of the data)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# figure_bundle
# ---------------------------------------------------------------------------

class FigureBundle(Workload):
    """`cohlab figure --id` 2a 2b 3 4 5 6 in-process, program defaults apart
    from seed-drawn α0 and ω0."""

    name = "figure_bundle"
    FIGS = ("2a", "2b", "3", "4", "5", "6")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.alpha0 = _jitter(self.rng, 1.2, 0.05)
        self.omega0 = _jitter(self.rng, 0.1, 0.05)
        self.ops = [f"figure {f}" for f in self.FIGS]

    def inputs(self):
        return {"alpha0": self.alpha0, "omega0": self.omega0, "figures": list(self.FIGS)}

    def run_pass(self):
        return [_cli(["figure", "--id", f, "--out", self.out,
                      "--alpha0", repr(self.alpha0), "--omega0", repr(self.omega0)])
                for f in self.FIGS]

    def _files(self):
        return sorted(f for f in os.listdir(self.out) if f.startswith("figure"))

    def fingerprint(self, outputs):
        chunks = []
        for f in self._files():
            with open(os.path.join(self.out, f), "rb") as fh:
                chunks += [f.encode(), fh.read()]
        return _digest(chunks)

    def prepare(self, outputs, fingerprints):
        files = {f: refs.read_csv(os.path.join(self.out, f)) for f in self._files() if f.endswith(".csv")}
        ref_u = {}
        for f, (hdr, cols) in files.items():
            if "_u_" in f:
                t = cols["t"]
                sel = t <= 200.0
                ref_u[f] = (sel, _volterra_abs_u(float(hdr["s"]), float(hdr["eta0"]),
                                                 self.omega0, t[sel]))
        return {"rc": outputs, "fingerprints": fingerprints, "files": files, "ref_u": ref_u,
                "first_csv": next(f for f in self._files() if f.endswith(".csv"))}

    def failed_ops(self, data):
        return {op: f"cli.main exit code {rc}" for op, rc in zip(self.ops, data["rc"]) if rc != 0}

    # -- checks -------------------------------------------------------------

    def check_c_prime(self, data):
        worst, rows = 0.0, 0
        for f, (hdr, cols) in data["files"].items():
            if "c_prime" in cols:
                n = int(hdr["n"])
                worst = max(worst, float(np.max(np.abs(cols["c_prime"] - refs.corrected_c_ref(n, cols["p_e"])))))
                rows += len(cols["c_prime"])
        return _result(rows > 0 and worst <= 1e-12, f"max |c' - (2 bdtr - 1)| = {worst:.3e} over {rows} rows (tol 1e-12)")

    def _state_metrics(self, hdr, cols):
        a0 = float(hdr["alpha0"])
        n = int(hdr["n"])
        abs_u = refs.abs_u_from_pe(a0, cols["p_e"])
        c = 1.0 - 2.0 * cols["p_e"]
        if hdr["code"] == "'phase'":
            rho = refs.channel_states(a0, abs_u, 1, refs.corrected_c_ref(n, cols["p_e"]))
        elif hdr["code"] == "'bit'":
            rho = refs.channel_states(a0, abs_u, n, c**n)
        else:
            rho = refs.channel_states(a0, abs_u, 1, c)
        return refs.wootters(rho), refs.fmax_magic(rho)

    def check_state(self, data):
        worst_c = worst_f = 0.0
        rows = 0
        for f, (hdr, cols) in data["files"].items():
            if "concurrence" not in cols:
                continue
            conc, fmax = self._state_metrics(hdr, cols)
            worst_c = max(worst_c, float(np.max(np.abs(cols["concurrence"] - conc))))
            worst_f = max(worst_f, float(np.max(np.abs(cols["f_max"] - fmax))))
            rows += len(conc)
        return _result(rows > 0 and worst_c <= 1e-7 and worst_f <= 1e-10,
                       f"max |C - Wootters| = {worst_c:.3e} (tol 1e-7), max |f_max - magic| = "
                       f"{worst_f:.3e} (tol 1e-10) over {rows} rows")

    def check_fidelity(self, data):
        worst, rows = 0.0, 0
        for f, (hdr, cols) in data["files"].items():
            if "fidelity" in cols:
                worst = max(worst, float(np.max(np.abs(cols["fidelity"] - (2.0 * cols["f_max"] + 1.0) / 3.0))))
                rows += len(cols["fidelity"])
        return _result(rows > 0 and worst <= 1e-14, f"max |F - (2 f_max + 1)/3| = {worst:.3e} over {rows} rows (tol 1e-14)")

    def check_u(self, data):
        worst = 0.0
        for f, (sel, ref) in data["ref_u"].items():
            worst = max(worst, float(np.max(np.abs(data["files"][f][1]["abs_u_laplace"][sel] - ref))))
        return _result(len(data["ref_u"]) == 6 and worst <= CROSS_ROUTE_TOL,
                       f"figure 2a/2b max ||u| - |u_volterra|| at t <= 200 = {worst:.3e} (tol {CROSS_ROUTE_TOL:g})")

    checks = {"csv_bytes_identical": _check_identical, "c_prime_binomial": check_c_prime,
              "concurrence_fmax_state": check_state, "fidelity_from_fmax": check_fidelity,
              "abs_u_vs_time_stepping": check_u}

    def mutations(self, data):
        def with_files(fn):
            files = {f: (hdr, dict(cols)) for f, (hdr, cols) in data["files"].items()}
            for f, (hdr, cols) in files.items():
                fn(hdr, cols)
            return {**data, "files": files}

        def wrong_c_prime(hdr, cols):
            if "c_prime" in cols:
                cols["c_prime"] = refs.corrected_c_ref(int(hdr["n"]) - 2, cols["p_e"])

        def scaled_u(hdr, cols):
            if "p_e" in cols:
                a0 = float(hdr["alpha0"])
                u = np.minimum(1.0, refs.abs_u_from_pe(a0, cols["p_e"]) * (1.0 + 1e-3))
                cols["p_e"] = refs.pe_from_abs_u(a0, u)
            if "abs_u_laplace" in cols:
                cols["abs_u_laplace"] = cols["abs_u_laplace"] * (1.0 + 1e-3)

        def scaled_f(hdr, cols):
            if "fidelity" in cols:
                cols["fidelity"] = cols["fidelity"] * (1.0 + 1e-3)

        with open(os.path.join(self.out, data["first_csv"]), "rb") as fh:
            body = bytearray(fh.read())
        body[-2] ^= 1
        flipped = data["fingerprints"][:-1] + [_digest([bytes(body)])]
        return [
            ("csv_bytes_identical", "one byte flipped in one pass", {**data, "fingerprints": flipped}),
            ("c_prime_binomial", "c' computed for n - 2", with_files(wrong_c_prime)),
            ("concurrence_fmax_state", "|u| scaled by 1 + 1e-3", with_files(scaled_u)),
            ("fidelity_from_fmax", "F scaled by 1 + 1e-3", with_files(scaled_f)),
            ("abs_u_vs_time_stepping", "|u| scaled by 1 + 1e-3", with_files(scaled_u)),
        ]


# ---------------------------------------------------------------------------
# time_stepping
# ---------------------------------------------------------------------------

class TimeStepping(Workload):
    """`solve_volterra` on the six reference (s, η0) pairs; the halving gate
    takes the strong-coupling grids to 12 000-24 000 steps and the weak ones
    to 8 000-32 000."""

    name = "time_stepping"
    # (s, eta0, t_max, steps)
    CONFIGS = tuple((s, 0.5, 150.0, 3000) for s in _S_REF) + tuple((s, 0.01, 400.0, 4000) for s in _S_REF)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.omega0 = _jitter(self.rng, 0.1, 0.02)
        self.grids = [TimeGrid.uniform(t, n) for _, _, t, n in self.CONFIGS]
        self.ops = [f"solve_volterra s={s:g} eta0={e:g}" for s, e, _, _ in self.CONFIGS]

    def inputs(self):
        return {"omega0": self.omega0, "configs": [list(c) for c in self.CONFIGS]}

    def run_pass(self):
        # looked up on the package at call time, so the tracer's wrapper is seen
        return [cohlab.solve_volterra(BathSpec(s, e), self.omega0, g)
                for (s, e, _, _), g in zip(self.CONFIGS, self.grids)]

    def fingerprint(self, outputs):
        return _digest(sol.u.tobytes() for sol in outputs)

    def prepare(self, outputs, fingerprints):
        cases = []
        for (s, e, _, _), g, sol in zip(self.CONFIGS, self.grids, outputs):
            lap = solve_laplace(BathSpec(s, e), self.omega0, g)
            cases.append({"s": s, "eta0": e, "u": sol.u, "u_laplace": lap.u,
                          "residues": [r for _, r in lap.poles]})
        return {"fingerprints": fingerprints, "cases": cases}

    def check_laplace(self, data):
        worst = max(float(np.max(np.abs(c["u"] - c["u_laplace"]))) for c in data["cases"])
        return _result(worst <= CROSS_ROUTE_TOL,
                       f"max |u - u_laplace| on the output times = {worst:.3e} (tol {CROSS_ROUTE_TOL:g})")

    def check_bounds(self, data):
        u0 = max(abs(c["u"][0] - 1.0) for c in data["cases"])
        top = max(float(np.max(np.abs(c["u"]))) for c in data["cases"])
        return _result(u0 == 0.0 and top <= 1.0 + 1e-9, f"max |u(0) - 1| = {u0:.3e}, max |u| - 1 = {top - 1.0:.3e} (tol 1e-9)")

    def check_plateau(self, data):
        parts, ok = [], True
        for c in data["cases"]:
            if c["eta0"] != 0.5:
                continue
            m = abs(sum(c["residues"]))
            au = np.abs(c["u"])
            late, mid = abs(au[-1] - m), abs(au[len(au) // 2] - m)
            ok &= late <= 1e-3 and late < mid
            parts.append(f"s={c['s']:g}: ||u(T)| - |Σres|| = {late:.2e} (T/2: {mid:.2e})")
        return _result(ok and len(parts) == 3, "; ".join(parts) + " (tol 1e-3, shrinking)")

    checks = {"outputs_identical": _check_identical, "u_vs_laplace": check_laplace,
              "u0_and_modulus_bound": check_bounds, "late_modulus_to_residues": check_plateau}

    def mutations(self, data):
        def cases(fn):
            return {**data, "cases": [fn(dict(c)) for c in data["cases"]]}

        def scaled(c):
            c["u"] = c["u"] * (1.0 + 1e-3)
            return c

        def drop_pole(c):
            c["residues"] = c["residues"][1:]
            return c

        wrong = data["fingerprints"][:-1] + [_digest([(data["cases"][0]["u"] * (1.0 + 1e-3)).tobytes()])]
        return [
            ("outputs_identical", "one pass's u scaled by 1 + 1e-3", {**data, "fingerprints": wrong}),
            ("u_vs_laplace", "|u| scaled by 1 + 1e-3", cases(scaled)),
            ("u0_and_modulus_bound", "|u| scaled by 1 + 1e-3", cases(scaled)),
            ("late_modulus_to_residues", "one pole dropped", cases(drop_pole)),
        ]


# ---------------------------------------------------------------------------
# off_reference
# ---------------------------------------------------------------------------

class OffReference(Workload):
    """`cohlab channel` (Laplace route) at s = 1.5 (η0 = 0.01) and s = 2
    (η0 = 0.5), with seed-drawn ω0 and α0.  s itself is not drawn: the
    cost of one solve moves by a factor of two, and not monotonically, as
    s moves between 1.25 and 2.5, and even swapping the two couplings moves
    a pass by 12%.  Two fixed operations at η0 = 1000 (s = 1, 3) fail every
    time: find_poles misses their pole."""

    name = "off_reference"
    GENERIC = ((1.5, 0.01), (2.0, 0.5))
    FAILING = ((1.0, 1000.0), (3.0, 1000.0))

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.omega0 = _jitter(self.rng, 0.1, 0.02)
        self.alpha0 = _jitter(self.rng, 1.2, 0.05)
        # (s, eta0, omega0, alpha0)
        self.cases = [(s, e, self.omega0, self.alpha0) for s, e in self.GENERIC]
        self.cases += [(s, e, 0.1, 1.2) for s, e in self.FAILING]
        self.ops = [f"channel s={s:g} eta0={e:g}" for s, e, _, _ in self.cases]

    def inputs(self):
        return {"cases": [list(c) for c in self.cases], "tmax": 1000.0, "out_points": 100}

    def _path(self, s, e):
        return os.path.join(self.out, f"channel_s{s:g}_eta{e:g}.csv")

    def run_pass(self):
        return [_cli(["channel", "--s", repr(s), "--eta0", repr(e), "--omega0", repr(w0),
                      "--alpha0", repr(a0), "--tmax", "1000", "--out-points", "100", "--out", self.out])
                for s, e, w0, a0 in self.cases]

    def fingerprint(self, outputs):
        chunks = []
        for s, e, _, _ in self.cases:
            with open(self._path(s, e), "rb") as fh:
                chunks.append(fh.read())
        return _digest(chunks)

    def prepare(self, outputs, fingerprints):
        per_op = []
        for (s, e, w0, a0), rc in zip(self.cases, outputs):
            hdr, cols = refs.read_csv(self._path(s, e))
            abs_u = refs.abs_u_from_pe(a0, cols["p_e"])
            rec = {"s": s, "eta0": e, "omega0": w0, "rc": rc, "t": cols["t"], "abs_u": abs_u,
                   "poles": find_poles(BathSpec(s, e), w0)}
            if (s, e) not in self.FAILING:
                sel = cols["t"] <= 200.0
                rec["sel"] = sel
                rec["abs_u_volterra"] = _volterra_abs_u(s, e, w0, cols["t"][sel])
            per_op.append(rec)
        y = np.geomspace(1e-6, 50.0, 200)
        s2 = next(c for c in self.cases if c[0] == 2.0)
        b_prog = imaginary_axis_denominator(BathSpec(2.0, s2[1]), s2[2], y)
        # the integral part ∫ x² e^{-x}/(x+y) dx, as the program computes it
        integral = (s2[2] + y - b_prog) / refs.eta_s(2.0, s2[1])
        return {"fingerprints": fingerprints, "ops": per_op,
                "s2": {"integral": integral, "ref": refs.s2_integral(y)}}

    def failed_ops(self, data):
        out = {}
        for label, rec in zip(self.ops, data["ops"]):
            want = 1 if refs.pole_expected(rec["s"], rec["eta0"], rec["omega0"]) else 0
            if rec["rc"] != 0:
                out[label] = f"cli.main exit code {rec['rc']}"
            elif len(rec["poles"]) != want:
                bound = refs.eta_s(rec["s"], rec["eta0"]) * math.gamma(rec["s"])
                out[label] = (f"propagator.find_poles returned {len(rec['poles'])} poles, but "
                              f"omega0/omega_c = {rec['omega0']:g} < eta_s Gamma(s) = {bound:.4g} "
                              f"requires {want}: the bound state is dropped and |u| decays to "
                              f"{rec['abs_u'][-1]:.1e} at t = {rec['t'][-1]:g}")
        return out

    def check_u(self, data):
        worst, n = 0.0, 0
        for rec in data["ops"]:
            if "sel" in rec:
                worst = max(worst, float(np.max(np.abs(rec["abs_u"][rec["sel"]] - rec["abs_u_volterra"]))))
                n += 1
        return _result(n == 2 and worst <= CROSS_ROUTE_TOL,
                       f"max ||u| - |u_volterra|| at t <= 200 = {worst:.3e} over {n} ops (tol {CROSS_ROUTE_TOL:g})")

    def check_s2(self, data):
        got, ref = data["s2"]["integral"], data["s2"]["ref"]
        worst = float(np.max(np.abs(got - ref) / np.abs(ref)))
        return _result(worst <= 1e-7, f"s=2 imaginary-axis integral vs 1 - y + y^2 e^y E1(y): max rel {worst:.3e} (tol 1e-7)")

    def check_poles(self, data):
        bad = sorted(self.failed_ops(data))
        expected = sorted(op for op, c in zip(self.ops, self.cases) if c[:2] in self.FAILING)
        return _result(bad == expected, f"operations failing the pole rule: {bad}")

    checks = {"csv_bytes_identical": _check_identical, "pole_count_rule": check_poles,
              "abs_u_vs_time_stepping": check_u, "s2_imaginary_axis_closed_form": check_s2}

    def mutations(self, data):
        def ops(fn):
            return {**data, "ops": [fn(dict(r)) for r in data["ops"]]}

        def drop_pole(r):
            r["poles"] = r["poles"][1:]
            return r

        def scaled(r):
            r["abs_u"] = r["abs_u"] * (1.0 + 1e-3)
            return r

        wrong = data["fingerprints"][:-1] + [_digest([data["ops"][0]["abs_u"].tobytes()])]
        s2 = {"integral": data["s2"]["integral"] * (1.0 + 1e-3), "ref": data["s2"]["ref"]}
        return [
            ("csv_bytes_identical", "one pass's CSV changed", {**data, "fingerprints": wrong}),
            ("pole_count_rule", "one pole dropped", ops(drop_pole)),
            ("abs_u_vs_time_stepping", "|u| scaled by 1 + 1e-3", ops(scaled)),
            ("s2_imaginary_axis_closed_form", "integral scaled by 1 + 1e-3", {**data, "s2": s2}),
        ]


WORKLOADS = {w.name: w for w in (FigureBundle, TimeStepping, OffReference)}
