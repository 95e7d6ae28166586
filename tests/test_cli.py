"""Command-line front end: config handling, CSV contracts, figure bundles."""

import importlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cohlab
from cohlab import cli, codes
from cohlab.propagator import PropagatorSolution, TimeGrid
from cohlab.cli import (
    ConfigError,
    RunConfig,
    _channel_table,
    _Solved,
    main,
    parse_config_file,
    resolve_config,
)


def load(path):
    header, columns, rows, footer = {}, None, [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                if columns is None:
                    k, _, v = line[2:].partition(" = ")
                    header[k] = v
                else:
                    footer.append(line[2:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, columns, np.array(rows), footer


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 3.0\neta0 = 0.5   # strong coupling\n\nn = 3\ncode = phase\n")
    values = parse_config_file(str(cfg))
    assert values == {"s": 3.0, "eta0": 0.5, "n": 3, "code": "phase"}


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("whatkey = 3\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(bad))
    bad.write_text("eta0 = not_a_number\n")
    with pytest.raises(ConfigError, match="field 'eta0'"):
        parse_config_file(str(bad))
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(str(bad))


def test_cli_overrides_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta0 = 0.5\nalpha0 = 0.9\n")
    ns = main.__globals__["build_parser"]().parse_args(
        ["channel", "--config", str(cfg), "--eta0", "0.25"])
    resolved = resolve_config(ns)
    assert resolved.eta0 == 0.25          # CLI wins
    assert resolved.alpha0 == 0.9         # file wins over default
    assert resolved.omega0 == 0.1         # default


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(code="phase", n=2)
    with pytest.raises(ConfigError):
        RunConfig(solver="magic")
    with pytest.raises(ConfigError):
        RunConfig(tmax=-1.0)


@pytest.mark.parametrize("field, bad", [("s", 0.0), ("s", -3.0), ("eta0", -1.0)])
def test_run_config_takes_the_bath_checks(field, bad):
    # s > 0 and η0 ≥ 0 are BathSpec's checks, raised as configuration errors
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: bad})


@pytest.mark.parametrize("line", ["omega_c = 2.0", "tmin_out = 0.01"])
def test_config_file_cannot_set_the_units(tmp_path, capsys, line):
    # frequencies are in units of ω_c and the log grid starts at min(0.1, tmax/10)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["channel", "--config", str(cfg), "--tmax", "10", "--out-points", "5",
                 "--out", str(out)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["channel", "--code", "phase", "--n", "1031"],
                                  ["channel", "--code", "phase", "--n", "4"],
                                  ["sweep", "--axis", "n", "--values", "3,1031", "--code", "phase"]])
def test_phase_code_n_is_a_config_error(tmp_path, capsys, argv):
    # the code's own limits, odd n ≤ 1029, refuse the run before any solve
    out = tmp_path / "out"
    assert main([*argv, "--tmax", "10", "--out-points", "5", "--out", str(out)]) == 2
    assert "configuration error: n must be" in capsys.readouterr().err
    assert not out.exists()


def test_log_output_needs_three_points(tmp_path, capsys):
    # two log-spaced rows would be t = 0 and t = 0.1, never tmax
    out = tmp_path / "out"
    assert main(["channel", "--tmax", "1000", "--out-points", "2", "--out", str(out)]) == 2
    assert "out_points" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="out_points"):
        RunConfig(out_points=2)
    assert main(["channel", "--tmax", "1000", "--out-points", "2", "--linear-out",
                 "--out", str(out)]) == 0
    _, _, rows, _ = load(out / "channel_s1_eta0.01.csv")
    assert rows[:, 0].tolist() == [0.0, 1000.0]


def test_negative_eta0_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["channel", "--eta0", "-1", "--tmax", "10", "--out-points", "5",
                 "--out", str(out)]) == 2
    assert "eta0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["s", "eta0", "omega0", "alpha0", "tmax"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_config_rejects_non_finite(field, bad):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        RunConfig(**{field: bad})


@pytest.mark.parametrize("flag, bad", [("--eta0", "nan"), ("--eta0", "inf"), ("--alpha0", "inf"),
                                       ("--omega0", "nan")])
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, flag, bad):
    out = tmp_path / "out"
    assert main(["channel", flag, bad, "--tmax", "10", "--out-points", "5",
                 "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "file"])
def test_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch, how):
    # an empty --out passed the configuration, ran the whole solve, then failed to make the
    # directory '' with exit 1
    monkeypatch.chdir(tmp_path)
    if how == "flag":
        argv = ["--out", ""]
    else:
        (tmp_path / "run.cfg").write_text("out =\n", encoding="utf-8")
        argv = ["--config", "run.cfg"]
    assert main(["channel", "--tmax", "10", "--out-points", "5", *argv]) == 2
    assert "parameter out" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ([] if how == "flag" else ["run.cfg"])
    with pytest.raises(ConfigError, match="out"):
        RunConfig(out="")


def test_propagator_free_evolution_column(tmp_path):
    rc = main(["propagator", "--out", str(tmp_path), "--eta0", "0",
               "--tmax", "50", "--points", "500", "--out-points", "40"])
    assert rc == 0
    header, columns, rows, _ = load(tmp_path / "propagator_s1_eta0.csv")
    assert columns[0] == "t" and "abs_u_laplace" in columns
    np.testing.assert_allclose(rows[:, columns.index("abs_u_laplace")], 1.0, atol=1e-12)
    assert header["eta0"] == "0.0"


def test_propagator_both_solvers_footer(tmp_path):
    rc = main(["propagator", "--out", str(tmp_path), "--solver", "both",
               "--eta0", "0.01", "--s", "1", "--tmax", "50",
               "--points", "2000", "--out-points", "50"])
    assert rc == 0
    _, columns, rows, footer = load(tmp_path / "propagator_s1_eta0.01.csv")
    assert any("max_solver_discrepancy" in f for f in footer)
    diff = float(footer[0].split("=")[1].split()[0])
    assert diff <= 1e-3
    iv, il = columns.index("abs_u_volterra"), columns.index("abs_u_laplace")
    np.testing.assert_allclose(rows[:, iv], rows[:, il], atol=1e-3)


@pytest.mark.parametrize("s, omega0, tol", [("3", "2", 1e-6), ("0.5", "1", 2e-6)])
def test_stepper_on_log_output_agrees_with_laplace(tmp_path, s, omega0, tol):
    # a cubic spline through the stepping grid read 1.33e-4 and 1.27e-5 off here; the finest
    # level's 6-point rule reads 1.6e-7 and 7.3e-7
    rc = main(["propagator", "--s", s, "--eta0", "0.5", "--omega0", omega0, "--tmax", "50",
               "--points", "500", "--out-points", "200", "--solver", "both", "--out", str(tmp_path)])
    assert rc == 0
    footer = load(tmp_path / f"propagator_s{s}_eta0.5.csv")[3]
    assert float(footer[0].split(" = ")[1].split()[0]) <= tol


def test_csv_byte_determinism(tmp_path):
    # identical resolved config (the out directory is part of it) -> identical bytes
    args = ["channel", "--eta0", "0.5", "--s", "0.5", "--tmax", "100",
            "--out-points", "30", "--out", str(tmp_path)]
    target = tmp_path / "channel_s0.5_eta0.5.csv"
    assert main(args) == 0
    f1 = target.read_bytes()
    target.unlink()
    assert main(args) == 0
    assert target.read_bytes() == f1


def test_channel_t0_row_closed_forms(tmp_path):
    rc = main(["channel", "--out", str(tmp_path), "--eta0", "0.01",
               "--tmax", "100", "--out-points", "20"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "channel_s1_eta0.01.csv")
    t0 = rows[0]
    assert t0[columns.index("t")] == 0.0
    assert abs(t0[columns.index("concurrence")] - math.tanh(2 * 1.44)) < 1e-12
    f0 = 1.0 / (1.0 + math.exp(-4 * 1.44))
    assert abs(t0[columns.index("fidelity")] - (2 * f0 + 1) / 3) < 1e-12
    assert abs(t0[columns.index("p_e")]) < 1e-12   # u(0) carries ~1e-16 quadrature fuzz


def test_channel_code_columns(tmp_path):
    rc = main(["channel", "--out", str(tmp_path), "--eta0", "0.5", "--s", "3",
               "--code", "phase", "--n", "3", "--tmax", "1000", "--out-points", "50"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "channel_s3_eta0.5_phase3.csv")
    assert columns[-1] == "c_prime"
    # long-time plateau reproduces the reference values
    assert abs(rows[-1][columns.index("concurrence")] - 0.237) < 0.02
    assert abs(rows[-1][columns.index("fidelity")] - 0.747) < 0.01

    rc = main(["channel", "--out", str(tmp_path), "--eta0", "0.5", "--s", "3",
               "--code", "bit", "--n", "6", "--tmax", "100", "--out-points", "30"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "channel_s3_eta0.5_bit6.csv")
    assert columns[-1] == "p_e_n"
    assert np.all(rows[1:, columns.index("p_e_n")] >= rows[1:, columns.index("p_e")] - 1e-15)


def test_figure_1a_1b_spectral_bundles(tmp_path):
    assert main(["figure", "--id", "1b", "--out", str(tmp_path)]) == 0
    peaks = []
    for s in ("0.5", "1", "3"):
        _, columns, rows, _ = load(tmp_path / f"figure1b_J_s{s}.csv")
        peaks.append(rows[:, 1].max())
    # scaled coupling: common peak height 2π η0 ωc (grid-resolution limited)
    np.testing.assert_allclose(peaks, 2 * np.pi * 0.5, rtol=1e-3)
    assert main(["figure", "--id", "1a", "--out", str(tmp_path)]) == 0
    _, _, rows_low, _ = load(tmp_path / "figure1a_J_s0.5.csv")
    _, _, rows_high, _ = load(tmp_path / "figure1a_J_s3.csv")
    # unscaled coupling: peak heights genuinely differ
    assert abs(rows_low[:, 1].max() - rows_high[:, 1].max()) > 0.5
    assert (tmp_path / "figure1a_recipe.txt").exists()


def test_figure_2a_bundle(tmp_path):
    assert main(["figure", "--id", "2a", "--out", str(tmp_path)]) == 0
    recipe = (tmp_path / "figure2a_recipe.txt").read_text()
    for s in ("0.5", "1", "3"):
        assert f"figure2a_u_s{s}_eta0.01.csv" in recipe
    _, columns, rows, _ = load(tmp_path / "figure2a_u_s1_eta0.01.csv")
    m = rows[:, columns.index("abs_u_laplace")]
    assert np.all(np.diff(m) <= 1e-7)     # weak coupling: monotone decay


def test_phase_code_c_prime_once_per_curve(tmp_path, monkeypatch):
    sizes = []
    original = codes.phase_success_prob

    def counting(n, p_e):
        sizes.append(np.size(p_e))
        return original(n, p_e)

    monkeypatch.setattr(codes, "phase_success_prob", counting)
    assert main(["sweep", "--axis", "n", "--values", "1,3,9", "--code", "phase",
                 "--eta0", "0.5", "--s", "3", "--tmax", "100", "--out-points", "20",
                 "--out", str(tmp_path)]) == 0
    assert sizes == [20, 20, 20]          # one array call per curve, none per row
    _, columns, rows, _ = load(tmp_path / "sweep_n.csv")
    for n in (1, 3, 9):
        sel = rows[rows[:, 0] == n]
        np.testing.assert_array_equal(sel[:, columns.index("c_prime")],
                                      codes.corrected_c(n, sel[:, columns.index("p_e")]))


@pytest.mark.parametrize("argv, solves", [
    (["figure", "--id", "3"], 6),
    (["figure", "--id", "4"], 3),
    (["figure", "--id", "5"], 3),
    (["figure", "--id", "6"], 3),
    (["sweep", "--axis", "n", "--values", "1,3,5,9", "--code", "phase", "--eta0", "0.5"], 1),
    (["sweep", "--axis", "alpha0", "--values", "0.6,1.2", "--tmax", "100"], 1),
    (["sweep", "--axis", "eta0", "--values", "0.01,0.5,0.01", "--tmax", "100"], 2),
], ids=["figure-3", "figure-4", "figure-5", "figure-6", "sweep-n", "sweep-alpha0", "sweep-eta0"])
def test_each_distinct_propagator_solved_once(tmp_path, monkeypatch, argv, solves):
    calls = []
    original = cli.solve_laplace

    def counting(spec, omega0, grid, **kw):
        calls.append(spec)
        return original(spec, omega0, grid, **kw)

    monkeypatch.setattr(cli, "solve_laplace", counting)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == solves
    # and again: nothing is remembered between calls
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * solves


def test_channel_rows_clamp_u_above_one():
    grid = TimeGrid.uniform(1.0, 3)
    u = np.array([1.0 + 1e-10, (1.0 + 2e-9) * np.exp(0.3j), 0.8j, 0.5])
    clamped = np.array([1.0, np.exp(0.3j), 0.8j, 0.5])
    for cfg in (RunConfig(), RunConfig(code="phase", n=101), RunConfig(code="bit", n=6)):
        _, cols = _channel_table(cfg, _Solved(grid, {"laplace": PropagatorSolution(grid, u)}, [], True))
        _, want = _channel_table(cfg, _Solved(grid, {"laplace": PropagatorSolution(grid, clamped)},
                                              [], True))
        np.testing.assert_allclose(cols, want, rtol=0, atol=1e-15)
        assert cols[4][0] == 0.0          # p_e at |u| = 1


def test_write_csv_formats(tmp_path):
    # '%d' for int columns, '%.17g' for the rest: the same bytes as str(int)
    # and f"{x:.17g}" per value
    rows = [[3, 0.1, 1.0, np.float64(2.5)], [np.int64(5), 1e-300, -0.0, np.float64(np.pi)]]
    columns = [np.array([r[i] for r in rows]) for i in range(4)]
    assert columns[0].dtype.kind == "i"
    (lines,) = cli._csv_lines([columns])
    # the same columns twice: each is formatted once, by _cells, to the same cells
    assert list(cli._csv_lines([columns, columns])) == [lines, lines]
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), [("k", "'v'")], ["n", "x", "y", "z"], lines, ["foot = 1"])
    body = [f"{r[0]:d}," + ",".join(f"{float(x):.17g}" for x in r[1:]) for r in rows]
    assert path.read_text() == "\n".join(["# k = 'v'", "n,x,y,z", *body, "# foot = 1"]) + "\n"
    assert body[0] == "3,0.10000000000000001,1,2.5"


@pytest.mark.parametrize("fig_id", ["2a", "3", "4", "6"])
def test_recurring_columns_write_what_each_curve_writes_alone(tmp_path, fig_id):
    # a figure formats a column that recurs among its CSVs (t, and p_e across the
    # codes of one curve) once; each CSV must still hold the bytes that the
    # one-curve command writes for its configuration
    assert main(["figure", "--id", fig_id, "--out-points", "6", "--out", str(tmp_path)]) == 0
    kind, curves, _ = cli._FIGURES[fig_id]
    command = "propagator" if kind == "u" else "channel"
    for o in curves:
        flags = [x for k, v in o.items() for x in (f"--{k}", str(v))]
        assert main([command, *flags, "--out-points", "6", "--out", str(tmp_path)]) == 0
        tag = "" if kind == "u" or o["code"] == "none" else f"_{o['code']}{o['n']}"
        name = f"s{o['s']:g}_eta{o['eta0']:g}{tag}.csv"
        figure = tmp_path / f"figure{fig_id}_{'u_' if kind == 'u' else ''}{name}"
        assert figure.read_bytes() == (tmp_path / f"{command}_{name}").read_bytes()


def test_sweep_rows_write_what_each_value_writes_alone(tmp_path):
    # t and p_e recur across the values of an n sweep; each value's rows must
    # still be the one-curve command's rows behind the value
    assert main(["sweep", "--axis", "n", "--values", "1,3,9", "--code", "phase", "--eta0", "0.5",
                 "--out-points", "6", "--out", str(tmp_path)]) == 0

    def body(name):
        return [x for x in (tmp_path / name).read_text().splitlines() if not x.startswith("#")][1:]

    rows = body("sweep_n.csv")
    for n in ("1", "3", "9"):
        assert main(["channel", "--code", "phase", "--n", n, "--eta0", "0.5", "--out-points", "6",
                     "--out", str(tmp_path)]) == 0
        assert [r for r in rows if r.split(",")[0] == n] == \
            [f"{n},{r}" for r in body(f"channel_s1_eta0.5_phase{n}.csv")]


def test_formatted_columns_live_for_one_command(tmp_path, monkeypatch):
    # figure 4 at α0 = 0.9, at 1.2, then at 0.9 again in one process: each
    # command formats every column of its CSVs itself, each distinct one once
    # (t once, p_e once per s), the three make the same number of calls, and
    # the last writes what the first wrote, so no formatted column is carried
    # from one command to the next
    formatted = []
    original = cli._cells

    def counting(column):
        formatted[-1].append(column.tobytes())
        return original(column)

    monkeypatch.setattr(cli, "_cells", counting)
    for a0, out in (("0.9", "a"), ("1.2", "b"), ("0.9", "c")):
        formatted.append([])
        assert main(["figure", "--id", "4", "--alpha0", a0, "--out-points", "7",
                     "--out", str(tmp_path / out)]) == 0
    assert len({len(calls) for calls in formatted}) == 1
    for calls, out in zip(formatted, ("a", "b", "c")):
        assert len(set(calls)) == len(calls)
        for path in (tmp_path / out).glob("*.csv"):
            _, columns, rows, _ = load(path)
            assert len(rows) == 7
            for j in range(len(columns)):
                assert calls.count(rows[:, j].tobytes()) == 1
    for name in sorted(os.listdir(tmp_path / "a")):
        first, again = ((tmp_path / d / name).read_text().splitlines() for d in ("a", "c"))
        assert [x for x in first if not x.startswith("# out = ")] == \
            [x for x in again if not x.startswith("# out = ")]
        if name.endswith(".csv"):
            p_e = [load(tmp_path / d / name) for d in ("a", "b")]
            col = p_e[0][1].index("p_e")
            assert not np.array_equal(p_e[0][2][1:, col], p_e[1][2][1:, col])


def test_sweep_alpha0_t0_concurrence(tmp_path):
    rc = main(["sweep", "--axis", "alpha0", "--values", "0.6,1.2,2.0",
               "--out", str(tmp_path), "--eta0", "0.01", "--tmax", "100",
               "--out-points", "12"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "sweep_alpha0.csv")
    for a0 in (0.6, 1.2, 2.0):
        sel = rows[(rows[:, 0] == a0) & (rows[:, 1] == 0.0)]
        assert abs(sel[0][columns.index("concurrence")] - math.tanh(2 * a0 * a0)) < 1e-12


@pytest.mark.parametrize("axis, values, want", [("eta0", "0.01,0.5", "[0.01, 0.5]"),
                                                ("alpha0", "0.6,2", "[0.6, 2.0]"),
                                                ("n", "1,3", "[1, 3]")])
def test_sweep_header_gives_swept_values(tmp_path, axis, values, want):
    # the axis field's header line names the values the rows were solved at,
    # not the base configuration's value; every other field is the base's
    assert main(["sweep", "--axis", axis, "--values", values, "--code", "bit",
                 "--tmax", "1", "--points", "200", "--out-points", "5",
                 "--out", str(tmp_path)]) == 0
    header, _, _, _ = load(tmp_path / f"sweep_{axis}.csv")
    assert header[axis] == want
    base = dict(RunConfig(code="bit", tmax=1.0, points=200, out_points=5,
                          out=str(tmp_path)).header_items())
    assert {k: v for k, v in header.items() if k != axis} == \
        {k: v for k, v in base.items() if k != axis}


def test_sweep_eta0_zero_constant_concurrence(tmp_path):
    rc = main(["sweep", "--axis", "eta0", "--values", "0",
               "--out", str(tmp_path), "--tmax", "100", "--out-points", "15"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "sweep_eta0.csv")
    c = rows[:, columns.index("concurrence")]
    np.testing.assert_allclose(c, math.tanh(2 * 1.44), atol=1e-9)


def test_sweep_n_terminal_fidelity_increases(tmp_path):
    rc = main(["sweep", "--axis", "n", "--values", "1,3,5,9",
               "--out", str(tmp_path), "--eta0", "0.5", "--s", "3",
               "--code", "phase", "--tmax", "1000", "--out-points", "20"])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "sweep_n.csv")
    terminal = [rows[rows[:, 0] == n][-1][columns.index("fidelity")] for n in (1, 3, 5, 9)]
    assert all(b > a for a, b in zip(terminal, terminal[1:]))


def test_exit_codes(tmp_path, capsys):
    assert main(["figure", "--id", "1a", "--out",
                 str(tmp_path), "--s", "-3"]) == 2      # config error
    assert main(["sweep", "--axis", "eta0", "--values", "",
                 "--out", str(tmp_path)]) == 2


def test_bath_limits_exit_2_and_s_150_runs(tmp_path, capsys):
    # past s = 170.62 Γ(s+1) overflows, and at s = 170.5 the default η0 = 0.01 gives a
    # subnormal η_s: both are configuration errors, where the solvers failed with exit 1
    assert main(["channel", "--s", "200.5", "--out", str(tmp_path)]) == 2
    assert "at most 170.62" in capsys.readouterr().err
    assert main(["channel", "--s", "170.5", "--out", str(tmp_path)]) == 2
    assert "smallest normal float" in capsys.readouterr().err
    assert main(["sweep", "--axis", "s", "--values", "1,200.5", "--out", str(tmp_path)]) == 2
    assert main(["channel", "--s", "150.5", "--eta0", "0.5", "--tmax", "50", "--out-points", "20",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, rc", [
    (["sweep", "--axis", "n", "--values", "3,1031", "--code", "phase"], 2),
    (["sweep", "--axis", "s", "--values", "1,200.5"], 2),
    (["propagator", "--s", "9.5", "--eta0", "0.01", "--tmax", "50", "--out-points", "20"], 1),
])
def test_command_that_writes_no_csv_leaves_no_directory(tmp_path, argv, rc):
    # a sweep value refused by its config, or a solve that fails (a resonance too narrow to
    # resolve), before any CSV: the --out directory is made only by the first CSV written
    out = tmp_path / "fresh" / "out"
    assert main([*argv, "--out", str(out)]) == rc
    assert not (tmp_path / "fresh").exists()


def test_mode_past_the_branch_cut_window_exits_1(tmp_path, capsys):
    # the branch-cut integral stops at omega = 50: the resonance near omega0 = 100 was
    # left out, and u came out wrong by about 1 with no error
    out = tmp_path / "fresh"
    assert main(["channel", "--s", "1", "--eta0", "0.01", "--omega0", "100", "--tmax", "2",
                 "--out", str(out)]) == 1
    assert "window [0, 50]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fig_id, curves", [("3", 6), ("4", 3)])
def test_figure_with_the_long_horizon_steps_under_both_solvers(tmp_path, fig_id, curves):
    # the 10^4 horizon comes with 2 x 10^5 steps: with the default 2 x 10^4 the stepper
    # started at h = 0.5 and its halving gate gave up (exit 1)
    assert main(["figure", "--id", fig_id, "--solver", "both", "--out", str(tmp_path)]) == 0
    footers = set()
    for path in tmp_path.glob(f"figure{fig_id}_*.csv"):
        header, _, _, footer = load(path)
        assert int(header["points"]) == (200000 if float(header["tmax"]) == 10000.0 else 20000)
        footers.update(line for line in footer if line.startswith("max_solver_discrepancy = "))
    assert len(footers) == curves
    assert all(float(line.split()[2]) < 1e-5 for line in footers)


@pytest.mark.filterwarnings("error")
def test_stepper_limit_exits_2(tmp_path, capsys):
    # past s = 107.81 the stepper's kernel modes overflow: a configuration error for the
    # solvers that step, where it exited 1 on a NaN gate or a math range error
    for s in ("108", "150", "170"):
        for solver in ("volterra", "both"):
            assert main(["propagator", "--s", s, "--eta0", "0.5", "--solver", solver, "--tmax", "10",
                         "--points", "200", "--out", str(tmp_path)]) == 2
            assert "at most 107.81 for the time stepper" in capsys.readouterr().err
    assert RunConfig(s=107.81, solver="volterra").s == 107.81


# all four commands, --config, --linear-out, and flags left unset
_ARGVS = [["propagator", "--s", "0.5", "--solver", "both", "--linear-out"],
          ["channel", "--eta0", "0.5", "--code", "phase", "--n", "3", "--out-points", "20"],
          ["figure", "--id", "2a", "--config", "run.cfg", "--tmax", "50"],
          ["sweep", "--axis", "n", "--values", "1,3", "--out", "x"],
          ["channel"]]


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # the parser is built once per process; every parse must still read as
    # one by a parser of its own
    assert cli.build_parser() is cli.build_parser()
    want = [vars(cli.build_parser.__wrapped__().parse_args(a)) for a in _ARGVS]

    def check():
        for i in [*range(len(_ARGVS)), *reversed(range(len(_ARGVS)))]:
            assert vars(cli.build_parser().parse_args(_ARGVS[i])) == want[i]

    check()
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["figure", "--id", "99"])
    check()
    assert main(["channel", "--s", "-3", "--out", str(tmp_path)]) == 2  # ConfigError
    check()


@pytest.mark.parametrize("layer", ["cli", "propagator", "_fourier", "bath", "codes", "channel"])
def test_traced_functions_are_not_wrapped(layer):
    # cohbench's tracer skips an attribute with __wrapped__, so a functools
    # decorator on one of these would read 0 in that layer's metrics
    mod = importlib.import_module(f"cohlab.{layer}")
    names = [*mod.__all__, *(["write_csv"] if layer == "cli" else [])]
    assert [n for n in names if hasattr(getattr(mod, n), "__wrapped__")] == []


@pytest.mark.parametrize("axis, values", [("eta0", "1,x"), ("n", "2.7"), ("n", "1,inf"),
                                          ("eta0", "0.5,nan")])
def test_sweep_bad_values_are_config_errors(tmp_path, capsys, axis, values):
    assert main(["sweep", "--axis", axis, "--values", values, "--tmax", "10",
                 "--out-points", "5", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / f"sweep_{axis}.csv").exists()


@pytest.mark.parametrize("values, s, tmax, rc", [
    ("0.01,0.5", "1", "50", 0),
    # two undamped polaritons the Laplace route misses: off by 0.999
    ("1000", "1", "0.5", 1),
], ids=["agree", "eta0-1000"])
def test_sweep_both_solvers_footer_and_gate(tmp_path, values, s, tmax, rc):
    assert main(["sweep", "--axis", "eta0", "--values", values, "--s", s, "--solver", "both",
                 "--tmax", tmax, "--points", "2000", "--out-points", "20",
                 "--out", str(tmp_path)]) == rc
    _, _, rows, footer = load(tmp_path / "sweep_eta0.csv")
    assert len(rows) == 20 * len(values.split(","))
    # per value: the discrepancy, then the laplace and volterra diagnostics
    assert [[f.split(": ")[0], f.split(": ")[1].split(" = ")[0]] for f in footer] == [
        [f"eta0 = {float(v)!r}", line] for v in values.split(",")
        for line in ("max_solver_discrepancy", "laplace", "volterra")]
    diffs = [float(f.split("max_solver_discrepancy = ")[1].split()[0]) for f in footer[0::3]]
    assert all((d <= cli.CROSS_SOLVER_TOL) == (rc == 0) for d in diffs)
    # the missed bound states show as the sum rule u(0) = 1 failing
    deltas = [float(f.split("sum_rule_delta = ")[1]) for f in footer[1::3]]
    assert all((d > 0.99) == (rc == 1) for d in deltas)


def test_cross_solver_check_once_per_solve(tmp_path, monkeypatch):
    # 6 curves, 2 propagators: each solve's footer line goes to its 3 CSVs
    solves = []
    original = cli._solve_u
    monkeypatch.setattr(cli, "_solve_u", lambda cfg, grid: solves.append(cfg.s) or original(cfg, grid))
    base = RunConfig(solver="both", tmax=50.0, points=2000, out_points=20, out=str(tmp_path))
    cfgs = [replace(base, s=s, code=code, n=n) for s in (1.0, 3.0)
            for code, n in (("none", 1), ("phase", 3), ("bit", 6))]
    paths, ok = cli._write_curves("channel", "x_", cfgs)
    assert ok and sorted(solves) == [1.0, 3.0]
    for s in ("1", "3"):
        footers = {tuple(load(p)[3]) for p in paths if f"_s{s}_" in p}
        assert len(footers) == 1 and "max_solver_discrepancy" in footers.pop()[0]


def test_sweep_even_bit_code_large_amplitude(tmp_path):
    rc = main(["sweep", "--axis", "alpha0", "--values", "2.0", "--code", "bit", "--n", "6",
               "--eta0", "0.5", "--tmax", "100", "--out-points", "10", "--out", str(tmp_path)])
    assert rc == 0
    _, columns, rows, _ = load(tmp_path / "sweep_alpha0.csv")
    assert rows[0][columns.index("f_max")] <= 1.0


@pytest.mark.parametrize("argv, csv", [
    (["propagator", "--solver", "both", "--tmax", "50", "--points", "2000", "--out-points", "20"],
     "propagator_s1_eta0.01.csv"),
    (["channel", "--tmax", "100", "--out-points", "20"], "channel_s1_eta0.01.csv"),
    (["figure", "--id", "2a"], "figure2a_u_s3_eta0.01.csv"),
], ids=["propagator", "channel", "figure"])
def test_solver_diagnostics_footer(tmp_path, argv, csv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    first = (tmp_path / csv).read_bytes()
    footer = load(tmp_path / csv)[3]
    methods = ["laplace", "volterra"] if "both" in argv else ["laplace"]
    lines = [f for f in footer if not f.startswith("max_solver_discrepancy")]
    assert [f.split(": ")[0] for f in lines] == methods
    keys = {"laplace": ["panels", "worst_tail", "sum_rule_delta"],
            "volterra": ["refinements", "h_final", "halving_delta", "interp_delta", "modes", "fit_bound"]}
    for m, line in zip(methods, lines):
        items = [kv.split(" = ") for kv in line.split(": ")[1].split(", ")]
        assert [k for k, _ in items] == keys[m]
        assert all(float(v) >= 0.0 for _, v in items)
    assert float(lines[0].split("sum_rule_delta = ")[1]) <= 1e-9
    # the diagnostics are deterministic: a second run writes the same bytes
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / csv).read_bytes() == first


def test_import_leaves_out_heavy_scipy_subpackages():
    # a fresh `import cohlab, cohlab.cli` needs numpy only: no scipy module at all
    code = "import sys, cohlab, cohlab.cli; print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_default_figure_leaves_out_scipy(tmp_path):
    # the Laplace route of a whole figure runs on numpy alone, so no lazy
    # scipy import moves the import cost into the first pass
    code = ("import sys; from cohlab import cli; "
            f"assert cli.main(['figure', '--id', '4', '--out', {str(tmp_path)!r}]) == 0; "
            "print('done', *[m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-1:] == ["done"]
    assert len(list(tmp_path.glob("figure4_*.csv"))) == 12


def test_stepping_command_leaves_out_scipy(tmp_path):
    # the stepper answers at log-spaced output times itself: no spline, no scipy module
    code = ("import sys; from cohlab import cli; "
            "code = cli.main(['channel', '--s', '1', '--eta0', '0.5', '--tmax', '100', '--points', '2000', "
            f"'--out-points', '50', '--solver', 'volterra', '--out', {str(tmp_path)!r}]); "
            "print(code, *[m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1].split() == ["0"]  # the CSV path is printed first


def test_first_solve_leaves_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; no solve may pay that in a fresh process
    code = ("import sys; from cohlab import cli; "
            "code = cli.main(['channel', '--s', '2', '--eta0', '0.5', '--tmax', '50', '--out-points', '20', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]  # after the CSV path main prints
