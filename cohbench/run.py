"""cohlab benchmark harness.

One run measures one workload.  Untraced (--trace 0) it reports the
end-to-end metrics; traced (--trace 1) it alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.

    python3 cohbench/run.py --workload figure_bundle --seed 1 --seconds 20 --trace 0
    python3 cohbench/run.py --workload all --seed 1 --seconds 20     # 3 workloads x 2 runs

The load is a closed loop in this one process: each operation starts when
the previous one returns, and BLAS/OpenMP are pinned to one thread.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Run records and spans go to .cohbench_out/.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported, here and in every child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("COHLAB_THREADS", None)  # the program's own default

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".cohbench_out")
WORKLOADS = ("figure_bundle", "time_stepping", "off_reference")
SETUP_SPAWNS = 5
MIN_PASSES = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import cohlab, cohlab.cli; "
                "print(time.perf_counter() - t0)")


def measure_setup(n: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing cohlab and
    cohlab.cli, and median time of the import statement alone, over n
    spawns after one untimed spawn."""
    env = dict(os.environ, PYTHONPATH=SRC)
    walls, imports = [], []
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing cohlab failed:\n{proc.stderr}")
        if i:
            walls.append(wall)
            imports.append(float(proc.stdout.split()[-1]))
    return statistics.median(walls), statistics.median(imports)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "loadavg_at_start": list(os.getloadavg()),
    }


def per_layer(tracer, import_s: float, walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's total."""
    rows = []
    for k, counts in enumerate(tracer.counts):
        incl, own, layers = tracer.pass_times(k)
        idx = tracer.name_id
        t = lambda name: float(incl[idx[name]])  # noqa: E731
        calls = counts.get("solve_laplace.calls", 0)
        psp = counts.get("phase_success_prob.calls", 0)
        rows.append({
            "cli.write_csv.s": (t("cli.write_csv"), "s"),
            "cli.write_csv.bytes": (counts.get("write_csv.bytes", 0), "bytes"),
            "propagator.solve_laplace.calls": (calls, "count"),
            "propagator.solve_laplace.distinct_ratio":
                (counts["solve_laplace.distinct"] / calls if calls else 0.0, "ratio"),
            "propagator.solve_laplace.self_s": (float(own[idx["propagator.solve_laplace"]]), "s"),
            "propagator.solve_volterra.s": (t("propagator.solve_volterra"), "s"),
            "propagator.solve_volterra.calls": (counts.get("solve_volterra.calls", 0), "count"),
            "propagator.find_poles.s": (t("propagator.find_poles"), "s"),
            "fourier.build_panels.s": (t("_fourier.build_panels"), "s"),
            "fourier.panels": (counts.get("panels", 0), "count"),
            "fourier.fourier_integral.s": (t("_fourier.fourier_integral"), "s"),
            "fourier.panel_times": (counts.get("panel_times", 0), "count"),
            "bath.inversion_denominator.s": (t("bath.inversion_denominator"), "s"),
            "bath.inversion_denominator.points": (counts.get("inversion_denominator.points", 0), "count"),
            "bath.imaginary_axis_denominator.s": (t("bath.imaginary_axis_denominator"), "s"),
            "bath.imaginary_axis_denominator.points":
                (counts.get("imaginary_axis_denominator.points", 0), "count"),
            "bath.correlation.s": (t("bath.correlation"), "s"),
            "codes.phase_success_prob.s": (t("codes.phase_success_prob"), "s"),
            "codes.phase_success_prob.calls": (psp, "count"),
            "codes.phase_success_prob.calls_per_row":
                (psp / counts["phase_rows"] if counts.get("phase_rows") else 0.0, "ratio"),
            "codes.corrected_channel_metrics.s": (t("codes.corrected_channel_metrics"), "s"),
            "codes.bitflip_metrics.s": (t("codes.bitflip_metrics"), "s"),
            "channel.metrics_closed.s": (t("channel.metrics_closed"), "s"),
            **{f"{layer.lstrip('_')}.self_s": (float(v), "s") for layer, v in layers.items()},
        })
    out = {name: {"value": statistics.median(r[name][0] for r in rows), "unit": unit}
           for name, (_, unit) in rows[0].items()}
    out["import.s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": statistics.median(traced_walls) - statistics.median(walls),
                               "unit": "s"}
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    setup_s, import_s = measure_setup(SETUP_SPAWNS)

    sys.path.insert(0, SRC)
    import cohlab
    if os.path.dirname(os.path.abspath(cohlab.__file__)) != os.path.join(SRC, "cohlab"):
        raise RuntimeError(f"imported cohlab from {cohlab.__file__}, not from {SRC}")
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, os.path.join(OUT, name))
    tracer = tracing.Tracer() if trace else None

    outputs = wl.run_pass()  # warm-up, untimed
    fingerprints = [wl.fingerprint(outputs)]
    walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.begin_pass()
            t0 = time.perf_counter()
            outputs = wl.run_pass()
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_pass()
            (traced_walls if traced else walls).append(dt)
            fingerprints.append(wl.fingerprint(outputs))
        if time.perf_counter() - start >= seconds and len(walls) >= (2 if trace else MIN_PASSES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    data = wl.prepare(outputs, fingerprints)
    failed_ops = wl.failed_ops(data)
    checks = {c: fn(wl, data) for c, fn in wl.checks.items()}
    selftest = [{"check": c, "mutation": what, "rejected": not wl.checks[c](wl, bad)[0]}
                for c, what, bad in wl.mutations(data)]
    correct = all(ok for ok, _ in checks.values()) and all(s["rejected"] for s in selftest) \
        and {s["check"] for s in selftest} == set(wl.checks)

    passes = len(walls) + len(traced_walls)
    if trace:
        metrics = per_layer(tracer, import_s, walls, traced_walls)
        tracer.save(os.path.join(OUT, name, "spans.npz"))
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "inputs": wl.inputs(), "operations_per_pass": wl.ops,
        "pass_wall_s": walls, "traced_pass_wall_s": traced_walls,
        "checks": {c: {"ok": ok, "detail": d} for c, (ok, d) in checks.items()},
        "self_test": selftest, "failed_operations": failed_ops,
        "result": {"correct": correct, "attempted": passes * len(wl.ops),
                   "failed": passes * len(failed_ops), "metrics": metrics},
    }
    with open(os.path.join(OUT, name, f"run-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} loadavg={env['loadavg_at_start']}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    print("# pass wall s: " + " ".join(f"{w:.3f}" for w in record["pass_wall_s"])
          + ("  traced: " + " ".join(f"{w:.3f}" for w in record["traced_pass_wall_s"])
             if record["traced_pass_wall_s"] else ""))
    for c, r in record["checks"].items():
        print(f"# check {c}: {'PASS' if r['ok'] else 'FAIL'} - {r['detail']}")
    for s in record["self_test"]:
        print(f"# self-test {s['check']} ({s['mutation']}): {'rejected' if s['rejected'] else 'NOT REJECTED'}")
    for op, why in record["failed_operations"].items():
        print(f"# failed operation {op}: {why}")
    res = record["result"]
    print(f"# attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    for m, v in res["metrics"].items():
        print(f"# {m} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(res))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cohlab", "cli.py")):
        print(f"cohbench: no cohlab sources under {SRC}; run from a cohlab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    report(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
