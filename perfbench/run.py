"""medrule benchmark: one workload per process, closed loop, one caller.

Run from the root of a medrule checkout:

    python3 perfbench/run.py --workload small-stack --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

The process pins BLAS/OpenMP to one thread before numpy is imported, makes
its inputs from ``--seed``, repeats the workload's iteration until
``--seconds`` of iteration time have passed, gates every output against the
exact-enumeration oracle, and prints one JSON result as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced iterations on
the same inputs; it prints the per-layer table and writes its spans to
``perfbench/.work/``. ``--smoke`` runs every workload once on tiny inputs in
fresh processes and checks that every metric named in BENCHMARK.json is
emitted. See WORKLOADS.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
REF_SCALE = 3  # the reference timed around each iteration and set-up, ~0.1 s
# host_reference(REF_SCALE) on the host the benchmark was tuned on (2-core
# x86-64); setup_s is given in seconds of that host
REF_NOMINAL_S = 0.12

# Per-layer spans: (span name, report self time). Self time is reported for
# layers whose span can enclose other spans.
LAYERS = (
    ("cli.main", True),
    ("report.run_pipeline", True),
    ("data.read_csv", False),
    ("data.validate_dataset", False),
    ("data.write_csv", False),
    ("crossfit.make_plan", False),
    ("eif.fit_nuisances", True),
    ("eif.pseudo_contrast", False),
    ("learners.fit_stack", True),
    ("learners.mean.fit", False),
    ("learners.glm.fit", False),
    ("learners.glm_sat.fit", False),
    ("learners.lasso.fit", False),
    ("learners.ridge.fit", False),
    ("learners.predict", True),
    ("learners.fit_adaptive_lasso", True),
    ("subgroup.fit_blip.stack", True),
    ("subgroup.fit_blip.adaptive-lasso", True),
    ("subgroup.assign_subgroup", True),
    ("effects.effect_table", True),
    ("effects.estimate_effect", False),
    ("report.write_artifacts", True),
    ("oracle.simulate", True),
    ("oracle.true_population_effects", False),
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_PINS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter that imports medrule."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import medrule"], env=child_env(root),
                   check=True)
    return time.perf_counter() - t0


def host_reference(scale: int = 10) -> float:
    """A fixed pure-Python plus numpy kernel (~0.04 s per unit of scale), to
    tell a slow host from a slow program: ``scale`` times the median time of
    one unit, so that a stall in one unit does not count."""
    import numpy as np

    rng = np.random.default_rng(0)
    units = []
    for _ in range(scale):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        a = rng.standard_normal((300, 300))
        for _ in range(3):
            a = np.tanh(a @ a.T / 300.0)
        np.sort(rng.standard_normal(100_000))
        units.append(time.perf_counter() - t0)
    return scale * statistics.median(units)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_pins": {var: os.environ.get(var) for var in BLAS_PINS}}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile. Below 21 samples no such percentile reaches the median, and
    the median is returned instead."""
    if len(values) < 21:
        return statistics.median(values), 50.0
    v = sorted(values)
    return v[-11], 100.0 * (len(v) - 10) / len(v)


class Loop:
    """Closed-loop runner: iterations until the time budget is spent.

    Untraced runs time the host reference kernel before the first iteration
    and after each one, so each iteration has a reference on both sides.
    """

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.walls, self.cpus, self.traced_walls = [], [], []
        self.refs: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def _one(self, i: int, traced: bool) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with self.tracer, self.tracer.span("bench.iteration"):
                    self.workload.iteration(i)
            else:
                self.workload.iteration(i)
            errors = []
        except Exception as exc:  # noqa: BLE001 - a failed iteration is counted
            errors = [f"iteration {i}: {type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
            if self.tracer is None:
                self.refs.append(host_reference(REF_SCALE))
        if not errors:
            errors = self.workload.check(i)
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors

    def run(self) -> None:
        if self.tracer is None:
            self.refs.append(host_reference(REF_SCALE))
        i = 0
        while i == 0 or sum(self.walls) + sum(self.traced_walls) < self.seconds:
            if self.tracer is None:
                self._one(i, traced=False)
            else:
                # same inputs both ways; alternate which goes first
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self._one(i, traced)
            i += 1


    def in_refs(self, values: list[float]) -> list[float]:
        """Each iteration's value over the mean reference time around it."""
        return [v * 2.0 / (self.refs[i] + self.refs[i + 1])
                for i, v in enumerate(values)]


def end_to_end(loop: Loop, workload, setup_s: float, peak_rss_mb: float) -> dict:
    walls = loop.in_refs(loop.walls)
    return {
        "rows_per_ref": (workload.rows * len(walls) / sum(walls), "1/ref"),
        "replicate_p50_ref": (statistics.median(walls), "ref"),
        "replicate_tail_ref": (tail(walls)[0], "ref"),
        "cpu_ref": (statistics.median(loop.in_refs(loop.cpus)), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def seconds_summary(loop: Loop, workload) -> dict:
    """The same figures in seconds, for the info line."""
    p_tail, pct = tail(loop.walls)
    return {"rows_per_s": workload.rows * len(loop.walls) / sum(loop.walls),
            "replicate_p50_s": statistics.median(loop.walls),
            "replicate_tail_s": p_tail, "tail_percentile": pct,
            "cpu_s": statistics.median(loop.cpus),
            "ref_p50_s": statistics.median(loop.refs) if loop.refs else None}


def per_layer(loop: Loop, tracer, host_ref_s: float) -> dict:
    iters = len(loop.traced_walls)
    table = tracer.layer_table()
    out = {}
    for name, with_self in LAYERS:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / iters, "count")
        out[f"{name}.s"] = (row["s"] / iters, "s")
        if with_self:
            out[f"{name}.self_s"] = (row["self_s"] / iters, "s")
    out["data.write_csv.bytes"] = (tracer.counters.get("write_csv.bytes", 0) / iters, "bytes")
    refits = tracer.counters.get("stack.refits", 0)
    out["learners.stack.zero_weight_refit_frac"] = (
        tracer.counters.get("stack.zero_weight_refits", 0) / refits if refits else 0.0,
        "fraction")
    out["learners.stack.dropped"] = (tracer.counters.get("stack.dropped", 0) / iters, "count")
    bench = table["bench.iteration"]
    out["trace.unaccounted_s"] = (bench["self_s"] / iters, "s")
    out["trace.unaccounted_frac"] = (bench["self_s"] / bench["s"], "fraction")
    out["trace.overhead_frac"] = (
        statistics.median(loop.traced_walls) / statistics.median(loop.walls) - 1.0,
        "fraction")
    out["host.ref_s"] = (host_ref_s, "s")
    return out


def print_layer_table(metrics: dict, tracer, iteration_s: float) -> None:
    print(f"per-layer time per traced iteration (iteration wall {iteration_s:.3f} s)")
    print(f"{'layer':38s} {'calls':>9s} {'s':>9s} {'self_s':>9s} {'self%':>6s}")
    rows = []
    for name, with_self in LAYERS:
        s = metrics[f"{name}.s"][0]
        self_s = metrics[f"{name}.self_s"][0] if with_self else s
        rows.append((self_s, name, metrics[f"{name}.calls"][0], s))
    for self_s, name, calls, s in sorted(rows, reverse=True):
        if calls:
            print(f"{name:38s} {calls:9.1f} {s:9.3f} {self_s:9.3f} "
                  f"{100 * self_s / iteration_s:5.1f}%")
    for key in ("trace.unaccounted_s", "trace.unaccounted_frac", "trace.overhead_frac"):
        print(f"{key:38s} {metrics[key][0]:.4f}")
    print("learner self time by calling layer (s per traced iteration):")
    iters = sum(1 for s in tracer.spans if s.name == "bench.iteration")
    for name, callers in sorted(tracer.by_caller().items()):
        parts = ", ".join(f"{c} {v / iters:.3f}" for c, v in sorted(callers.items()))
        print(f"  {name}: {parts}")


def run_workload(args, root: Path) -> int:
    for var in BLAS_PINS:
        os.environ[var] = "1"  # before numpy is first imported
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import resource

    import medrule
    from tracer import Tracer
    from workloads import make_workload

    if Path(medrule.__file__).resolve().parent != (root / "src" / "medrule").resolve():
        print(f"error: imported medrule from {medrule.__file__}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, tiny=args.tiny)
    work = HERE / ".work"
    workdir = work / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    info = {"workload": args.workload, "seed": args.seed, **environment()}
    host_before = host_reference()

    setups, setup_refs = [], [host_reference(REF_SCALE)]
    for _ in range(SETUP_REPS):
        t_import = import_seconds(root)
        t0 = time.perf_counter()
        workload.setup(workdir, args.seed)
        setups.append(t_import + time.perf_counter() - t0)
        setup_refs.append(host_reference(REF_SCALE))
    # host speed drifts over minutes, so one reference median serves all reps
    setup_s = REF_NOMINAL_S * statistics.median(setups) / statistics.median(setup_refs)

    tracer = Tracer() if args.trace else None
    loop = Loop(workload, args.seconds, tracer)
    loop.run()
    final_errors, summary = workload.finish()
    host_after = host_reference()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info.update(summary)
    info.update(seconds_summary(loop, workload))
    info.update({
        "unit": workload.unit, "rows": workload.rows,
        "iterations": len(loop.walls), "traced_iterations": len(loop.traced_walls),
        "setup_reps_s": setups, "setup_refs_s": setup_refs,
        "iteration_walls_s": [round(w, 4) for w in loop.walls],
        "iteration_refs_s": [round(r, 4) for r in loop.refs],
        "host_ref_before_s": host_before, "host_ref_after_s": host_after,
        "errors": (loop.errors + final_errors)[:20],
    })
    host_ref_s = (host_before + host_after) / 2.0
    if tracer is None:
        metrics = end_to_end(loop, workload, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(loop, tracer, host_ref_s)
        print_layer_table(metrics, tracer, statistics.median(loop.traced_walls))
        trace_path = work / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "info": info, "spans": tracer.dump(), "counters": tracer.counters,
            "untraced_walls": loop.walls, "traced_walls": loop.traced_walls}))
        info["trace_file"] = os.path.relpath(trace_path, root)
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not (loop.errors or final_errors),
        "attempted": loop.attempted,
        "failed": loop.failed + len(final_errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke(root: Path) -> int:
    """Every workload once on tiny inputs, both trace modes, in fresh
    processes; checks the result line carries exactly the metrics that
    BENCHMARK.json names, with their units."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"keys {sorted(result)}")
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    problems.append(f"missing {missing} extra {extra} or units differ")
                if not all(isinstance(v["value"], (int, float))
                           and math.isfinite(v["value"]) for v in result["metrics"].values()):
                    problems.append("non-finite metric value")
                if result["attempted"] < 1:
                    problems.append("no iteration attempted")
                status = f"correct={result['correct']} attempted={result['attempted']}"
            except (IndexError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"no result line ({exc}); stderr: {proc.stderr[-500:]}")
                status = ""
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            ok = ok and not problems
            print(f"{wl['name']:14s} trace={trace} {'ok' if not problems else 'FAIL'} "
                  f"{status} {'; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "medrule" / "__init__.py").is_file():
        print(f"error: no medrule sources under {root / 'src'}; "
              "run from the root of a medrule checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
