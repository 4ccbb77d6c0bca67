"""Run one workload of the reachgen benchmark and print its metrics.

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 25 --trace 0

Run it from the root of a repository checkout; it imports reachgen from
`src/` there. The workload's inputs come from `--seed`. Set-up runs five
times (warm-up included) and `setup_s` is their median. Correctness checks
run untimed, then requests run until `--seconds` is spent.

With `--trace 0` no request is traced and the end-to-end metrics are
printed. With `--trace 1` untraced and traced requests alternate, and the
per-layer metrics of BENCHMARK.json are printed: per traced request, the
calls and self time of each wrapped function, plus the tracer's overhead
against the untraced requests of the same run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Details of the run
(machine, samples, checks, counters) go to `perfbench/out/`.

    python3 perfbench/run.py --write-reference

records the reference values of the fixed-input checks at the current code.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

# One BLAS thread: every workload is single-process, and on a 2-core host a
# second BLAS thread spinning between calls slows the main thread by up to 3x.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
MIN_REQUESTS = 2
SETUP_TRACED = ("training.build_training_windows",
                "dataset.generate_synthetic_corpus")
# The calibration kernel's wall time on the 2-core reference host in its
# fast state; every reported time is in these reference seconds.
CAL_REF_S = 0.025
_CAL_A = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
_CAL_M = np.linspace(0.5, 1.5, 9).reshape(3, 3)


def calibrate() -> float:
    """Wall seconds of a fixed kernel of small numpy ops, the same kind of
    work as reachgen's per-frame code.

    The shared 2-core host this was built on swings by 2x within minutes, and
    the kernel's time tracks it. Scaling each phase of a second or less by the
    kernel runs just before and after it, with one BLAS thread, cut the spread
    (quartile distance over median, five seeds) of `lead_ms_p50` from 0.36 to
    0.05 on grid-eval and from 0.21 to 0.06 on single-goal.
    """
    a, m = _CAL_A, _CAL_M
    t0 = perf_counter()
    for _ in range(800):
        c = np.stack([np.cross(a, a[::-1]), a @ m])
        np.concatenate([np.linalg.norm(c, axis=-1)] * 2, axis=-1)
    return perf_counter() - t0


def _write_json(path: str, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                           if k in os.environ}}


def code_digest() -> str:
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "reachgen"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def timing_summary(values: list) -> dict:
    """Median, plus the highest percentile with ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "p50": statistics.median(v) if v else None,
           "tail_pct": None, "tail": None}
    if len(v) >= 11:
        out["tail_pct"] = round(100.0 * (len(v) - 10) / len(v), 1)
        out["tail"] = v[-11]
    return out


def run_requests(workload, seconds: float, tracer) -> list:
    """Closed loop, one request at a time; stops before a request that
    would end past `seconds`, judged by the last request's length.

    The calibration kernel runs before each request, between its phases and
    after it; each phase is scaled by the mean of the kernel runs around it.
    """
    from workloads import Request

    # traced and untraced requests alternate in blocks that cover every kind
    # of request whose cost differs (see workloads.Corpus)
    block = getattr(workload, "n_kinds", 1)
    min_requests = 2 * block if tracer is not None else MIN_REQUESTS
    done = []
    cals = [calibrate()]
    start = perf_counter()
    while True:
        cals = cals[-1:]
        traced = tracer is not None and (len(done) // block) % 2 == 1
        if traced:
            tracer.install("request")
        t0 = perf_counter()
        try:
            r = workload.request(lambda: cals.append(calibrate()))
        except Exception as e:  # a failing request is counted, not fatal
            r = Request([perf_counter() - t0], workload.items_per_request,
                        workload.items_per_request,
                        problem=f"{type(e).__name__}: {e}")
        finally:
            if traced:
                tracer.uninstall()
        cals.append(calibrate())
        r.ref_phases_s = [p * 2.0 * CAL_REF_S / (cals[i] + cals[i + 1])
                          for i, p in enumerate(r.phases_s)]
        done.append((traced, r))
        now = perf_counter()
        if len(done) >= min_requests and (now - start) + (now - t0) > seconds:
            return done


def end_to_end(setup_s: list, timed: list) -> dict:
    """Times in reference seconds (see `calibrate`)."""
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": statistics.median(r.items / r.ref_s for r in timed),
        "lead_ms_p50": 1e3 * statistics.median(r.ref_phases_s[0] for r in timed),
    }


def per_layer(tracer, requests: list, setup_scale: float) -> tuple[dict, dict, str | None]:
    """Per traced request: calls, self time (reference seconds) and extra
    counts per function. Returns (metrics, deterministic counters, problem)."""
    from spans import TARGETS

    traced = [r for t, r in requests if t]
    untraced = [r for t, r in requests if not t]
    scopes = [tracer.scope_summary(i) for i in tracer.scopes("request")]
    counts = by_kind(traced, [{name: [s["calls"], s["extra"]] for name, s in sc.items()}
                              for sc in scopes])
    problem = None if counts is not None else \
        "traced call counts differ between requests of one kind"
    first = scopes[0]
    metrics = {}
    for mod, attr, extra in TARGETS:
        name = f"{mod}.{attr}"
        metrics[f"{name}.calls"] = first[name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(
            s[name]["self_s"] * r.ref_s / sum(r.phases_s) for s, r in zip(scopes, traced))
        if extra:
            metrics[f"{name}.{extra[0]}"] = first[name]["extra"]
    backward = "autodiff.Tape.backward"
    nodes, steps = metrics[f"{backward}.nodes"], metrics[f"{backward}.calls"]
    metrics["autodiff.tape_nodes_per_step"] = nodes / steps if steps else 0.0
    metrics["autodiff.backward_us_per_node"] = (
        1e6 * metrics[f"{backward}.self_s"] / nodes if nodes else 0.0)
    decodes = metrics["model.decode.calls"]
    metrics["model.decode.rows_per_call"] = (
        metrics["model.decode.rows"] / decodes if decodes else 0.0)
    metrics["request.items"] = traced[0].items
    metrics["trace.overhead_share"] = (
        statistics.median(r.ref_s for r in traced)
        / statistics.median(r.ref_s for r in untraced) - 1.0)
    setup = tracer.scope_summary(tracer.scopes("setup")[-1])
    for name in SETUP_TRACED:
        metrics[f"setup.{name}.calls"] = setup[name]["calls"]
        metrics[f"setup.{name}.self_s"] = setup[name]["self_s"] * setup_scale
    return metrics, counts, problem


def by_kind(requests: list, counters: list) -> dict | None:
    """Counters of each request kind, or None when two requests of one kind
    disagree."""
    out = {}
    for r, c in zip(requests, counters):
        if out.setdefault(str(r.kind), c) != c:
            return None
    return out


def check_across_runs(key: str, counters: dict) -> str | None:
    """Deterministic counters must repeat exactly in every run of the same
    code, workload and seed; each kind is recorded by the first run that
    reaches it."""
    path = os.path.join(OUT, "counters.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    entry = known.setdefault(key, {})
    if any(entry.get(k, c) != c for k, c in counters.items()):
        return "deterministic counters differ from an earlier run"
    entry.update(counters)
    _write_json(path, known)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reachgen", "__init__.py")):
        print(f"perfbench: no reachgen sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reachgen
    if os.path.dirname(os.path.dirname(os.path.abspath(reachgen.__file__))) != SRC:
        print(f"perfbench: reachgen imported from outside {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    if args.write_reference:
        ref = workloads.compute_reference(os.path.join(OUT, "reference"))
        _write_json(workloads.REFERENCE_PATH, ref)
        print(f"wrote {workloads.REFERENCE_PATH}")
        return 0
    if args.workload not in workloads.WORKLOADS or args.seed is None or not args.seconds:
        parser.error(f"--workload ({', '.join(workloads.WORKLOADS)}), --seed "
                     "and --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]

    load_before = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = Tracer() if args.trace else None
    setup_s, setup_scale = [], []
    cal = calibrate()
    for i in range(SETUP_REPEATS):
        traced = tracer is not None and i == SETUP_REPEATS - 1
        if traced:
            tracer.install("setup")
        t0 = perf_counter()
        try:
            workload.setup()
        finally:
            if traced:
                tracer.uninstall()
        wall = perf_counter() - t0
        cal_after = calibrate()
        setup_scale.append(2.0 * CAL_REF_S / (cal + cal_after))
        setup_s.append(wall * setup_scale[-1])
        cal = cal_after
    checks = workload.checks()
    requests = run_requests(workload, args.seconds, tracer)
    load_after = os.getloadavg()

    untraced = [r for t, r in requests if not t]
    counters = {"untraced": by_kind(untraced, [r.counters for r in untraced])}
    checks["counters_repeat"] = (
        None if counters["untraced"] is not None
        else "deterministic counters differ between requests of one kind")
    timed = [r for t, r in requests if not t and r.problem is None]
    if not timed:
        for _, r in requests:
            print(f"perfbench: request failed: {r.problem}", file=sys.stderr)
        print("perfbench: no untraced request succeeded; nothing to report",
              file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(setup_s, timed)
    else:
        metrics, counters["traced"], checks["traced_counts_repeat"] = \
            per_layer(tracer, requests, setup_scale[-1])
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.json"))
    key = f"{code_digest()[:16]}:{args.workload}:{args.seed}"
    for scope, by in counters.items():
        if by is not None:
            checks[f"counters_across_runs_{scope}"] = check_across_runs(
                f"{key}:{scope}", by)

    attempted = len(checks) + sum(r.items for _, r in requests)
    failed = (sum(p is not None for p in checks.values())
              + sum(r.items if r.problem else r.failed for _, r in requests))
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}

    env = machine()
    stats = {"request_ref_s": timing_summary([r.ref_s for r in timed]),
             "request_wall_s": timing_summary([sum(r.phases_s) for r in timed])}
    for i, phase in enumerate(workload.phases):
        stats[f"{phase}_ref_s"] = timing_summary([r.ref_phases_s[i] for r in timed])
    _write_json(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json"), {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": env,
        "load_before": load_before, "load_after": load_after,
        "setup_ref_s": setup_s, "setup_scale": setup_scale, "checks": checks, "stats": stats,
        "requests": [{"traced": t, **vars(r)} for t, r in requests],
        "all_metrics": metrics, "result": result})

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {why}")
    print(f"  {len(requests)} requests, {sum(r.items for _, r in requests)} items; "
          f"load {load_before[0]:.2f} -> {load_after[0]:.2f}; nproc {env['nproc']}, "
          f"Python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
          f"{env['blas']['version']} with {env['blas_threads']} thread(s)")
    for name, s in stats.items():
        tail = f", p{s['tail_pct']} {s['tail']:.4f}" if s["tail"] is not None else ""
        print(f"  {name}: n {s['n']}, p50 {s['p50']:.4f}{tail}")
    for name, problem in checks.items():
        print(f"  check {name}: {'ok' if problem is None else 'FAILED: ' + problem}")
    for _, r in requests:
        if r.problem:
            print(f"  request FAILED: {r.problem}")
    for m in listed:
        print(f"  {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
