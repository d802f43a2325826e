"""Benchmark of the glhom CLI: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload poly-deep --seed 1 --seconds 20 --trace 0

Closed loop, one client: every invocation is a fresh
``python -m glhom.cli ...`` child, started only after the previous one has
exited.  Each run sets up five times (cases from the seed, expected
outputs from ``reference``, one warm-up invocation) and reports the median
as ``setup_s``.  It then repeats passes over the workload's cases until
``--seconds`` have passed and at least 40 invocations were made.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one, in which every case runs under
``tracer.py``, and prints the per-layer metrics of the median traced pass.
Comment lines (``# ...``) describe the run; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

import analysis
import cases
import runner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 5
MIN_INVOCATIONS = 40  # enough for a p75 tail (10 samples beyond it)
RUN_LIMIT_S = 150.0  # no child runs past this point, so a run ends within 180 s
STARTUP_REPS = 5
LAYERS = ("cli", "profiles", "minimize", "counting", "intpoly", "oracle")
# runner.probe()'s lower quartile on an undisturbed shared 2-vCPU VM (Python 3.11.7).
PROBE_REFERENCE_S = 0.0033


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup(run: runner.Runner, workload: str, seed: int):
    """Cases with expected outputs, plus one checked warm-up invocation."""
    start = time.perf_counter()
    case_list = cases.build(workload, seed)
    warm = run.run(cases.warmup_case())
    if not warm.ok:
        raise RuntimeError(
            f"warm-up `glhom {warm.case.label}` failed (exit {warm.exit_code}): {warm.stderr_tail}"
        )
    return case_list, time.perf_counter() - start


def _report_failures(outcomes) -> None:
    seen = set()
    for o in outcomes:
        if o.ok or o.case.label in seen:
            continue
        seen.add(o.case.label)
        why = "timed out" if o.timed_out else f"exit {o.exit_code}"
        if o.wrong_answer:
            why += ", stdout differs from the reference"
        print(f"# FAILED glhom {o.case.label}: {why} {o.stderr_tail}".rstrip())


def _best(outcomes, attr: str) -> dict[str, float]:
    """Each case's smallest ``attr`` over its successful runs (all runs if none)."""
    runs: dict[str, list] = {}
    for o in outcomes:
        runs.setdefault(o.case.label, []).append(o)
    return {
        label: min(getattr(o, attr) for o in ([o for o in rs if o.ok] or rs))
        for label, rs in runs.items()
    }


def _speed(run: runner.Runner) -> float:
    """How much slower than the reference machine this run's machine ran."""
    return statistics.quantiles(run.probes, n=4)[0] / PROBE_REFERENCE_S


def _end_to_end(passes, setup_s: float, speed: float) -> dict:
    """End-to-end metrics for one run.

    Two steps take out the noise of a shared machine, whose speed swings by
    a third over seconds and drifts as much over minutes:

    * each case's timings are its best of the run's passes -- the fastest
      run of a deterministic computation is the least disturbed, as
      ``timeit`` advises.  ``wall_s`` and ``cpu_s`` sum the best times over
      the cases; the latency percentiles count every successful invocation
      at its case's best time, so the tail rule still counts invocations;
    * every time is divided by ``speed``, the run's lower-quartile probe
      time over the reference probe time, which follows the drift.
    """
    outcomes = [o for p in passes for o in p]
    best_wall, best_cpu = _best(outcomes, "wall_s"), _best(outcomes, "cpu_s")
    latencies = [best_wall[o.case.label] * 1000.0 for o in outcomes if o.ok]
    latencies = latencies or [w * 1000.0 for w in best_wall.values()]
    tail_p = analysis.tail_percentile(len(latencies))
    raw = {
        "setup_s": setup_s,
        "wall_s": sum(best_wall.values()),
        "cpu_s": sum(best_cpu.values()),
        "latency_p50_ms": analysis.nearest_rank(latencies, 50.0),
        "latency_tail_ms": analysis.nearest_rank(latencies, tail_p),
    }
    failed = sum(not o.ok for o in outcomes)
    print(f"# {len(passes)} passes of {len(passes[0])} invocations")
    print(f"# error_rate = {failed / len(outcomes):.4f} ({failed} of {len(outcomes)} failed)")
    print(f"# latency_p50_ms over {len(latencies)} samples;"
          f" latency_tail_ms is p{tail_p:g} of {len(latencies)} samples")
    print(f"# speed = {speed:.4f} (lower-quartile probe over {PROBE_REFERENCE_S * 1000:g} ms);"
          " before dividing by it: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    metrics = {
        name: _metric(value / speed, "ms" if name.endswith("_ms") else "s")
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = _metric(max(o.peak_rss_mb for o in outcomes), "MB")
    return metrics


def _startup(run: runner.Runner) -> dict:
    """Interpreter start and glhom import cost, from ``-X importtime``."""
    interp, imports, numpy_ms = [], [], []
    for _ in range(STARTUP_REPS):
        wall, _, _, _ = runner.spawn(
            [sys.executable, "-c", "pass"], run.env, run.out_path, run.err_path, run.cap()
        )
        interp.append(wall * 1000.0)
        runner.spawn(
            [sys.executable, "-X", "importtime", "-c", "import glhom.cli"],
            run.env, run.out_path, run.err_path, run.cap(),
        )
        glhom_us = numpy_us = 0
        with open(run.err_path) as f:
            for line in f:
                parts = line.split("|")
                if len(parts) != 3 or not parts[1].strip().isdigit():
                    continue
                name = parts[2].rstrip("\n")[1:]
                if not name.startswith(" ") and name.startswith("glhom"):
                    glhom_us += int(parts[1])
                if name.strip() == "numpy":
                    numpy_us = int(parts[1])
        imports.append(glhom_us / 1000.0)
        numpy_ms.append(numpy_us / 1000.0)
    return {
        "startup.interp_ms": _metric(statistics.median(interp), "ms"),
        "startup.import_ms": _metric(statistics.median(imports), "ms"),
        "startup.numpy_import_ms": _metric(statistics.median(numpy_ms), "ms"),
    }


def _traced_case(run: runner.Runner, case: cases.Case, spans_path: str):
    if os.path.exists(spans_path):
        os.unlink(spans_path)
    outcome = run.run(case, prefix=[sys.executable, os.path.join(HERE, "tracer.py"), spans_path])
    if not os.path.exists(spans_path):  # killed before the tracer could write
        return outcome, {}, {}, {}
    header, layer_ids, parents, starts, ends = analysis.read_spans(spans_path)
    self_s, calls, _ = analysis.self_times(header["layers"], layer_ids, parents, starts, ends)
    return outcome, self_s, calls, header["counters"]


def _traced_pass(run, case_list, spans_path):
    """Per-layer numbers for one traced pass, and the per-case breakdown."""
    totals = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m = {
        "minimize.calls": 0, "minimize.optima": 0, "minimize.peak_alloc_mb": 0.0,
        "counting.eligible_tuples": 0,
        "intpoly.calls": 0, "intpoly.operand_coeffs": 0, "intpoly.result_max_bits": 0,
        "oracle.matrices_enumerated": 0,
    }
    outcomes, rows = [], []
    for case in case_list:
        outcome, self_s, calls, counters = _traced_case(run, case, spans_path)
        outcomes.append(outcome)
        for layer in LAYERS:
            totals[f"{layer}.self_s"] += self_s.get(layer, 0.0)
        m["minimize.calls"] += calls.get("minimize", 0)
        m["intpoly.calls"] += calls.get("intpoly", 0)
        m["minimize.optima"] += counters.get("minimize.optima", 0)
        m["intpoly.operand_coeffs"] += counters.get("intpoly.operand_coeffs", 0)
        for key in ("minimize.peak_alloc_mb", "intpoly.result_max_bits"):
            m[key] = max(m[key], counters.get(key, 0))
        m["counting.eligible_tuples"] += case.eligible_tuples
        m["oracle.matrices_enumerated"] += case.matrices
        attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS)
        rows.append((case.label, outcome.wall_s, self_s, outcome.wall_s - attributed))
    wall = sum(o.wall_s for o in outcomes)
    oracle_s = totals["oracle.self_s"]
    m["oracle.matrices_per_s"] = m["oracle.matrices_enumerated"] / oracle_s if oracle_s > 0 else 0.0
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(totals.values())
    m.update(totals)
    return m, outcomes, rows


_UNITS = {
    "self_s": "s", "calls": "count", "optima": "count", "peak_alloc_mb": "MB",
    "eligible_tuples": "count", "operand_coeffs": "count", "result_max_bits": "bits",
    "matrices_enumerated": "count", "matrices_per_s": "1/s", "wall_s": "s",
    "unattributed_s": "s",
}


def _traced(run, case_list, seconds: float, spans_path: str):
    metrics = _startup(run)
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain += [run.run(case) for case in case_list]
        traced.append(_traced_pass(run, case_list, spans_path))
        if time.perf_counter() - start >= seconds or time.perf_counter() >= run.deadline:
            break
    traced.sort(key=lambda t: t[0]["trace.wall_s"])
    layer_metrics, _, rows = traced[(len(traced) - 1) // 2]
    for name, value in layer_metrics.items():
        metrics[name] = _metric(value, _UNITS[name.split(".", 1)[1]])
    traced_outcomes = [o for _, outcomes, _ in traced for o in outcomes]
    # Best-of-passes on both sides, as for the end-to-end metrics.
    overhead = sum(_best(traced_outcomes, "wall_s").values()) / sum(_best(plain, "wall_s").values()) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "share")
    print(f"# {len(traced)} untraced+traced pass pairs; per-layer numbers from the median traced pass")
    for label, wall, self_s, rest in rows:
        parts = " ".join(f"{layer}={self_s.get(layer, 0.0):.4f}" for layer in LAYERS)
        print(f"# case glhom {label}: wall={wall:.4f} s self: {parts} unattributed={rest:.4f}")
    return metrics, plain + traced_outcomes


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "glhom", "cli.py")):
        print(f"error: no glhom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = runner.Runner(ROOT, workdir, deadline=time.perf_counter() + RUN_LIMIT_S)
        env = runner.environment(ROOT, run.env)
        print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        try:
            setups = [_setup(run, args.workload, args.seed) for _ in range(SETUPS)]
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        case_list = setups[0][0]
        setup_s = statistics.median([s for _, s in setups])
        print(f"# workload={args.workload} seed={args.seed} cases={len(case_list)}"
              f" setup_s={setup_s:.4f} (median of {SETUPS})")
        if args.trace:
            metrics, outcomes = _traced(run, case_list, args.seconds, os.path.join(workdir, "spans"))
        else:
            start = time.perf_counter()
            passes = []
            while True:
                passes.append([run.run(case) for case in case_list])
                elapsed = time.perf_counter() - start
                done = elapsed >= args.seconds and len(passes) * len(case_list) >= MIN_INVOCATIONS
                if done or time.perf_counter() >= run.deadline:
                    break
            metrics = _end_to_end(passes, setup_s, _speed(run))
            outcomes = [o for p in passes for o in p]
        _report_failures(outcomes)
        result = {
            "correct": any(o.ok for o in outcomes) and not any(o.wrong_answer for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
