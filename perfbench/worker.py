"""The measured process. Started by run.py, never by hand.

    worker.py setup <experiment.json>
        import zsdyn, validate the experiment config (every sweep point)
        and load its game, then print the monotonic clock and exit: the
        parent times process start to that instant.

    worker.py run <experiment.json> <seconds> <trace 0|1>
        set up once, run the sweep once as a warm-up and check its files,
        then repeat run_experiment in a closed loop for `seconds`, each
        repetition between two calibration intervals, and print one JSON
        line with the timings, work counts, checks and environment.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

# the setup path imports zsdyn and nothing of the benchmark's own
import zsdyn  # noqa: E402
from zsdyn import ExperimentConfig, load_game, run_experiment  # noqa: E402

MIN_REPS = 3        # per kind of repetition, even past --seconds ...
MAX_OVERRUN_S = 60  # ... but never this much past it


def setup(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    t0 = time.perf_counter()
    config = ExperimentConfig.from_dict(doc)
    t1 = time.perf_counter()
    game = load_game(config.game)
    t2 = time.perf_counter()
    return doc, config, game, t1 - t0, t2 - t1


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                           "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zsdyn": zsdyn.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_pinned": os.environ.get("OPENBLAS_NUM_THREADS") == "1",
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
    }


def main_run(path: str, seconds: float, trace: bool) -> dict:
    import calib
    import checks
    from spans import Tracer

    doc, config, game, validate_s, load_s = setup(path)
    setup_samples = {"validate": [validate_s], "load": [load_s]}
    if trace:
        for _ in range(4):
            _, _, _, v, ld = setup(path)
            setup_samples["validate"].append(v)
            setup_samples["load"].append(ld)
        setup_scale = calib.CAL_REF_S / calib.measure(4)
        setup_samples = {k: [x * setup_scale for x in v] for k, v in setup_samples.items()}

    tally = checks.Tally()
    out_dir = config.out_dir

    def one(tracer: Tracer | None = None, keep: bool = False):
        t0 = time.perf_counter()
        if tracer is None:
            bundle = run_experiment(config, force=True, keep_records=keep)
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                bundle = run_experiment(config, force=True, keep_records=keep)
        return bundle, time.perf_counter() - t0

    # warm-up repetition: fills lazy caches, and its files are checked in full
    _, warm_s = one()
    file_tally, final_ng = checks.check_outputs(out_dir, doc, game)
    tally.add(file_tally)
    digest = checks.dir_digest(out_dir)

    # closed loop: cal, rep, cal, rep, ..., cal; each rep is scaled by the
    # mean of the two calibration intervals around it
    n_cal = max(1, round(0.5 * warm_s / calib.CAL_REF_S))
    cal = [calib.measure(n_cal)]
    plain, traced, summaries, raw = [], [], [], []
    t_end = time.perf_counter() + seconds
    hard_end = t_end + MAX_OVERRUN_S

    def more() -> bool:
        now = time.perf_counter()
        short = len(plain) < MIN_REPS or (trace and len(traced) < MIN_REPS)
        return now < hard_end and (now < t_end or short)

    i = 0
    while more():
        tracer = Tracer() if trace and i % 2 == 1 else None
        i += 1
        try:
            _, wall = one(tracer)
        except Exception as exc:  # a raising sweep is a failed check, not a crash
            tally.check(False, f"run_experiment raised {type(exc).__name__}: {exc}")
            continue
        cal.append(calib.measure(n_cal))
        scale = calib.CAL_REF_S / ((cal[-2] + cal[-1]) / 2.0)
        tally.check(checks.dir_digest(out_dir) == digest, "rerun wrote different bytes")
        if tracer is None:
            plain.append(wall * scale)
            raw.append(wall)
        else:
            traced.append(wall * scale)
            summaries.append((tracer.summary(wall), scale))
    if not plain or (trace and not summaries):
        raise RuntimeError("no repetition completed: " + "; ".join(tally.messages))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # reference repetition, after the memory reading: keeps the per-trajectory
    # records and checks the final gaps against an independent oracle
    bundle, _ = one(keep=True)
    tally.check(checks.dir_digest(out_dir) == digest, "reference rerun wrote different bytes")
    ref_tally, reference = checks.check_reference(bundle, doc, game, final_ng)
    tally.add(ref_tally)

    result = {
        "environment": dict(environment(), cal_ref_s=calib.CAL_REF_S),
        "attempted": tally.attempted, "failed": tally.failed, "messages": tally.messages,
        "steps": checks.total_steps(doc), "reps": len(plain), "cal_blocks": n_cal,
        "run_s": plain, "raw_run_s": raw, "cal_s": cal, "peak_rss_mb": peak_rss_mb,
        "output_sha256": digest, "final_ng": final_ng, "reference_ng": reference,
        "files_written": len(os.listdir(out_dir)),
        "bytes_written": sum(os.path.getsize(os.path.join(out_dir, f))
                             for f in os.listdir(out_dir)),
    }
    if trace:
        result["trace"] = layer_metrics(summaries, plain, traced, setup_samples,
                                        result, tally)
        result["attempted"], result["failed"] = tally.attempted, tally.failed
    return result


def layer_metrics(summaries, plain, traced, setup_samples, result, tally) -> dict:
    """Medians over the traced repetitions; counts must agree exactly."""
    from spans import LAYERS

    counts = []
    for s, _ in summaries:
        L = s["layers"]
        counts.append({
            "matrix_dyn.steps": s["steps"]["matrix_dyn"],
            "visbr.steps": s["steps"]["visbr"],
            **{f"{layer}.calls": L[layer]["calls"] for layer in LAYERS},
            "ops.minimax_fp_distinct": s["minimax_distinct"],
        })
    tally.check(all(c == counts[0] for c in counts), "work counts differ between repetitions")
    c = counts[0]
    if not any(name.endswith(".steps") for name in summaries[0][0]["absent"]):
        tally.check(c["matrix_dyn.steps"] + c["visbr.steps"] == result["steps"],
                    "traced step count differs from the configured one")

    def med(fn) -> float:
        return statistics.median(fn(s) * scale for s, scale in summaries)

    def self_s(layer):
        return med(lambda s: s["layers"][layer]["self_s"])

    def per_step(layer, steps):
        return self_s(layer) / steps * 1e9 if steps else 0.0

    m = {
        "matrix_dyn.self_s": (self_s("matrix_dyn"), "s"),
        "matrix_dyn.steps": (c["matrix_dyn.steps"], "count"),
        "matrix_dyn.ns_per_step": (per_step("matrix_dyn", c["matrix_dyn.steps"]), "ns"),
        "metrics.matrix_gap_s": (self_s("metrics.matrix_gap"), "s"),
        "metrics.matrix_gap_calls": (c["metrics.matrix_gap.calls"], "count"),
        "visbr.self_s": (self_s("visbr"), "s"),
        "visbr.steps": (c["visbr.steps"], "count"),
        "visbr.ns_per_step": (per_step("visbr", c["visbr.steps"]), "ns"),
        "metrics.ng_stochastic_self_s": (self_s("metrics.ng_stochastic"), "s"),
        "metrics.ng_stochastic_calls": (c["metrics.ng_stochastic.calls"], "count"),
        "ops.best_response_s": (self_s("ops.best_response"), "s"),
        "ops.best_response_calls": (c["ops.best_response.calls"], "count"),
        "ops.policy_value_s": (self_s("ops.policy_value"), "s"),
        "ops.policy_value_calls": (c["ops.policy_value.calls"], "count"),
        "ops.minimax_fp_s": (self_s("ops.minimax_fp"), "s"),
        "ops.minimax_fp_calls": (c["ops.minimax_fp.calls"], "count"),
        "ops.minimax_fp_useful_ratio": (
            c["ops.minimax_fp_distinct"] / c["ops.minimax_fp.calls"]
            if c["ops.minimax_fp.calls"] else 0.0, "ratio"),
        "ops.lp_s": (self_s("ops.lp"), "s"),
        "ops.lp_calls": (c["ops.lp.calls"], "count"),
        "ops.ergodicity_s": (self_s("ops.ergodicity"), "s"),
        "ops.ergodicity_calls": (c["ops.ergodicity.calls"], "count"),
        "harness.validate_s": (statistics.median(setup_samples["validate"]), "s"),
        "games.load_s": (statistics.median(setup_samples["load"]), "s"),
        "harness.aggregate_s": (self_s("harness.aggregate"), "s"),
        "harness.self_s": (med(lambda s: s["uncovered_s"]), "s"),
        "harness.bytes_written": (result["bytes_written"], "B"),
        "harness.files_written": (result["files_written"], "count"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "ratio"),
    }
    return {"metrics": m, "absent": summaries[0][0]["absent"],
            "counts": dict(c, **{"harness.bytes_written": result["bytes_written"]})}


def main() -> int:
    mode, path = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(path)
        print(repr(time.perf_counter()), flush=True)
        return 0
    seconds, trace = float(sys.argv[3]), sys.argv[4] == "1"
    print(json.dumps(main_run(path, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
