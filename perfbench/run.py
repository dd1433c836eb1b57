"""zsdyn sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout. The workload seed generates the
games and the experiment config (perfbench/workloads.py); the program only
receives those. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics, with --trace 1 one with the per-layer metrics.
`--workload all` runs every workload in both modes and prints a table.
Inputs, outputs and a full result file per run go to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# pin BLAS before anything imports numpy, here and in every child process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
N_SETUP = 7
DEADLINE_S = 170  # a workload's children are killed this long after it starts

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=dict(os.environ))


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure_setup(exp_path: str, calib, deadline: float) -> list[float]:
    """Process start to a validated config and loaded game, several times;
    each sample is scaled by the calibration intervals around it."""
    samples = []
    cal = [calib.measure(4)]
    for _ in range(N_SETUP):
        t0 = time.perf_counter()
        ready = float(_finish(_child(["setup", exp_path]), deadline).strip().splitlines()[-1])
        cal.append(calib.measure(4))
        samples.append((ready - t0) * calib.CAL_REF_S / ((cal[-2] + cal[-1]) / 2.0))
    return samples


def write_inputs(workload: str, seed: int, trace: int) -> str:
    import workloads

    game, cfg = workloads.build(workload, seed)
    rel = os.path.join(".bench_work", f"{workload}-s{seed}-t{trace}")
    os.makedirs(os.path.join(ROOT, rel), exist_ok=True)
    if game is not None:
        cfg["game"] = os.path.join(rel, "game.json")
        with open(os.path.join(ROOT, cfg["game"]), "w", encoding="utf-8") as fh:
            json.dump(game, fh)
    cfg["out_dir"] = os.path.join(rel, "out")
    exp_path = os.path.join(rel, "experiment.json")
    with open(os.path.join(ROOT, exp_path), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return exp_path


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import calib

    deadline = time.perf_counter() + DEADLINE_S
    exp_path = write_inputs(workload, seed, trace)
    setup = [] if trace else measure_setup(exp_path, calib, deadline)
    res = json.loads(_finish(_child(["run", exp_path, str(seconds), str(trace)]), deadline)
                     .strip().splitlines()[-1])
    run_s = statistics.median(res["run_s"])
    res["workload"], res["seed"], res["trace_mode"] = workload, seed, trace
    res["setup_samples_s"] = setup
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["trace"]["metrics"].items()}
    else:
        values = {"setup_s": statistics.median(setup), "run_s": run_s,
                  "steps_per_s": res["steps"] / run_s, "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    res["metrics"] = metrics
    with open(os.path.join(WORK, f"result-{workload}-s{seed}-t{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return res


def report(res: dict) -> None:
    env = res["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    raw = res["raw_run_s"]
    print(f"workload {res['workload']} seed {res['seed']}: {res['reps']} repetitions, "
          f"{res['steps']} steps each, raw wall median {statistics.median(raw):.4f} s "
          f"(min {min(raw):.4f}, max {max(raw):.4f})")
    print(f"checks: {res['attempted']} attempted, {res['failed']} failed, "
          f"failed_frac {res['failed'] / res['attempted']:.6g}")
    for msg in res["messages"]:
        print(f"  FAILED: {msg}")
    print(f"output sha256 (information only): {res['output_sha256']}")
    if "trace" in res:
        absent = res["trace"]["absent"]
        print("trace: absent layers: " + (", ".join(absent) if absent else "none"))
        print("trace: work counts " + json.dumps(res["trace"]["counts"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "zsdyn", "__init__.py")):
        return fail(f"no zsdyn sources under {os.path.join(ROOT, 'src')}; "
                    "run from the root of a zsdyn checkout")
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    # one CPU for this process and its children, so that every calibration
    # interval runs where the interval it scales ran
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    for name in names:
        for trace in modes:
            try:
                res = bench(name, args.seed, args.seconds, trace)
            except (RuntimeError, OSError, ValueError) as exc:
                return fail(f"{name}: {exc}")
            report(res)
            results.append(res)
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 for r in results) else 1
    res = results[0]
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
