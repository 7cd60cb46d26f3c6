"""km2d certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of torus-closure, sphere-closure, central-eps, tables, or
`all` to run each in turn.  Each repetition is a fresh single-threaded
child process (child.py), so the program's caches start cold, as they do
for a CLI user.  Repetitions run back to back (a closed loop with one
client) for about S seconds, at least MIN_REPS times, and each output is
checked.  Set-up is also sampled by set-up-only children until there are
at least MIN_SETUP_SAMPLES samples.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
median repetition wall time, median set-up time and median peak RSS of one
child, read with os.wait4 so that no other child's peak leaks in.  With
--trace 1 one more repetition runs with the tracer installed and the
per-layer metrics are reported instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.  Files
go to perfbench/out/.  Must be run from a checkout that has src/km2d.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, charge_error

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_REPS = 2
MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    # the warm-up child writes bytecode, as an installed package has it
    for key in ("KM2D_THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def run_child(name: str, prefix: Path, *flags) -> dict:
    """Run child.py to completion; its stamps, exit code and own peak RSS."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(prefix), *flags]
    with open(f"{prefix}.stderr", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
              "error": None}
    try:
        with open(f"{prefix}.stamps.json") as fh:
            stamps = json.load(fh)
    except (OSError, ValueError):
        stamps = {}
    if proc.returncode != 0 or "t_setup" not in stamps:
        with open(f"{prefix}.stderr") as fh:
            tail = fh.read()[-2000:]
        result["error"] = f"child exited {proc.returncode}: {tail}"
    elif not stamps["km2d"].startswith(str(SRC)):
        result["error"] = f"km2d imported from {stamps['km2d']}, not {SRC}"
    else:
        result["setup_s"] = stamps["t_setup"] - t_spawn
        if "t_done" in stamps:
            result["certify_s"] = stamps["t_done"] - t_spawn
    return result


def repetition(name: str, prefix: Path, seed: int, *flags) -> dict:
    """One checked repetition of a workload."""
    result = run_child(name, prefix, *flags)
    if result["error"] is None:
        try:
            errors = WORKLOADS[name].check(f"{prefix}.out", seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
        if errors:
            result["error"] = "; ".join(errors)
    return result


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # first child writes bytecode and warms the file cache; not measured
    warm = run_child(name, run_dir / "warmup", "--setup-only")
    if warm["error"] is not None:
        raise RuntimeError(f"{name}: set-up failed: {warm['error']}")

    reps, setups, walls = [], [], []
    start = time.monotonic()
    # start another repetition while it is expected to end before
    # seconds + half a repetition, so that a run lasts about `seconds`
    while len(reps) < MIN_REPS or (time.monotonic() - start
                                   + statistics.median(walls) / 2 < seconds):
        t0 = time.monotonic()
        rep = repetition(name, run_dir / f"rep{len(reps)}", seed)
        walls.append(time.monotonic() - t0)
        (run_dir / f"rep{len(reps)}.out").unlink(missing_ok=True)
        reps.append(rep)
        if "setup_s" in rep:
            setups.append(rep["setup_s"])
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = run_child(name, run_dir / f"setup{len(setups)}", "--setup-only")
        if probe["error"] is not None:
            raise RuntimeError(f"{name}: set-up failed: {probe['error']}")
        setups.append(probe["setup_s"])

    good = [r for r in reps if r["error"] is None]
    if not good:
        raise RuntimeError(f"{name}: every repetition failed: {reps[0]['error']}")
    summary = {
        "workload": name,
        "samples": {"certify_s": [r["certify_s"] for r in good],
                    "setup_s": setups,
                    "peak_rss_mb": [r["rss_mb"] for r in good]},
        "errors": [r["error"] for r in reps if r["error"] is not None],
        "attempted": len(reps),
    }
    summary["metrics"] = {k: statistics.median(v)
                          for k, v in summary["samples"].items()}

    if trace:
        prefix = run_dir / "traced"
        rep = repetition(name, prefix, seed, "--trace")
        if rep["error"] is not None:
            raise RuntimeError(f"{name}: traced repetition failed: "
                               f"{rep['error']}")
        summary["attempted"] += 1
        with open(f"{prefix}.spans.json") as fh:
            layers = layer_metrics(json.load(fh), rep["certify_s"])
        out = Path(f"{prefix}.out")
        layers["trace.overhead_ratio"] = (
            rep["certify_s"] / summary["metrics"]["certify_s"])
        layers["cli.report_bytes"] = (
            out.stat().st_size if WORKLOADS[name].argv else 0)
        layers["regulator.eps_abs_err"] = charge_error(name, out)
        summary["metrics"] = layers
        os.replace(f"{prefix}.spans.json", f"{run_dir}.spans.json")
    shutil.rmtree(run_dir)
    summary["failed"] = len(summary["errors"])
    return summary


def environment(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                                   "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except FileNotFoundError:
            pass

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": pkg("numpy"),
            "scipy": pkg("scipy"), "seed": seed}


def _spec_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _print_summary(summary: dict, units: dict) -> None:
    name = summary["workload"]
    for key, unit in units.items():
        value = summary["metrics"][key]
        line = f"{name:15s} {key:28s} {value:14.6g} {unit}"
        samples = summary["samples"].get(key, [])
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"   (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    fail_ratio = summary["failed"] / summary["attempted"]
    print(f"{name:15s} {'fail_ratio':28s} {fail_ratio:14.6g} 1"
          f"   ({summary['failed']} of {summary['attempted']} repetitions)")
    for err in summary["errors"]:
        print(f"{name:15s} FAILED: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "km2d" / "__init__.py").is_file():
        print(f"error: no km2d sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = _spec_metrics(trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            summary = measure(name, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_summary(summary, units)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  "w") as fh:
            json.dump(dict(summary, env=env), fh, indent=1)
        prefix = f"{name}/" if args.workload == "all" else ""
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        result["correct"] = result["correct"] and not summary["failed"]
        result["metrics"].update(
            {prefix + key: {"value": summary["metrics"][key], "unit": unit}
             for key, unit in units.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
