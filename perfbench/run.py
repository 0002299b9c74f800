#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

One run (what BENCHMARK.json names):

    python3 perfbench/run.py --workload engine-churn --seed 1 --seconds 10 --trace 0

builds the load program against the repo's libraries (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), runs the benchmark's self-test once
per build, runs the workload, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 every per-layer metric.

Steadiness mode runs each workload K times with fresh seeds, alternating the
workload order between rounds, and prints every metric's median, quartiles
and spread ((q3 - q1) / median, quartiles as statistics.quantiles(n=4)):

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds 10]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["engine-churn", "svc-skew", "tcp-quorum"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure (first time) and build; returns the build directory."""
    bd = build_dir()
    if not (bd / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bd),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(bd), "-j", jobs,
         "--target", "hartbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    selftest = bd / "perfbench_selftest"
    stamp = bd / "selftest.ok"
    mark = str(selftest.stat().st_mtime_ns)
    if not stamp.exists() or stamp.read_text() != mark:
        subprocess.run([str(selftest)], check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
        stamp.write_text(mark)
    return bd


def run_once(bd, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (result dict, stderr text)."""
    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)  # a killed run's arenas
    work.mkdir()
    cmd = [str(bd / "hartbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work-dir", str(work), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {p.returncode})\n"
                           f"{p.stderr}")
    return json.loads(lines[-1]), p.stderr, p.returncode


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(bd, args):
    wls = args.workloads.split(",")
    runs = {w: [] for w in wls}
    lost = {w: 0 for w in wls}
    for r in range(args.steady):
        order = wls if r % 2 == 0 else list(reversed(wls))
        for w in order:
            seed = args.seed + r
            t0 = time.time()
            try:
                res, err, _ = run_once(bd, w, seed, args.seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                lost[w] += 1
                log(f"round {r} {w} seed {seed}: NO RESULT "
                    f"({time.time() - t0:.0f}s): {str(e)[-2000:]}")
                continue
            steal = next((tok.split("=")[1].rstrip("%")
                          for line in err.splitlines() if "perfbench:" in line
                          for tok in line.split() if tok.startswith("steal=")),
                         "nan")
            res["steal_pct"] = float(steal)
            runs[w].append(res)
            log(f"round {r} {w} seed {seed}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']} "
                f"steal={steal}% ({time.time() - t0:.0f}s)")
    summary = {}
    for w in wls:
        rs = runs[w]
        if not rs:
            print(f"== {w}: no run gave a result")
            continue
        out = {"runs": len(rs), "runs_without_result": lost[w],
               "all_correct": all(r["correct"] for r in rs),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in rs}),
               "steal_pct": quartiles([r["steal_pct"] for r in rs]),
               "metrics": {}}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            out["metrics"][name] = {
                "unit": rs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else float("nan"),
                "values": vals}
        summary[w] = out
        print(f"== {w}: {len(rs)} runs ({lost[w]} without result), "
              f"all correct={out['all_correct']}, "
              f"failed share={out['failed_share']}, steal q1/med/q3="
              + "/".join(f"{v:.1f}" for v in out["steal_pct"]) + "%")
        for name, m in out["metrics"].items():
            print(f"  {name:34s} median {m['median']:12.4f} {m['unit']:5s} "
                  f"q1 {m['q1']:12.4f} q3 {m['q3']:12.4f} "
                  f"spread {100 * m['spread']:6.2f}%")
    print(json.dumps(summary))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="steadiness mode: K runs per workload")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--rate", type=float, default=0,
                    help="service workloads: offered ops/s override")
    ap.add_argument("--window", type=int, default=None,
                    help="service workloads: at most N requests parked or "
                         "outstanding")
    ap.add_argument("--pin", type=int, choices=[0, 1], default=None,
                    help="0: let the load program use every CPU")
    args = ap.parse_args()
    if not args.steady and not args.workload:
        ap.error("--workload or --steady is required")
    try:
        bd = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.steady:
        steady(bd, args)
        return 0
    extra = []
    if args.rate:
        extra += ["--rate", str(args.rate)]
    if args.window is not None:
        extra += ["--window", str(args.window)]
    if args.pin is not None:
        extra += ["--pin", str(args.pin)]
    try:
        res, err, code = run_once(bd, args.workload, args.seed, args.seconds,
                                  args.trace, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    sys.stderr.write(err)
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
