#!/usr/bin/env python3
"""crystalsum benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Runs from the root of a source checkout and imports the library from its
`src/` (nothing needs installing).  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer metrics
of a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are the readable report.  Work files, the span file and a full result
record go to .bench_work/.  Exit code 0 means every job passed its
gate, 1 that some job failed, 2 that the checkout holds no library.

See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("eta-exact", "hb-spectrum", "hb-pair", "cli-readme")
SETUP_PROBES = 3          # fresh processes before the timed passes, and again after
MIN_PASSES = 2
# modules each workload exists to exercise; their busy time must be nonzero
PREDICTED = {"eta-exact": ("qmodular", "selfdual"),
             "hb-spectrum": ("freqalg", "spectra"),
             "hb-pair": ("hermite", "measures", "dbspace", "verifier"),
             "cli-readme": ("cli",)}


def import_library():
    """Import crystalsum from this checkout's src/ and nowhere else."""
    pkg = SRC / "crystalsum"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no crystalsum package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import crystalsum
    if Path(crystalsum.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: crystalsum imported from {crystalsum.__file__}, not {pkg}")


# -- environment ---------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed, seed_note):
    import numpy
    from crystalsum import qmodular
    qq = type(qmodular.QQ(1))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "rational": f"{qq.__module__}.{qq.__qualname__}",
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
            "seed": seed, "seed_note": seed_note}


# -- measuring -----------------------------------------------------------------

def setup_seconds(name, seed, smoke):
    """Wall time from process start to built inputs, in fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return samples


def import_seconds():
    """Median import time of crystalsum.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import crystalsum.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=60).stdout)
           for _ in range(3)]
    return statistics.median(out)


def cpu_now():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_pass(jobs, state, tracer=None):
    """One pass over the jobs, leaving their results in `state`: (wall s, cpu s, failures).

    Callers pass a fresh dict and drop it with the pass, so no pass's data
    is still alive during the next one.
    """
    failures = []
    c0, t0 = cpu_now(), time.perf_counter()
    for name, fn in jobs:
        if tracer is not None:
            tracer.job = name
            tracer.begin("bench." + name)
        try:
            fn(state)
        except Exception as e:  # a failed job is counted and reported, not fatal
            failures.append((name, f"{type(e).__name__}: {e}"))
        finally:
            if tracer is not None:
                tracer.end()
    return time.perf_counter() - t0, cpu_now() - c0, failures


class Tally:
    """Attempted and failed jobs over every pass of a run, warm-up included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, jobs, failures):
        self.attempted += len(jobs)
        self.failed += len(failures)
        for name, msg in failures:
            print(f"FAILED {name}: {msg}", file=sys.stderr)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def keep_going(walls, start, seconds, min_passes):
    """Another pass unless `seconds` are used up, counting half a typical pass."""
    if len(walls) < min_passes:
        return True
    return time.perf_counter() - start + statistics.median(walls) / 2 < seconds


def measure(wl, seconds, min_passes, tally):
    """Warm-up, then untraced passes until `seconds` have elapsed."""
    if wl.warmup:
        tally.add(wl.jobs, run_pass(wl.jobs, {})[2])
    walls, cpus = [], []
    start = time.perf_counter()
    while keep_going(walls, start, seconds, min_passes):
        wall, cpu, fails = run_pass(wl.jobs, {})
        tally.add(wl.jobs, fails)
        walls.append(wall)
        cpus.append(cpu)
    # the CLI workload's untraced jobs are its child processes
    who = resource.RUSAGE_CHILDREN if wl.inproc_jobs else resource.RUSAGE_SELF
    return walls, cpus, resource.getrusage(who).ru_maxrss / 1024.0


def measure_traced(wl, seconds, tally):
    """Untraced and traced passes alternating in this process.

    Returns the median per-layer metrics of the traced passes, with the
    difference of the two medians as the tracing overhead, and the tracers.
    """
    import spans
    jobs = wl.inproc_jobs or wl.jobs
    if wl.warmup:
        tally.add(jobs, run_pass(jobs, {})[2])
    import_s = import_seconds() if wl.name == "cli-readme" else 0.0
    tracers, plain, traced, per_pass = [], [], [], []
    start = time.perf_counter()
    while keep_going(traced, start, seconds, 1):
        wall, _, fails = run_pass(jobs, {})
        tally.add(jobs, fails)
        plain.append(wall)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        state = {}
        try:
            wall, _, fails = run_pass(jobs, state, tracer)
        finally:
            uninstall()
        tally.add(jobs, fails)
        tracer.maxes["spectra.oracle_gap"] = max(state.get("oracle_gap", [0.0]))
        tracer.maxes["cli.import_s"] = import_s
        tracer.counts["cli.output_bytes"] = state.get("bytes", 0)
        tracers.append(tracer)
        traced.append(wall)
        per_pass.append(spans.layer_metrics(tracer.spans, tracer.counts, tracer.maxes))
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(plain)
    return metrics, tracers


# -- reporting -----------------------------------------------------------------

def units(kind):
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(tally, metrics, unit_of):
    return json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": {k: {"value": metrics[k], "unit": unit_of[k]}
                                   for k in unit_of}})


def run_workload(args):
    import_library()
    import workloads
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    smoke = args.smoke
    seconds = 0.0 if smoke else args.seconds
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, smoke)
    wl = workloads.build(args.workload, args.seed, smoke, WORK)
    env = environment(args.seed, wl.seed_note)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# crystalsum benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "env": env}
    try:
        if args.trace:
            metrics, tracers = measure_traced(wl, seconds, tally)
            kind = "per_layer"
            for mod in PREDICTED[args.workload]:
                if metrics[f"{mod}.busy_s"] <= 0:
                    tally.add([mod], [(f"trace.{mod}", "busy time is zero where "
                                       "this workload should exercise it")])
            with open(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                for i, tr in enumerate(tracers):
                    for sid, name, start, end, parent, job, self_s in tr.spans:
                        fh.write(json.dumps({"pass": i, "id": sid, "name": name,
                                             "start": start, "end": end,
                                             "parent": parent, "job": job,
                                             "self_s": self_s}) + "\n")
            table = layer_table(args.workload, metrics, units(kind))
            (WORK / f"layers-{args.workload}-seed{args.seed}.txt").write_text(table)
            print(table, end="")
        else:
            walls, cpus, rss = measure(wl, seconds, 1 if smoke else MIN_PASSES, tally)
            # probes at both ends of the run sample the machine's speed twice
            setup += setup_seconds(args.workload, args.seed, smoke)
            metrics = {"setup_s": statistics.median(setup),
                       "pass_s": statistics.median(walls),
                       "cpu_s": statistics.median(cpus), "peak_rss_mb": rss}
            kind = "end_to_end"
            q1, q3 = quartiles(walls)
            record.update(setup_samples=setup, pass_walls=walls, pass_cpus=cpus)
            print(f"{'metric':<12} {'value':>12}  unit")
            print(f"{'setup_s':<12} {metrics['setup_s']:>12.4f}  s   "
                  f"(median of {len(setup)} fresh processes, before and after)")
            print(f"{'pass_s':<12} {metrics['pass_s']:>12.4f}  s   "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}, n {len(walls)})")
            print(f"{'cpu_s':<12} {metrics['cpu_s']:>12.4f}  s")
            print(f"{'peak_rss_mb':<12} {metrics['peak_rss_mb']:>12.1f}  MB")
            print(f"{'fail_ratio':<12} {tally.failed / tally.attempted:>12.4f}  1   "
                  f"({tally.failed}/{tally.attempted} jobs)")
    finally:
        if wl.root is not None:
            shutil.rmtree(wl.root, ignore_errors=True)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed)
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(tally, metrics, units(kind)))
    return 0 if tally.failed == 0 else 1


def layer_table(workload, metrics, unit_of):
    lines = [f"per-layer metrics, {workload}, median over traced passes",
             f"tracing overhead: {metrics['trace.overhead_s']:.4f} s on a traced "
             f"pass of {metrics['trace.pass_s']:.4f} s"]
    for name, unit in unit_of.items():
        lines.append(f"  {name:<36} {metrics[name]:>16.6g}  {unit}")
    return "\n".join(lines) + "\n"


def run_all(args):
    """Each workload in its own process, then one summary table."""
    summary, ok = {}, True
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode == 2 or not last.startswith("{"):
            return 2
        summary[name] = json.loads(last)
        ok = ok and proc.returncode == 0
    print("\nsummary")
    for name, res in summary.items():
        fr = res["failed"] / res["attempted"]
        vals = "  ".join(f"{k} {v['value']:.4g} {v['unit']}"
                         for k, v in res["metrics"].items())
        print(f"  {name:<12} {vals}  fail_ratio {fr:.4g} 1")
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {f"{n}.{k}": v for n, r in summary.items()
                                  for k, v in r["metrics"].items()}}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measuring time after the warm-up (at least 2 passes)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one pass: checks the harness, not speed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        import_library()
        import workloads
        workloads.build(args.workload, args.seed, args.smoke, WORK)
        print("ready", flush=True)
        return 0
    if not (SRC / "crystalsum" / "__init__.py").is_file():
        print(f"error: no crystalsum package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
