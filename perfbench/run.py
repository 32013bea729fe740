"""leibnizkit benchmark: one workload, one seed, a closed loop for --seconds.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload catalog-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke      # one round of every workload, same checks

One caller, one thread: the next job starts when the previous one returns.
With ``--trace 0`` the loop is untraced and the last stdout line carries the
end-to-end metrics; their times are seconds at a reference CPU speed,
measured by a SpeedSampler during the run (see speed.py), and the raw wall
times go to the info line.  With ``--trace 1`` every job runs twice,
untraced and traced (alternating which goes first); the traced runs give
the per-layer metrics, the difference gives the tracing overhead, and the
two rendered outputs of every job must be byte-identical.  Spans and the
result are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

from speed import SpeedSampler

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import leibnizkit from the checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "leibnizkit", "__init__.py")):
        fail("no src/leibnizkit under %s; run from the root of a source checkout" % ROOT)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    import leibnizkit
    import workloads  # noqa: F401  (imports every leibnizkit module it drives)
    t1 = time.perf_counter()
    if not os.path.abspath(leibnizkit.__file__).startswith(SRC + os.sep):
        fail("imported leibnizkit from %s, not from %s" % (leibnizkit.__file__, SRC))
    return t0, t1


def provenance():
    """Commit (when the checkout is a git tree) and a digest of the sources."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "leibnizkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def setup(workload, seed, expected, reps=SETUP_REPS):
    """Build the rounds of jobs and warm up; repeated reps times.  Returns the
    rounds and the (start, end) perf_counter readings of each repetition."""
    import workloads

    make = workloads.WORKLOADS[workload]
    workdir = os.path.join(OUT, "inputs-%s-%d" % (workload, seed))
    intervals = []
    for _ in range(reps):
        t0 = time.perf_counter()
        rounds = make(random.Random("%s:%d" % (workload, seed)), expected, workdir)
        workloads.warm_up()
        intervals.append((t0, time.perf_counter()))
    return rounds, intervals


def run_job(job, tracer=None):
    """Time one job; returns (start, end, result or None, problems)."""
    run = job.run
    if tracer is not None:
        if job.span:
            run = functools.partial(tracer.call, job.span, run)
        run = functools.partial(tracer.call, "job", run)
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a job that raises counts as failed, the loop goes on
        return t0, time.perf_counter(), None, ["raised %s: %s" % (type(exc).__name__, exc)]
    return t0, time.perf_counter(), result, []


def checked(job, result, problems):
    if result is None:
        return "", problems
    try:
        text, found = job.check(result)
    except Exception as exc:
        return "", problems + ["check raised %s: %s" % (type(exc).__name__, exc)]
    return text, problems + found


def max_bits(scalars):
    best = 0
    for c in scalars:
        for q in (c.re, c.im):
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def count_facts(result, counts):
    """Per-layer counts read from a job's inputs and outputs."""
    a = result.get("algebra")
    if a is not None:
        counts["core.products"] += sum(1 for v in a.gamma.values() for c in v if c)
        counts["scalars.input_max_bits"] = max(counts["scalars.input_max_bits"],
                                               max_bits(c for v in a.gamma.values() for c in v))
    der = result.get("der")
    if der is not None:
        n2 = a.dim * a.dim
        counts["cohomology.der_unknowns"] += n2
        counts["cohomology.der_rank"] += n2 - der.dim
        counts["cohomology.der_dim"] += der.dim
        counts["cohomology.inn_dim"] += result["inn"].dim
        counts["scalars.der_max_bits"] = max(counts["scalars.der_max_bits"],
                                             max_bits(v for m in der.basis for v in m.flat()))
    if "grade" in result:
        counts["gradations.found" if result["grade"] is not None else "gradations.exhausted"] += 1


COUNTERS = ("core.products", "cohomology.der_unknowns", "cohomology.der_rank",
            "cohomology.der_dim", "cohomology.inn_dim", "scalars.input_max_bits",
            "scalars.der_max_bits", "gradations.found", "gradations.exhausted")


def tail(times, pct):
    """Job time at the pct-th percentile, and the number of jobs beyond it."""
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if len(times) > 1 else times[0]
    return value, sum(1 for t in times if t > value)


def loop(rounds, seconds, traced, max_jobs=None):
    """Closed loop over the rounds until the deadline (cycling if needed)."""
    from tracing import Tracer
    import workloads

    jobs = [job for round_ in rounds for job in round_]
    tracer = Tracer() if traced else None
    state = {"intervals": [], "traced_times": [], "failed": 0, "digest": hashlib.sha256(),
             "counts": dict.fromkeys(COUNTERS, 0), "problems": [], "tracer": tracer}
    start = time.perf_counter()
    k = 0
    while k == 0 or (time.perf_counter() - start < seconds and k != max_jobs):
        job = jobs[k % len(jobs)]
        if traced:
            if k % 2:
                t0, t1, result, problems = run_job(job)
            with tracer.patched(workloads.MODULES):
                t0_t, t1_t, result_t, problems_t = run_job(job, tracer)
            if not k % 2:
                t0, t1, result, problems = run_job(job)
            text, problems = checked(job, result, problems)
            text_t, problems_t = checked(job, result_t, problems_t)
            problems = problems + ["traced: " + p for p in problems_t]
            if text != text_t:
                problems.append("traced and untraced outputs differ")
            state["traced_times"].append(t1_t - t0_t)
            if result_t is not None:
                count_facts(result_t, state["counts"])
        else:
            t0, t1, result, problems = run_job(job)
            text, problems = checked(job, result, problems)
        state["intervals"].append((t0, t1))
        state["digest"].update(text.encode("utf-8"))
        if problems:
            state["failed"] += 1
            state["problems"].append((job.key, problems))
        k += 1
    # timing statistics use whole rounds only, so every run weighs every
    # stratum the same; all jobs count as attempted
    whole = k - k % len(rounds[0])
    state["stat_intervals"] = state["intervals"][:whole or k]
    return state


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one round of every workload, traced and untraced")
    args = parser.parse_args(argv)

    # the untraced run samples the CPU speed throughout, import included
    sampler = SpeedSampler() if not (args.trace or args.smoke) else None
    with sampler or contextlib.nullcontext():
        import_interval = import_program()
        import reference
        import workloads

        expected = reference.load_expected()
        info = provenance()
        if args.smoke:
            return smoke(args.seed, expected, info)
        if args.workload not in workloads.WORKLOADS:
            fail("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))

        rounds, setup_intervals = setup(args.workload, args.seed, expected)
        state = loop(rounds, args.seconds, traced=bool(args.trace))
    # (wall, reference-speed) seconds, without the calibration passes
    seconds = sampler.seconds if sampler else lambda t0, t1: (t1 - t0, t1 - t0)
    import_s = seconds(*import_interval)
    setup_reps = [seconds(*iv) for iv in setup_intervals]
    jobs = [seconds(*iv) for iv in state["stat_intervals"]]
    times = [ref for _, ref in jobs]
    attempted, failed = len(state["intervals"]), state["failed"]
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(times, pct)

    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": attempted, "timed_jobs": len(times),
        "round_jobs": len(rounds[0]), "failed": failed,
        "failed_share": failed / attempted, "tail_percentile": pct,
        "jobs_beyond_tail": beyond, "import_s": import_s[0],
        "setup_reps_s": [wall for wall, _ in setup_reps],
        "output_digest": state["digest"].hexdigest(),
        "closed_loop": "1 caller, 1 thread; layers run sequentially, so no layer waits for another",
    })
    for key, problems in state["problems"][:20]:
        print("FAILED %s: %s" % (key, "; ".join(problems)))
    if beyond < 10:
        print("note: only %d jobs beyond p%d (fewer than 10)" % (beyond, pct))

    if args.trace:
        metrics = trace_metrics(state)
        info["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        state["tracer"].write(spans_path)
        info["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        wall = [w for w, _ in jobs]
        info["wall"] = {"jobs_per_s": len(wall) / sum(wall), "job_p50_s": statistics.median(wall),
                        "job_tail_s": tail(wall, pct)[0],
                        "setup_s": import_s[0] + statistics.median(w for w, _ in setup_reps)}
        info["speed"] = sampler.summary()
        metrics = {
            "jobs_per_s": metric(len(times) / sum(times), "1/s"),
            "job_p50_s": metric(statistics.median(times), "s"),
            "job_tail_s": metric(tail_s, "s"),
            "setup_s": metric(import_s[1] + statistics.median(r for _, r in setup_reps), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print("samples: %d jobs attempted, %d in whole rounds of %d timed; job_tail_s is p%d "
          "(%d jobs beyond); failed_share %.4g"
          % (attempted, len(times), len(rounds[0]), pct, beyond, failed / attempted))
    print(json.dumps({"info": info}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def trace_metrics(state):
    """Per-layer metrics from the traced half of a --trace 1 run, per traced job."""
    from tracing import LAYERS

    totals = state["tracer"].layer_totals()
    jobs = len(state["traced_times"])
    metrics = {}
    for layer in LAYERS:
        busy, calls, errors = totals.get(layer, (0.0, 0, 0))
        metrics[layer + "_s"] = metric(busy / jobs, "s/job")
        metrics[layer + "_calls"] = metric(calls / jobs, "calls/job")
        metrics[layer + "_errors"] = metric(errors, "count")
    metrics["job.self_s"] = metric(totals.get("job", (0.0,))[0] / jobs, "s/job")
    for name in COUNTERS:
        if name.startswith("scalars."):
            metrics[name] = metric(state["counts"][name], "bits")
        else:
            metrics[name] = metric(state["counts"][name] / jobs, "count/job")
    plain = sum(t1 - t0 for t0, t1 in state["intervals"]) / jobs
    traced = sum(state["traced_times"]) / jobs
    metrics["trace.jobs"] = metric(jobs, "count")
    metrics["trace.untraced_job_s"] = metric(plain, "s/job")
    metrics["trace.traced_job_s"] = metric(traced, "s/job")
    metrics["trace.overhead_s"] = metric(traced - plain, "s/job")
    metrics["trace.overhead_share"] = metric((traced - plain) / plain, "share")
    return metrics


def smoke(seed, expected, info):
    """One round of every workload, untraced and traced, with every check."""
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        rounds, setup_intervals = setup(name, seed, expected, reps=1)
        state = loop(rounds, float("inf"), traced=True, max_jobs=len(rounds[0]))
        bad += state["failed"]
        for key, problems in state["problems"]:
            print("FAILED %s %s: %s" % (name, key, "; ".join(problems)))
        print("smoke %-14s jobs %d failed %d setup %.3fs traced %.3fs untraced %.3fs"
              % (name, len(state["intervals"]), state["failed"],
                 setup_intervals[0][1] - setup_intervals[0][0], sum(state["traced_times"]),
                 sum(t1 - t0 for t0, t1 in state["intervals"])))
    print(json.dumps({"info": info, "smoke_failed": bad}, sort_keys=True))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
