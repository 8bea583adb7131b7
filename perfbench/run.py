"""prelog-lab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep,szego,montecarlo,all} --seed N
                             --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  The scenarios are generated from the seed into
`.perfbench/`, the jobs run in fresh worker processes (perfbench/worker.py),
and every job's CSV is checked against the oracles in perfbench/oracles.py.
With --trace 0 the end-to-end metrics are printed; with --trace 1 a second,
traced worker gives the per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every job ran and passed its checks.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5  # fresh interpreters per run, the worker's own set-up included
WORKER_TIMEOUT_S = 150


def _read_git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(thread_count):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "prelog_lab_thread_count": thread_count,
        "env": {k: os.environ.get(k) for k in
                ("PRELOG_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "PYTHONDONTWRITEBYTECODE")},
        "git_sha": _read_git_sha(),
    }


def _spawn(work, manifest_path, name, setup_only=False):
    result_path = work / f"{name}.json"
    argv = [sys.executable, str(WORKER), str(manifest_path), str(result_path)]
    spawned_at = time.monotonic()
    argv.append(repr(spawned_at))
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(jobs, result, reference=None):
    """Failed job count and the problems found.

    A job fails on a nonzero exit code, an empty CSV, an oracle mismatch, or
    a CSV digest that differs from the job's first run (in this worker, or in
    the reference worker when one is given).
    """
    texts = {int(k): v for k, v in result["texts"].items()}
    bound_text = {}
    for index, (cmd, _, path, _) in enumerate(jobs):
        if cmd == "bound":
            bound_text[path] = texts.get(index)
    bad_jobs = {}
    for index, (cmd, _, path, scen) in enumerate(jobs):
        problems = oracles.check_job(cmd, scen, texts.get(index, ""), bound_text.get(path))
        if problems:
            bad_jobs[index] = problems
    first = {}
    if reference is not None:
        first = {rec[0]: rec[4] for rec in reference["records"] if rec[1] == 0}
    failed, problems = 0, []
    for index, pass_no, _, code, digest in result["records"]:
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}: {result['errors'].get(str(index), '')[-500:]}")
        first.setdefault(index, digest)
        if digest != first[index]:
            reasons.append("CSV digest differs between runs of the same seed")
        reasons += bad_jobs.get(index, [])
        if reasons:
            failed += 1
            problems.append(f"job {index} ({jobs[index][0]} {Path(jobs[index][2]).name}) "
                            f"pass {pass_no}: " + "; ".join(reasons))
    return failed, problems


def check_probe(probe, outputs):
    """Problems of the untimed precision-probe jobs; they do not fail the run."""
    problems = []
    for (cmd, _, path, scen), (code, text, err) in zip(probe, outputs):
        reasons = [f"exit code {code}: {err.strip()[-300:]}"] if code != 0 else []
        reasons += oracles.check_job(cmd, scen, text) if code == 0 else []
        if reasons:
            problems.append(f"{Path(path).name}: " + "; ".join(reasons))
    return problems


def jobs_per_s(result, per_pass):
    """Median over the passes of the run of jobs completed per second."""
    return statistics.median(per_pass / wall for wall in result["pass_wall_s"])


def end_to_end(workload, result, setup_samples, per_pass):
    latencies_ms = np.array([rec[2] for rec in result["records"]]) * 1e3
    pct = workloads.TAIL_PERCENTILE[workload]
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": jobs_per_s(result, per_pass),
        "job_p50_ms": float(np.percentile(latencies_ms, 50)),
        "job_tail_ms": float(np.percentile(latencies_ms, pct)),
        "peak_rss_mb": result["peak_rss_mb"],
        "cpu_s": statistics.median(result["pass_cpu_s"]),
    }


def run_workload(workload, seed, seconds, trace):
    """(correct, attempted, failed, metrics, report) for one workload run."""
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = workloads.write_jobs(workload, seed, work / "scenarios")
        probe = workloads.write_jobs(workload, seed, work / "probe", probe=True)
        manifest = {"jobs": [[cmd, path] for cmd, _, path, _ in jobs],
                    "probe": [[cmd, path] for cmd, _, path, _ in probe],
                    "seconds": seconds, "min_jobs": workloads.min_jobs(workload),
                    "trace": False}
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
        setup = []
        if not trace:
            setup = [_spawn(work, manifest_path, f"setup{i}", setup_only=True)["setup_s"]
                     for i in range(SETUP_SAMPLES - 1)]
        result = _spawn(work, manifest_path, "untraced")
        setup.append(result["setup_s"])
        failed, problems = check_outputs(jobs, result)
        attempted = len(result["records"])
        report["fingerprint"] = fingerprint(result["thread_count"])
        report["jobs"] = {"count": attempted, "passes": result["passes"],
                          "per_pass": len(jobs), "pass_wall_s": result["pass_wall_s"],
                          "tail_percentile": workloads.TAIL_PERCENTILE[workload]}
        e2e = end_to_end(workload, result, setup, len(jobs))
        report["fail_ratio"] = failed / attempted
        report["setup_samples_s"] = setup
        report["end_to_end"] = e2e
        report["probe"] = check_probe(probe, result["probe"])
        if trace:
            spans_path = OUT / f"spans-{workload}-seed{seed}.npz"
            manifest.update(trace=True, spans_path=str(spans_path))
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            traced = _spawn(work, manifest_path, "traced")
            traced_failed, traced_problems = check_outputs(jobs, traced, reference=result)
            failed += traced_failed
            attempted += len(traced["records"])
            problems += traced_problems
            metrics = dict(traced["layers"])
            traced_rate = jobs_per_s(traced, len(jobs))
            metrics["trace.jobs_per_s"] = traced_rate
            metrics["trace.overhead_pct"] = (e2e["jobs_per_s"] / traced_rate - 1) * 100
            metrics["bounds.logdet_precision_failures"] = len(report["probe"])
            report["spans"] = str(spans_path.relative_to(ROOT))
        else:
            metrics = e2e
        report["problems"] = problems
        report["metrics"] = metrics
        (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1), encoding="utf-8")
        return failed == 0, attempted, failed, metrics, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(report, spec):
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    jobs = report["jobs"]
    print(f"== {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={int(report['trace'])}: {jobs['count']} jobs in {jobs['passes']} passes "
          f"of {jobs['per_pass']}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    notes = {"setup_s": f"median of {len(report['setup_samples_s'])} fresh interpreters",
             "job_tail_ms": f"p{jobs['tail_percentile']} of {jobs['count']} jobs",
             "job_p50_ms": f"of {jobs['count']} jobs",
             "jobs_per_s": f"median over {jobs['passes']} passes",
             "cpu_s": f"user + system CPU per pass, median over {jobs['passes']} passes",
             "peak_rss_mb": "ru_maxrss of the worker process"}
    for name, value in report["end_to_end"].items():
        print(f"  {name:<16} {value:14.6g} {units[name]:<4} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<16} {report['fail_ratio']:14.6g} {'1':<4} failed / attempted")
    if report["trace"]:
        for name, value in sorted(report["metrics"].items()):
            print(f"  {name:<40} {value:16.8g} {units.get(name, '')}")
    for problem in report["problems"][:20]:
        print("  FAIL " + problem)
    for problem in report["probe"]:
        print("  precision probe (untimed, not counted as failed): " + problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (ROOT / "src" / "prelog_lab" / "cli.py").is_file():
        print(f"error: no prelog_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        ok, n, bad, values, report = run_workload(workload, args.seed, args.seconds,
                                                  bool(args.trace))
        _print_report(report, spec)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = "" if len(names) == 1 else f"{workload}."
        metrics.update({prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in reported})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
