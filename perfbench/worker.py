"""One fresh benchmark process: set up, then run the job list in a closed loop.

    python3 perfbench/worker.py MANIFEST RESULT SPAWNED_AT [--setup-only]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; setup time runs from there until `import prelog_lab.cli` and the
loading of every scenario file are done.  Jobs go through
`prelog_lab.cli.main(argv)` in this process, one after another: each waits
for the previous one.  Passes over the job list repeat until the run has
lasted the manifest's `seconds` and holds at least `min_jobs` jobs (and at
least two passes, so that every job is repeated).  The result is written to
RESULT as JSON; the parent checks the outputs.  The untraced worker then
runs the manifest's precision-probe jobs once each, untimed.

`python -m prelog_lab.cli` cannot drive the jobs: the module has no
`__main__` guard, so it imports the package and exits 0 without running a
subcommand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _setup(manifest):
    sys.path.insert(0, str(ROOT / "src"))
    import prelog_lab.cli
    from prelog_lab import scenario

    source = Path(prelog_lab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"prelog_lab was imported from {source}, not from this checkout")
    for path in dict.fromkeys(path for _, path in manifest["jobs"]):
        scenario.load_scenario(path)
    return prelog_lab.cli


def _run_job(cli, cmd, path):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([cmd, "--scenario", path])
        except Exception:  # a crash is a failed job; the loop goes on
            traceback.print_exc(file=err)
            code = None
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(cli, manifest, tracer=None):
    """Timed closed loop over the job list; returns the result dict."""
    jobs = manifest["jobs"]
    records = []  # [job index, pass, latency s, exit code, sha256 of stdout]
    texts, errors = {}, {}
    pass_wall, pass_cpu = [], []
    start = time.perf_counter()
    passes = 0
    while True:
        if tracer is not None:
            tracer.begin_pass()
        cpu0, wall0 = _cpu(), time.perf_counter()
        for index, (cmd, path) in enumerate(jobs):
            if tracer is not None:
                tracer.job = len(records)
            latency, code, text, err = _run_job(cli, cmd, path)
            records.append([index, passes, latency, code,
                            hashlib.sha256(text.encode()).hexdigest()])
            if passes == 0:
                texts[index] = text
            if err and index not in errors:
                errors[index] = err[-2000:]
        pass_wall.append(time.perf_counter() - wall0)
        pass_cpu.append(_cpu() - cpu0)
        if tracer is not None:
            tracer.end_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= manifest["seconds"] and len(records) >= manifest["min_jobs"]
                and passes >= 2):
            break
    return {"records": records, "texts": texts, "errors": errors, "passes": passes,
            "elapsed_s": elapsed, "pass_wall_s": pass_wall, "pass_cpu_s": pass_cpu}


def main(argv):
    manifest_path, result_path, spawned_at = argv[0], argv[1], float(argv[2])
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    cli = _setup(manifest)
    result = {"setup_s": time.monotonic() - spawned_at}
    if "--setup-only" not in argv:
        from prelog_lab import _parallel

        result["thread_count"] = _parallel.thread_count()
        if manifest["trace"]:
            import spans

            with spans.Tracer() as tracer:
                result.update(run(cli, manifest, tracer))
            result["layers"] = tracer.layer_metrics()
            tracer.save(manifest["spans_path"])
        else:
            result.update(run(cli, manifest))
            result["probe"] = [list(_run_job(cli, cmd, path)[1:])
                               for cmd, path in manifest["probe"]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
