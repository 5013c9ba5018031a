"""karyhom benchmark: real CLI jobs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke            # tiny instances, every path
    python3 bench/run.py --record           # rewrite bench/references.json

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` directory, nothing is installed.  With ``--trace 0`` every
job runs as its own ``python -m karyhom.cli`` subprocess, one at a time
(a closed loop with one client), and the last line of stdout carries the
end-to-end metrics, with times scaled to a reference host speed (see
``calibrate``).  With ``--trace 1`` the same jobs run in this process
through ``karyhom.cli.main``, alternating an untraced and a traced pass,
and the last line carries the per-layer metrics.  The line before it
records the environment, the seed and every job.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import refcheck  # noqa: E402
from workloads import WORKLOADS, algebra_sources, input_name, relabel, write_json  # noqa: E402

SETUP_REPS = 6
# Seconds that calibrate() takes at the reference host speed.  The
# end-to-end times are scaled to that speed (see calibrate).
CALIBRATION_REF_S = 0.2
JOB_TIMEOUT_S = 120
ENV = dict(os.environ, PYTHONPATH=str(SRC))
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- running one job -------------------------------------------------------


def cli_subprocess(argv) -> dict:
    """One CLI call in its own process group, with its resource usage.

    CPU time and max RSS come from wait4, so they include pool workers,
    which the CLI joins before it exits.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "karyhom.cli", *argv],
            cwd=ROOT, env=ENV, stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace")[-500:],
        }


def cli_inprocess(argv, cli) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    crash = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc, crash = None, f"raised {type(exc).__name__}: {exc}"
    return {
        "rc": rc,
        "wall_s": time.perf_counter() - t0,
        "stdout": out.getvalue(),
        "stderr": crash or err.getvalue()[-500:],
    }


def check_job(job, run, refs) -> dict:
    observation, _ = refcheck.parse(job.verb, run["rc"], run["stdout"])
    problem = refcheck.mismatch(refs.get(job.key), observation)
    record = {k: v for k, v in run.items() if k not in ("stdout", "stderr")}
    record["job"] = job.key
    if problem:
        record["problem"] = problem
        record["stderr"] = run["stderr"]
    return record


# -- host speed ------------------------------------------------------------


def calibrate() -> float:
    """Seconds the host takes, right now, to run ``calibration.py``.

    On a shared host the speed of a core swings by up to 2x within
    seconds, and job times swing with it.  So a calibration follows every
    CLI run, and the run's times are scaled by CALIBRATION_REF_S / (the
    mean of the calibrations just before and just after it); see
    ``at_reference_speed``.  Like a job, the calibration starts an
    interpreter; timed in this process instead, it tracked the jobs'
    swings less well.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibration.py")], check=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - t0


def calibrated_run(argv, calibrations) -> dict:
    """``cli_subprocess(argv)`` followed by a calibration, which the run
    records by its place in the chronological list ``calibrations``."""
    run = cli_subprocess(argv)
    calibrations.append(calibrate())
    run["calibration_index"] = len(calibrations) - 1
    return run


def at_reference_speed(calibrations):
    """scale(record, key): the record's time ``key`` at the reference speed."""

    def scale(record, key):
        i = record["calibration_index"]
        return record[key] * CALIBRATION_REF_S / ((calibrations[i - 1] + calibrations[i]) / 2)

    return scale


# -- inputs and set-up -----------------------------------------------------


@contextmanager
def workdir():
    WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def prepare_inputs(workload, jobs, rng, wd) -> dict:
    """{family_args: path} of the seeded relabelled documents, if any."""
    inputs = {}
    if not workload.relabel:
        return inputs
    for source in algebra_sources(jobs):
        run = cli_subprocess(["dump", *source])
        if run["rc"] != 0:
            raise BenchError(f"dump {' '.join(source)} exited {run['rc']}: {run['stderr']}")
        path = os.path.join(wd, input_name(source))
        write_json(path, relabel(json.loads(run["stdout"]), rng))
        inputs[source] = path
    return inputs


def measure_setup(jobs, inputs, reps, calibrations) -> list:
    """Records of ``reps`` dumps of every algebra of the workload.

    Each dump is interpreter start, import, build or parse, and
    serialise: the fixed cost every CLI call pays.  A dump must
    reproduce its relabelled input, and repeat itself exactly.
    """
    records, first = [], {}
    for _ in range(reps):
        for source in algebra_sources(jobs):
            path = inputs.get(source)
            run = calibrated_run(["dump", "--input", path] if path else ["dump", *source], calibrations)
            record = {
                "job": "dump " + " ".join(source),
                **{k: run[k] for k in ("rc", "wall_s", "calibration_index")},
            }
            try:
                doc = json.loads(run["stdout"])
            except ValueError:
                doc = None
            if path:
                with open(path, encoding="utf-8") as fh:
                    expected = json.load(fh)
            else:
                expected = first.setdefault(source, doc)
            if run["rc"] != 0 or doc is None or doc != expected:
                record["problem"] = "dump failed or does not reproduce the algebra"
            records.append(record)
    return records


# -- passes ----------------------------------------------------------------


def untraced_samples(argvs, refs, rng, seconds, calibrations) -> dict:
    """{job: [records]}: jobs one after another, in seeded passes.

    Every job runs once; after that the loop stops before the first job
    whose last duration would take it past ``seconds``, so the time is
    spent on whole jobs even when a pass does not fit.
    """
    samples = {job: [] for job in argvs}
    order, t_start = [], time.perf_counter()
    while True:
        if not order:
            order = list(argvs)
            rng.shuffle(order)
        job = order.pop(0)
        done = samples[job]
        if done and time.perf_counter() - t_start + done[-1]["wall_s"] + calibrations[-1] > seconds:
            return samples
        done.append(check_job(job, calibrated_run(argvs[job], calibrations), refs))


def traced_passes(argvs, refs, rng, seconds) -> tuple:
    """Alternating untraced and traced in-process passes.

    Returns (records, untraced pass walls, traced pass walls, per-pass
    layer metrics).
    """
    import karyhom.cli as cli

    records, plain_walls, traced_walls, layer_runs = [], [], [], []
    t_start = time.perf_counter()
    while True:
        order = list(argvs)
        rng.shuffle(order)
        plain = [check_job(job, cli_inprocess(argvs[job], cli), refs) for job in order]
        tracer = layers.Tracer()
        patches = layers.install(tracer)
        traced = []
        try:
            for job in order:
                traced.append(check_job(job, cli_inprocess(argvs[job], cli), refs))
                tracer.end_job()
        finally:
            layers.uninstall(patches)
        records += plain + traced
        plain_walls.append(sum(r["wall_s"] for r in plain))
        traced_walls.append(sum(r["wall_s"] for r in traced))
        layer_runs.append(tracer.metrics())
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(layer_runs) > seconds:
            return records, plain_walls, traced_walls, layer_runs


# -- one run ---------------------------------------------------------------


def environment() -> dict:
    import karyhom.cli

    revision = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        revision = git.stdout.strip() or None
    parsed = karyhom.cli.build_parser().parse_args(["compute", "--family", "abelian", "--k", "2", "--n", "1"])
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cli_jobs": getattr(parsed, "jobs", None),
        "loadavg_start": os.getloadavg(),
    }


def run(workload, seed, seconds, trace, *, smoke=False, setup_reps=SETUP_REPS) -> tuple:
    """(result line, detail) of one benchmark run."""
    refs = load_references()
    env = environment()
    rng = random.Random(seed)
    jobs = workload.job_list(smoke)
    with workdir() as wd:
        inputs = prepare_inputs(workload, jobs, rng, wd)
        argvs = {job: job.argv(inputs.get(job.family_args)) for job in jobs}
        if trace:
            records, plain, traced, layer_runs = traced_passes(argvs, refs, rng, seconds)
            metrics = {
                name: {"value": statistics.median(r[name] for r in layer_runs), "unit": unit}
                for name, unit in layers.METRIC_UNITS.items()
                if name != "trace.overhead_s"
            }
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(plain), "unit": "s"
            }
            passes, raw = len(layer_runs), None
        else:
            # Half the set-up repetitions run before the jobs and half
            # after, so that setup_s samples the whole run, not one moment.
            calibrations = [calibrate()]
            records = measure_setup(jobs, inputs, setup_reps // 2, calibrations)
            samples = untraced_samples(argvs, refs, rng, seconds, calibrations)
            records += measure_setup(jobs, inputs, setup_reps - setup_reps // 2, calibrations)
            scaled = at_reference_speed(calibrations)
            dumps = {}
            for r in records:
                dumps.setdefault(r["job"], []).append(r)
            job_records = [r for done in samples.values() for r in done]

            def typical_pass(groups, key, scale):
                # each job at its median
                return sum(statistics.median(scale(r, key) for r in done) for done in groups.values())

            metrics = {
                "wall_s": typical_pass(samples, "wall_s", scaled),
                "cpu_s": typical_pass(samples, "cpu_s", scaled),
                "peak_rss_mb": max(r["rss_mb"] for r in job_records),
                "setup_s": typical_pass(dumps, "wall_s", scaled),
            }
            raw = {
                "wall_s": typical_pass(samples, "wall_s", operator.getitem),
                "cpu_s": typical_pass(samples, "cpu_s", operator.getitem),
                "setup_s": typical_pass(dumps, "wall_s", operator.getitem),
                "calibrations_s": calibrations,
            }
            metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in metrics.items()}
            records += job_records
            passes = len(job_records) / len(samples)
    failed = sum(1 for r in records if "problem" in r)
    env["loadavg_end"] = os.getloadavg()
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "passes": passes, "unscaled": raw, "env": env, "jobs": records,
    }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, detail


# -- references ------------------------------------------------------------


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def record_references() -> int:
    """Run every job once by family and store its content, after checking
    it against the independent formulas in refcheck."""
    from karyhom.families import FamilySpec
    from karyhom.homology import betti

    def betti_at(job):
        p = dict(zip(job.family_args[::2], job.family_args[1::2]))
        alg = FamilySpec(p["--family"], k=int(p["--k"]), n=int(p["--n"])).build()
        return betti(alg, int(job.extra[1]))

    WORK.mkdir(exist_ok=True)
    refs, problems = {}, []
    for workload in WORKLOADS.values():
        for job in workload.jobs + workload.smoke_jobs:
            run = cli_subprocess(job.argv())
            observation, doc = refcheck.parse(job.verb, run["rc"], run["stdout"])
            found = ["unparseable output"] if doc is None else refcheck.formula_problems(job, doc, betti_at)
            problems += [f"{job.key}: {p}" for p in found]
            refs[job.key] = observation
            print(f"{run['wall_s']:7.2f}s exit {run['rc']}  {job.key}  {'OK' if not found else found}")
    if problems:
        print("not recorded:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    doc = {"recorded_with": environment(), "jobs": refs}
    doc["recorded_with"].pop("loadavg_start")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {REFERENCES.relative_to(ROOT)}")
    return 0


def smoke(seed) -> int:
    """Tiny instances of every workload through both paths and the gate."""
    bad = 0
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            result, detail = run(workload, seed, 0, trace, smoke=True, setup_reps=1)
            problems = [f"{r['job']}: {r['problem']}" for r in detail["jobs"] if "problem" in r]
            bad += bool(problems) or not result["correct"]
            print(json.dumps({
                "workload": workload.name, "trace": trace, "correct": result["correct"],
                "attempted": result["attempted"], "metrics": len(result["metrics"]), "problems": problems,
            }))
    return 1 if bad else 0


def check_checkout(need_references=True) -> None:
    if not (SRC / "karyhom" / "cli.py").is_file():
        raise BenchError(f"no karyhom sources under {SRC}")
    if need_references and not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES}")
    sys.path.insert(0, str(SRC))
    import karyhom

    if Path(karyhom.__file__).resolve().parent != SRC / "karyhom":
        raise BenchError(f"imported karyhom from {karyhom.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="tiny instances of every workload")
    mode.add_argument("--record", action="store_true", help="rewrite the reference file")
    args = parser.parse_args(argv)
    try:
        check_checkout(need_references=not args.record)
        if args.record:
            return record_references()
        if args.smoke:
            return smoke(args.seed)
        if not args.workload:
            parser.error("--workload is required")
        result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
