#!/usr/bin/env python3
"""Benchmark of the orbeuler command line, end to end and layer by layer.

    python3 bench/run.py --workload germ-batch --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere inside a checkout; the package is taken from ``src/`` of
the checkout this file belongs to.  ``--seed`` fixes the generated corpora.

``--trace 0`` measures the end-to-end metrics with tracing off.  One client
(``spawn.py``) runs the workload's CLI processes as a closed loop, each
process started only after the previous one has ended; each repetition
runs, in turn, a calibration loop, four set-up probes (the workload's
subcommand on a trivial input) and the workload.  Every output is checked,
and the checker is itself tested on a corrupted copy of the first outputs.
Medians over the repetitions are reported.

``--trace 1`` makes the separate traced run and reports the per-layer
metrics (see ``tracing.py``), together with CLI-level figures taken from
separate processes.

``--workload all`` runs every workload, interleaved within each repetition,
then (with ``--trace 1``) a traced run of each, and prints all of it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and per-run
details go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import check
import corpus
import spec
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
SETUP_PROBES = 4  # per repetition: set-up time is short and noisy


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, bad spec)."""


# --- processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OE_DEFAULT_CAP", "OE_TRACE"):
        env.pop(name, None)
    return env


class Run(NamedTuple):
    """One finished child: wall time, exit code, peak RSS and CPU time of the
    child and the workers it reaped, and its standard output."""

    wall: float
    code: int
    rss_mib: float
    cpu_s: float
    stdout: bytes


class Spawner:
    """The client: runs one child at a time through ``spawn.py`` and waits
    for it to end before the next starts (a closed loop)."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, args, tag: str) -> Run:
        out, err = WORK / f"{tag}.out", WORK / f"{tag}.err"
        request = {"args": [sys.executable, *args], "out": str(out), "err": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Run(reply["wall"], reply["code"], reply["rss_kib"] / 1024, reply["cpu_s"], out.read_bytes())

    def cli(self, argv, tag: str) -> Run:
        return self.run(["-m", "orbeuler", "--format", "machine", *argv], tag)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def calibrate_ms() -> float:
    """A fixed pure-Python Fraction loop: tracks the CPU speed of the run."""
    start = perf_counter()
    for k in range(1, 2001):
        Fraction(k, k + 7) * Fraction(k + 3, k + 11) + Fraction(1, k)
    return (perf_counter() - start) * 1e3


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


# --- workloads ---------------------------------------------------------------


def _write(directory: Path, name: str, doc) -> str:
    path = directory / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, recorded: dict, directory: Path, probe: bool = False) -> dict:
    """The workload's corpus and its CLI jobs.  A job is one CLI process:
    argv, item count, expected exit code and a checker returning the number
    of failed items for a parsed output."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "local-batch":
        own = corpus.local_batch(seed, 400 if probe else 10_000)
        path = _write(directory, "local.json", own["docs"])
        jobs = [{"label": "local", "argv": ["local", path, "--jobs", "1"], "items": len(own["docs"]),
                 "exit": 0, "check": lambda p, e=own["expected"]: check.local_items(p, e)}]
    elif workload == "germ-batch":
        own = (corpus.germ_batch(seed, recorded, 10, ((31,), (30,))) if probe
               else corpus.germ_batch(seed, recorded))
        path = _write(directory, "germs.json", own["polys"])
        jobs = [{"label": "germ", "argv": ["germ", path, "--cap", "64", "--jobs", "2"], "items": len(own["polys"]),
                 "exit": 0, "check": lambda p, f=own["families"], e=own["expected"]: check.germ_items(p, f, e)}]
    elif workload == "global-pairs":
        sizes = {"k": 30, "n": 6, "d": 30, "cusps": 150} if probe else {}
        own = {"pairs": corpus.global_pairs(seed, recorded, **sizes)}
        jobs = []
        for case in own["pairs"]:
            points = len(case["doc"]["points"])
            jobs.append({"label": case["name"], "argv": ["global", _write(directory, f"{case['name']}.json", case["doc"])],
                         "items": points, "exit": case["expect"]["exit"],
                         "check": lambda p, x=case["expect"], n=points: 0 if check.global_values(p, x) else n})
    else:
        own = corpus.cusp_optimize(seed, 6000 if probe else 60_000)
        jobs = [{"label": "cusps", "argv": ["cusps", "--optimize", "--grid", str(own["grid"])], "items": 1,
                 "exit": 0, "check": lambda p, g=own["grid"], e=own["expected"]: 0 if check.cusp_values(p, g, e) else 1}]
    return {"own": own, "jobs": jobs}


class Tally:
    """Items attempted and failed across every checked CLI process."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, job, run: Run) -> int:
        payload = check.parse(run.stdout)
        failed = job["items"] if run.code != job["exit"] or payload is None else min(job["items"], job["check"](payload))
        self.attempted += job["items"]
        self.failed += failed
        return failed


def run_jobs(jobs, spawner: Spawner, tag: str, tally: Tally):
    runs = [spawner.cli(job["argv"], f"{tag}-{job['label']}") for job in jobs]
    failed = sum(tally.record(job, run) for job, run in zip(jobs, runs))
    return runs, failed


SETUP_JOB = {"items": 1, "exit": 0,
             "check": lambda p: 0 if check.setup_output(p) else 1}


# --- end to end --------------------------------------------------------------


def end_to_end(workloads, seed: int, seconds: float, recorded: dict, spawner: Spawner, tally: Tally) -> dict:
    built = {w: build(w, seed, recorded, WORK / f"{w}-{seed}") for w in workloads}
    for w in workloads:  # warm-up: byte-compile the package
        spawner.cli(corpus.SETUP_ARGV[w], f"{w}-setup")
    samples = {w: {"wall": [], "items_per_s": [], "setup": [], "rss": [], "failed": 0} for w in workloads}
    calib = []
    start, reps = perf_counter(), 0
    while True:
        calib.append(calibrate_ms())
        for w in workloads:
            for _ in range(SETUP_PROBES):
                setup = spawner.cli(corpus.SETUP_ARGV[w], f"{w}-setup")
                tally.record(SETUP_JOB, setup)
                samples[w]["setup"].append(setup.wall)
            runs, failed = run_jobs(built[w]["jobs"], spawner, w, tally)
            if reps == 0:
                broken = check.self_test(built[w]["jobs"], [check.parse(r.stdout) for r in runs])
                if broken:
                    raise SetupError(f"checker self-test failed for {w}: {broken}")
            items = sum(job["items"] for job in built[w]["jobs"])
            wall = sum(r.wall for r in runs)
            s = samples[w]
            s["wall"].append(wall)
            s["items_per_s"].append((items - failed) / wall)
            s["rss"].append(max(r.rss_mib for r in runs))
            s["failed"] += failed
        reps += 1
        elapsed = perf_counter() - start
        if reps >= MIN_REPS and elapsed * (reps + 1) / reps > seconds:
            break
    results = {"calib_ms": calib, "reps": reps}
    for w in workloads:
        s = samples[w]
        results[w] = {
            "metrics": {
                "wall_s": statistics.median(s["wall"]),
                "items_per_s": statistics.median(s["items_per_s"]),
                "setup_s": statistics.median(s["setup"]),
                "peak_rss_mb": statistics.median(s["rss"]),
            },
            "samples": s,
        }
    return results


# --- traced run --------------------------------------------------------------


def load_package():
    sys.path.insert(0, str(SRC))
    import orbeuler
    import orbeuler.cli

    if not Path(orbeuler.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported orbeuler from {orbeuler.__file__}, not from {SRC}")
    return orbeuler, orbeuler.cli.main


def _with_jobs(job, jobs: int) -> dict:
    argv = job["argv"]
    return {**job, "argv": [(str(jobs) if i and argv[i - 1] == "--jobs" else a) for i, a in enumerate(argv)]}


def traced(workload: str, seed: int, seconds: float, recorded: dict, spawner: Spawner, tally: Tally) -> dict:
    api, cli_main = load_package()
    start = perf_counter()
    directory = WORK / f"{workload}-{seed}"
    built = build(workload, seed, recorded, directory)
    probe = {w: build(w, seed, recorded, WORK / f"{w}-{seed}-probe", probe=True) for w in spec.WORKLOADS}
    jobs = built["jobs"]

    cli = {}
    interp = [spawner.run(["-c", "pass"], "interp").wall for _ in range(5)]
    imports = [spawner.run(["-c", "import orbeuler.cli"], "import").wall for _ in range(5)]
    cli["cli.interp_s"] = statistics.median(interp)
    cli["cli.import_s"] = statistics.median(imports) - cli["cli.interp_s"]
    runs, _ = run_jobs(jobs, spawner, f"{workload}-traced", tally)
    cli["cli.cpu_s"] = sum(r.cpu_s for r in runs)
    cli["cli.stdout_bytes"] = sum(len(r.stdout) for r in runs)
    pool_jobs = jobs if any("--jobs" in job["argv"] for job in jobs) else probe["local-batch"]["jobs"]
    serial, _ = run_jobs([_with_jobs(job, 1) for job in pool_jobs], spawner, "pool-serial", tally)
    parallel, _ = run_jobs([_with_jobs(job, 2) for job in pool_jobs], spawner, "pool-parallel", tally)
    cli["cli.pool_speedup"] = sum(r.wall for r in serial) / sum(r.wall for r in parallel)

    probe_own = {"docs": probe["local-batch"]["own"]["docs"], "germs": probe["germ-batch"]["own"],
                 "pairs": probe["global-pairs"]["own"], "grid": probe["cusp-optimize"]["own"]["grid"]}
    passes = []
    while True:
        pass_start = perf_counter()
        calib = calibrate_ms()
        tracer = tracing.Tracer()
        t_main = t_plain = t_traced = 0.0
        # cli.main and both mirrors alternate per CLI process, so that drift in
        # machine speed does not land on one of them.
        for job, part in zip(jobs, tracing.parts(workload, built["own"])):
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["--format", "machine", *_with_jobs(job, 1)["argv"]])
            t1 = perf_counter()
            tracing.mirror(api, workload, part, tracing.NullTracer)
            t2 = perf_counter()
            tracing.mirror(api, workload, part, tracer)
            t3 = perf_counter()
            t_main, t_plain, t_traced = t_main + t1 - t0, t_plain + t2 - t1, t_traced + t3 - t2
        stats = {}
        tracing.probes(api, workload, built["own"], probe_own, tracer, stats)
        m = tracing.layer_metrics(tracer, stats, corpus.LOCAL_CLASSES)
        layer_s = tracing.mirror_layer_time_ns(tracer) / 1e9
        m["cli.self_s"] = t_main - layer_s
        m["trace.coverage"] = layer_s / t_main
        m["trace.overhead_ratio"] = t_traced / t_plain
        m["machine.calib_ms"] = calib
        passes.append(m)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update(cli)
    return {"metrics": {name: metrics[name] for name in spec.PER_LAYER}, "passes": len(passes)}


# --- output ------------------------------------------------------------------


def _line(workload, name, value, unit, note=""):
    print(f"{workload:14s} {name:36s} {value:14.6g} {unit:6s}{note}")


def check_spec() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    workloads = [w["name"] for w in declared["workloads"]]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    if (workloads != list(spec.WORKLOADS) or e2e != spec.END_TO_END
            or layers != {k: v[:2] for k, v in spec.PER_LAYER.items()}):
        raise SetupError("BENCHMARK.json and bench/spec.py disagree")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "orbeuler" / "__init__.py").is_file():
            raise SetupError(f"no package source at {SRC / 'orbeuler'}")
        check_spec()
        recorded = corpus.load_recorded()
    except SetupError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    spawner = Spawner(child_env())  # first, while this process is still small
    tally, machine = Tally(), machine_info()
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']}")
    out, details = {}, {"machine": machine, "seed": args.seed, "seconds": args.seconds}
    try:
        if args.trace == 0 or args.workload == "all":
            e2e = end_to_end(workloads, args.seed, args.seconds, recorded, spawner, tally)
            details["end_to_end"] = e2e
            print(f"end to end: {e2e['reps']} repetitions, calib_ms median {statistics.median(e2e['calib_ms']):.4g}")
            for w in workloads:
                for name, value in e2e[w]["metrics"].items():
                    _line(w, name, value, spec.END_TO_END[name][0])
                    out[f"{w}:{name}" if args.workload == "all" else name] = (value, spec.END_TO_END[name][0])
        if args.trace == 1:
            share = args.seconds / len(workloads)
            for w in workloads:
                result = traced(w, args.seed, share, recorded, spawner, tally)
                details[f"traced:{w}"] = result
                print(f"traced {w}: {result['passes']} passes")
                for name, value in result["metrics"].items():
                    unit, _, moves = spec.PER_LAYER[name]
                    _line(w, name, value, unit, f"  -> {moves}")
                    out[f"{w}:{name}" if args.workload == "all" else name] = (value, unit)
    except SetupError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
    ratio = tally.failed / tally.attempted
    print(f"{'':14s} {'failed_ratio':36s} {ratio:14.6g} 1      ({tally.failed} of {tally.attempted} items)")
    with open(WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, default=str)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
