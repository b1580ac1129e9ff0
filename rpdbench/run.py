"""Benchmark of the rpd library and CLI: three workloads, end to end and per layer.

Run one workload from the root of a checkout:

    python3 rpdbench/run.py --workload compare-files --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps every layer in spans and reports the per-layer metrics.
``--workload all`` runs each workload in its own process, untraced and then
traced, and prints every metric by name and unit; add ``--smoke`` for tiny
inputs that finish in seconds. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, with provenance, go to ``.rpdbench-out/`` in the checkout.
See README.md in this directory for the workloads and what each metric is
expected to move.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".rpdbench-out"
WORK = ROOT / ".rpdbench-work"

SETUP_REPEATS = 3
JOB_METRIC = {"pair": "pair_s", "matrix": "matrix_s", "map": "map_s",
              "decompose": "decompose_s", "nulltest": "nulltest_s",
              "train": "train_s", "eval": "eval_s"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s") or name == "nullmodel.s_per_replicate":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("resid_max"):
        return "ratio"
    return "count"


def import_rpd():
    """Import the library from this checkout's ``src``, and nowhere else."""
    if not (SRC / "rpd" / "__init__.py").is_file():
        sys.exit(f"rpdbench: no rpd sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rpd
    import rpd.cli
    if Path(rpd.__file__).resolve().parent != (SRC / "rpd").resolve():
        sys.exit(f"rpdbench: imported rpd from {rpd.__file__}, not from {SRC}")
    return rpd


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args, workload) -> dict:
    import importlib.metadata

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "rpd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in ("RPD_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
        "seed": args.seed,
        "seconds": args.seconds,
        "preset": "smoke" if args.smoke else "full",
        "sizes": workload.size,
        "inputs": workload.inputs,
    }


def cpu_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(rpd, cls, args, size, workdir):
    """Warm up once on tiny inputs, then prepare the real inputs several times."""
    from workloads import SIZES
    warm = cls(rpd, args.seed, workdir / "warmup", SIZES["smoke"][cls.name])
    warm.workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    warm.prepare()
    for index, kind in enumerate(warm.kinds):
        with contextlib.suppress(Exception, SystemExit):  # failures show in timed jobs
            warm.capture(kind, index, warm.run_job(kind, index))
    warmup_s = time.perf_counter() - t0
    shutil.rmtree(warm.workdir)

    prepare_s = []
    workload = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            shutil.rmtree(workload.workdir)
            workload = None
        target = workdir / f"inputs{repeat}"
        target.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = cls(rpd, args.seed, target, size)
        workload.prepare()
        prepare_s.append(time.perf_counter() - t0)
    return workload, warmup_s, prepare_s


def run_loop(workload, seconds: float, tracer):
    """Whole rounds of the workload's jobs while the next one fits in ``seconds``.

    The next round is predicted to take as long as the median round so far.
    """
    jobs = []
    counts = {kind: 0 for kind in workload.kinds}
    start = time.perf_counter()
    round_times = []
    while not round_times or (time.perf_counter() - start
                              + statistics.median(round_times) <= seconds):
        round_start = time.perf_counter()
        for kind in workload.kinds:
            job_id = len(jobs)
            index = counts[kind]
            counts[kind] += 1
            span = tracer.job_span(kind, job_id) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    handle = workload.run_job(kind, index)
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.finish_job(job_id)
                jobs.append({"kind": kind, "s": elapsed,
                             "record": workload.capture(kind, index, handle), "error": None})
            except (Exception, SystemExit) as exc:  # a failed job, counted as such
                jobs.append({"kind": kind, "s": time.perf_counter() - t0, "record": None,
                             "error": f"{type(exc).__name__}: {exc}"})
            handle = None  # release this output before the next job runs
        round_times.append(time.perf_counter() - round_start)
    return jobs, len(round_times)


def verify(workload, jobs) -> None:
    from reference import CheckFailed
    for job in jobs:
        if job["error"] is not None:
            continue
        try:
            workload.verify(job["kind"], job["record"])
        except CheckFailed as exc:
            job["error"] = f"check: {exc}"
        except Exception as exc:  # a malformed output fails its job
            job["error"] = f"check raised {type(exc).__name__}: {exc}"
        job["record"] = None


def run_workload(args) -> dict:
    rpd = import_rpd()
    import_s = time.perf_counter() - PROCESS_START
    from spans import Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    size = SIZES["smoke" if args.smoke else "full"][cls.name]
    workdir = WORK / f"{cls.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload, warmup_s, prepare_s = setup(rpd, cls, args, size, workdir)
        setup_s = import_s + warmup_s + statistics.median(prepare_s)
        if tracer:
            tracer.install(rpd)
            workload.span = tracer.span
        steal_before = cpu_steal()
        jobs, rounds = run_loop(workload, args.seconds, tracer)
        peak = peak_rss_mb()
        steal_after = cpu_steal()
        if tracer:
            tracer.uninstall()
        verify(workload, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for job in jobs if job["error"] is not None)
    by_kind = {kind: [job["s"] for job in jobs if job["kind"] == kind]
               for kind in workload.kinds}
    job_times = {JOB_METRIC[kind]: {"median": statistics.median(times), "n": len(times),
                                    "min": min(times), "max": max(times)}
                 for kind, times in by_kind.items()}
    steal_share = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        # Time the hypervisor gave the machine's CPUs to other guests.
        steal_share = ((steal_after[0] - steal_before[0])
                       / (steal_after[1] - steal_before[1]))
    details = {
        "workload": cls.name,
        "trace": args.trace,
        "rounds": rounds,
        "jobs": job_times,
        "wall_s": sum(job["s"] for job in jobs),
        "error_rate": failed / len(jobs),
        "cpu_steal_share": steal_share,
        "errors": [job["error"] for job in jobs if job["error"]][:10],
        "setup": {"import_s": import_s, "warmup_s": warmup_s, "prepare_s": prepare_s},
        "provenance": provenance(args, workload),
    }
    correct = failed == 0
    if tracer:
        metrics, check = layer_metrics(tracer, {i: job["kind"] for i, job in enumerate(jobs)},
                                       rounds, tracer.span_cost())
        details["trace_check"] = check
        correct = correct and check["identity_max_error_s"] <= 1e-6
        values = {name: (value, unit_of(name)) for name, value in metrics.items()}
    else:
        values = {"setup_s": (setup_s, "s"),
                  "round_s": (sum(t["median"] for t in job_times.values()), "s"),
                  "peak_rss_mb": (peak, "MB")}
    details["samples"] = {"round_s": rounds, "setup_s": len(prepare_s),
                          **{name: t["n"] for name, t in job_times.items()}}
    result = {"correct": correct, "attempted": len(jobs), "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()}}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{cls.name}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "details": details}, fh, indent=2)
    if tracer:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in tracer.to_records())

    print(f"{cls.name}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"jobs {len(jobs)}  failed {failed}  error_rate {failed / len(jobs):.3g}  "
          f"cpu_steal_share {steal_share if steal_share is None else round(steal_share, 4)}")
    for name, t in job_times.items():
        print(f"  {name:<12} median {t['median']:.4f} s  (n={t['n']}, "
              f"min {t['min']:.4f}, max {t['max']:.4f})")
    for error in details["errors"]:
        print(f"  error: {error}")
    for name, (value, unit) in values.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    return result


def run_all(args) -> dict:
    """Every workload in its own process, untraced then traced."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"rpdbench: {name} (trace {trace}) exited "
                                 f"{proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare-files", "analyze-spaces", "train-spectral", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a check that finishes in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
