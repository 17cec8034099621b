"""Benchmark of `ucfam verify`, end to end or per layer.

    python3 bench/run.py --workload exhaustive-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it builds (byte-compiles) src/ucfam first.
With --trace 0 it starts a fresh `ucfam verify` process per repetition,
through the CLI entry point, until --seconds have passed, and reports the
median of each end-to-end metric over the repetitions.  With --trace 1 it
runs the per-layer replay of bench/layers.py instead.  Either way it checks
the program's outputs (bench/checks.py) and prints, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.

An operation is one family checked by the full catalog.  A family fails
when a non-conjecture check flags it or the run skips it.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import BENCH, RESULTS, ROOT, SRC, WORKLOADS, Workload

DEFAULT_SEED = 1
# Every process must be gone before the whole run's 180 s limit.
DEADLINE_S = 170.0
STARTED = time.monotonic()


@dataclass(frozen=True)
class Rep:
    """One verify process: its exit code, report bytes and resource figures."""

    code: int
    report: bytes
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn_verify(argv: list[str], workdir: Path, tag: str) -> Rep:
    """Run `ucfam verify <argv> --out <file>` in a fresh process and wait for it."""
    out = workdir / f"{tag}.json"
    with open(workdir / f"{tag}.stdout", "wb") as fo, open(workdir / f"{tag}.stderr", "wb") as fe:
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), repr(t0), str(SRC), *argv, "--out", str(out)]
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT)
        timer = threading.Timer(max(1.0, DEADLINE_S - (t0 - STARTED)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float("nan")
    for line in (workdir / f"{tag}.stderr").read_text().splitlines():
        if line.startswith("bench-setup-s "):
            setup = float(line.split()[1])
    return Rep(
        code=proc.returncode,
        report=out.read_bytes() if out.exists() else b"",
        wall_s=wall,
        setup_s=setup,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # kB on Linux; covers reaped workers
    )


def end_to_end(w: Workload, seed: int, seconds: int, workdir: Path) -> dict:
    size = checks.population(w)
    reps: list[Rep] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        i = len(reps)
        reps.append(spawn_verify(w.verify_argv(w.plan_seed(seed, i)), workdir, f"rep{i}"))

    problems = []
    failed = 0
    for i, rep in enumerate(reps):
        if rep.code != 0:
            problems.append(f"repetition {i} exited with {rep.code}")
        if w.exhaustive and rep.report != reps[0].report:
            problems.append(f"repetition {i} report differs from repetition 0")
        try:
            doc = json.loads(rep.report)
        except ValueError:
            problems.append(f"repetition {i} wrote no report")
            failed += size
            continue
        failed += checks.failed_families(doc, size)
        if not w.exhaustive or i == 0:
            problems += [f"repetition {i}: {p}" for p in checks.check_report(doc, w, size)]
    if w.parallel > 1:
        serial = spawn_verify(w.verify_argv(w.plan_seed(seed, 0), parallel=1), workdir, "serial")
        if serial.code != 0 or serial.report != reps[0].report:
            problems.append(f"serial run (exit {serial.code}) differs from --parallel {w.parallel}")

    med = statistics.median
    metrics = {
        "wall_s": (med(r.wall_s for r in reps), "s"),
        "setup_s": (med(r.setup_s for r in reps), "s"),
        "families_per_s": (med(size / (r.wall_s - r.setup_s) for r in reps), "families/s"),
        "cpu_s": (med(r.cpu_s for r in reps), "s"),
        "peak_rss_mb": (med(r.peak_rss_mb for r in reps), "MB"),
    }
    return {
        "problems": problems,
        "attempted": size * len(reps),
        "failed": failed,
        "metrics": metrics,
        "extra": {"repetitions": [r.__dict__ | {"report": len(r.report)} for r in reps]},
    }


def build() -> None:
    """Byte-compile the program and the benchmark so no repetition pays for it."""
    for path in (SRC / "ucfam", BENCH):
        if not compileall.compile_dir(str(path), quiet=1):
            raise SystemExit(f"could not compile {path}")


def git_revision() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="benchmark of ucfam verify")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ucfam" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'ucfam'}", file=sys.stderr)
        return 2
    build()
    w = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.trace:
            import layers

            out = layers.run(w, args.seed, args.seconds)
        else:
            out = end_to_end(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in out["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    record = dict(
        result,
        workload=w.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        problems=out["problems"],
        machine={"cpus": os.cpu_count(), "python": sys.version.split()[0], "revision": git_revision()},
        **out["extra"],
    )
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
