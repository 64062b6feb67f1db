"""Benchmark of the cyclofree command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload gauss-sieve --seed 0 --seconds 30 --trace 0

Each workload is a list of real ``python -m cyclofree.cli`` commands.  Every
command runs in a fresh interpreter, so ``lru_cache`` state starts cold as it
does for users, and the commands run one at a time from this process: a
closed loop with a single client.  ``--threads`` is never passed.

The run repeats the workload for ``--seconds`` seconds.  Each iteration first
times one bare ``import cyclofree.cli`` (the set-up every command pays) and
then each command from spawn to exit, reading the child's peak RSS with
``os.wait4``.  Every output is checked; a command fails on a non-zero exit, a
timeout or a failed check.

The benchmark and its children run on one CPU.  The cores of a shared host
change speed every few seconds, by up to 1.5x, as the other tenants come and
go.  So while a child runs, this process wakes every PROBE_INTERVAL_S on the
same CPU and times a fixed ~0.5 ms walk (``probe``).  Each command's wall time,
less the probes' own time, is scaled by the mean of REFERENCE_PROBE_S over
the probe times: it reads as seconds on the host at a steady reference speed.
``wall_s`` and ``setup_s`` are those scaled times; the raw ones are printed
with the samples.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` also runs the workload once more in a single traced process
(``bench/tracer.py``) and reports the self time and counts of each layer,
plus the tracing overhead: traced total minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment, the samples and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
REFERENCE_FILE = BENCH / "reference.json"

DEFAULT_SEED = 0  # the CLI's own default --seed; payload digests are recorded at it
COMMAND_TIMEOUT_S = 60.0
PROBE_INTERVAL_S = 0.05
# About the median probe time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest,
# so that scaled times stay close to raw ones there.
REFERENCE_PROBE_S = 0.0005

# Sizes are below full scale (radius 500 / 12, 2000 samples, a radius-150
# window), so that a 40 s run holds several iterations; the order of the
# layer shares stays as at full size.
GAUSS_SIEVE = ("sieve", "--n", "4", "--k", "2", "--radius", "300",
               "--prime-bound", "250000", "--format", "csv")
QUARTIC_DENSITY = ("density", "--n", "5", "--k", "2", "--radius", "11",
                   "--prime-bound", "100000")
PATCH_RADIUS = 100
PATCH_WINDOW = ("sieve", "--n", "4", "--k", "2", "--radius", str(PATCH_RADIUS), "--format", "csv")
SYMCHECK_SAMPLES = 1000
SYMCHECK = ("symcheck", "--n", "12", "--k", "2", "--radius", "5",
            "--samples", str(SYMCHECK_SAMPLES))

# Why each workload: see BENCHMARK.json and bench/README.md.
WORKLOADS = ("gauss-sieve", "quartic-density", "pointwise-verify")

# Per-layer metrics reported with --trace 1, in pipeline order.
LAYER_TIMES = (
    "cli.import",
    "prime_ideals.enumerate_prime_ideals",
    "prime_ideals.splitting_type",
    "arith.factor_integer",
    "lattices.ideal_lattice",
    "kfree.sieve_box",
    "lattices.points_in_box",
    "kfree.sorted_points",
    "cli.payload",
    "zeta.dedekind_zeta",
    "zeta.log_interval",
    "symmetries.generator_elements",
    "symmetries.verify_stabiliser_action",
    "prime_ideals.is_kfree",
    "cyclotomic.CycInt.norm",
    "prime_ideals.valuation",
    "kfree.patch_from_json",
    "kfree.is_admissible",
    "cli.main",
)
LAYER_COUNTS = (
    ("lattices.points_in_box.points", "count"),
    ("lattices.ideal_lattice.lattices", "count"),
    ("prime_ideals.enumerate_prime_ideals.ideals", "count"),
    ("kfree.sieve_box.calls", "count"),
    ("cli.payload.bytes", "bytes"),
    ("prime_ideals.splitting_type.calls", "count"),
    ("prime_ideals.is_kfree.calls", "count"),
    ("prime_ideals.valuation.calls", "count"),
    ("kfree.is_admissible.coset_ids", "count"),
    ("symmetries.verify_stabiliser_action.checked", "count"),
)


class CheckFailed(Exception):
    """A command's output does not match what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[bytes, bytes], None]  # (stdout, stderr); raises CheckFailed
    density: Optional[Callable[[bytes, bytes], dict]] = None  # finds the density report


@dataclass
class Outcome:
    wall_s: float  # raw: spawn to exit, less the probes
    speed: float  # mean of REFERENCE_PROBE_S / probe time while the child ran
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


# ---------------------------------------------------------------------------
# running children


def probe_walk(j: int, coords: list[int]):
    for c in range(-2, 3):
        coords[j] = c
        if j == 0:
            yield tuple(coords)
        else:
            yield from probe_walk(j - 1, coords)


def probe() -> float:
    """Seconds taken by a fixed walk of a 5^4 box into a dict, about 0.5 ms.

    Nested generators, tuples and a dict: the shape of the sieve's own work,
    which a plain arithmetic loop tracks less well when the host slows down.
    """
    start = time.perf_counter()
    seen = {}
    for point in probe_walk(3, [0] * 4):
        seen[point] = point[0] * point[1] % 5
    return time.perf_counter() - start


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, float, int]:
    """Run argv to completion; return (wall seconds, speed, peak RSS in MB, exit code).

    The wall time leaves out the probes taken while the child ran; speed is
    the mean of REFERENCE_PROBE_S / probe time over them and one taken right
    after the child ends.  The child is killed after COMMAND_TIMEOUT_S and is
    reaped on every path, also when this process is interrupted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = -1
        try:
            pidfd = os.pidfd_open(proc.pid)
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(PROBE_INTERVAL_S * 1000):
                probes.append(probe())
                if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if pidfd >= 0:
                os.close(pidfd)
        wall = time.perf_counter() - start - sum(probes)
    probes.append(probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = statistics.fmean(REFERENCE_PROBE_S / t for t in probes)
    return wall, speed, usage.ru_maxrss / 1024.0, proc.returncode


def run_cli(argv: tuple[str, ...], work: Path) -> Outcome:
    out, err = work / "cmd.out", work / "cmd.err"
    wall, speed, rss, code = spawn([sys.executable, "-m", "cyclofree.cli", *argv], out, err)
    return Outcome(wall, speed, rss, code, out.read_bytes(), err.read_bytes())


def time_import(work: Path) -> float:
    """Scaled seconds of one bare ``import cyclofree.cli`` in a fresh interpreter."""
    wall, speed, _, code = spawn([sys.executable, "-c", "import cyclofree.cli"],
                                 work / "imp.out", work / "imp.err")
    if code != 0:
        raise SystemExit(f"bench: import cyclofree.cli failed: {(work / 'imp.err').read_text()}")
    return wall * speed


# ---------------------------------------------------------------------------
# output checks


def stderr_records(stderr: bytes) -> list[dict]:
    records = []
    for line in stderr.decode("utf-8", "replace").splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            records.append(value)
    return records


def check_manifest(stdout: bytes, stderr: bytes, command: str) -> list[dict]:
    records = stderr_records(stderr)
    manifests = [r for r in records if "output_digest" in r]
    require(len(manifests) == 1, f"{command}: expected one manifest on stderr")
    require(manifests[0]["command"] == command, f"{command}: manifest names {manifests[0]['command']}")
    require(
        manifests[0]["output_digest"] == hashlib.sha256(stdout).hexdigest(),
        f"{command}: manifest digest does not match the payload",
    )
    return records


def check_density_report(report: dict, expected_count: int, inverse_zeta: str) -> None:
    """Exact counts, and an interval that holds the independent 1/zeta_K(k)."""
    side = 2 * int(report["r"]) + 1
    volume = side ** {4: 2, 5: 4}[int(report["n"])]
    require(report["box_volume"] == volume, f"box_volume {report['box_volume']} != {volume}")
    require(report["point_count"] == expected_count,
            f"point_count {report['point_count']} != {expected_count}")
    require(Fraction(report["empirical_density"]) == Fraction(expected_count, volume),
            "empirical_density is not point_count / box_volume")
    lower = Fraction(report["reference_lower"])
    upper = Fraction(report["reference_upper"])
    require(lower <= Fraction(inverse_zeta) <= upper,
            f"[{float(lower)}, {float(upper)}] misses 1/zeta_K = {inverse_zeta[:20]}")


def report_on_stderr(stdout: bytes, stderr: bytes) -> dict:
    """The density report that `sieve` writes to stderr after its manifest."""
    reports = [r for r in stderr_records(stderr) if "reference_lower" in r]
    require(len(reports) == 1, "expected one density report on stderr")
    return reports[0]


def report_on_stdout(stdout: bytes, stderr: bytes) -> dict:
    """The density report that `density` writes as its payload."""
    return json.loads(stdout)


def sieve_check(label: str, ref: dict, zeta_key: str) -> Callable[[bytes, bytes], None]:
    def check(stdout: bytes, stderr: bytes) -> None:
        check_manifest(stdout, stderr, "sieve")
        require(hashlib.sha256(stdout).hexdigest() == ref["digest"][label],
                f"{label}: CSV digest differs from the recorded one")
        check_density_report(report_on_stderr(stdout, stderr), ref["point_count"][label],
                             ref["inverse_zeta"][zeta_key])
    return check


def density_check(ref: dict) -> Callable[[bytes, bytes], None]:
    def check(stdout: bytes, stderr: bytes) -> None:
        check_manifest(stdout, stderr, "density")
        check_density_report(report_on_stdout(stdout, stderr), ref["point_count"]["quartic-density"],
                             ref["inverse_zeta"]["5"])
    return check


def symcheck_check(ref: dict, seed: int) -> Callable[[bytes, bytes], None]:
    def check(stdout: bytes, stderr: bytes) -> None:
        check_manifest(stdout, stderr, "symcheck")
        doc = json.loads(stdout)
        generators = ref["generators"]["12"]
        require(len(doc["elements"]) == generators, f"{len(doc['elements'])} generators, not {generators}")
        require(doc["total_failures"] == 0, f"symcheck reports {doc['total_failures']} failures")
        require(doc["total_checked"] == 2 * SYMCHECK_SAMPLES * generators,
                f"total_checked {doc['total_checked']} != 2 x {SYMCHECK_SAMPLES} x {generators}")
        if seed == DEFAULT_SEED:
            require(hashlib.sha256(stdout).hexdigest() == ref["digest"]["symcheck"],
                    "symcheck payload differs from the recorded one")
    return check


def admissible_check(ref: dict, seed: int, cells: int) -> Callable[[bytes, bytes], None]:
    # Every subset of a k-free window is admissible (heredity), so the
    # verdict is true and the payload bytes are known for any seed.
    expected = (json.dumps({"admissible": True, "n": 4, "k": 2, "cells": cells}, sort_keys=True)
                + "\n").encode("utf-8")

    def check(stdout: bytes, stderr: bytes) -> None:
        check_manifest(stdout, stderr, "admissible")
        require(stdout == expected, f"admissible payload {stdout[:80]!r} != {expected!r}")
        if seed == DEFAULT_SEED:
            require(hashlib.sha256(stdout).hexdigest() == ref["digest"]["admissible"],
                    "admissible payload differs from the recorded one")
    return check


# ---------------------------------------------------------------------------
# workloads


def write_patch(window_csv: bytes, seed: int, path: Path) -> int:
    """A seeded half-subset of the k-free window, as a full-window patch file."""
    lines = window_csv.decode("ascii").split("\n")[1:]
    kfree = {tuple(int(v) for v in line.split(",")) for line in lines if line}
    rng = random.Random(seed)
    r = PATCH_RADIUS
    shape = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    fill = "".join("1" if p in kfree and rng.random() < 0.5 else "0" for p in shape)
    path.write_text(json.dumps({"n": 4, "k": 2, "shape": [list(p) for p in shape], "fill": fill}),
                    encoding="utf-8")
    return fill.count("1")


def build_workload(name: str, seed: int, work: Path, ref: dict,
                   tally: Tally) -> tuple[list[Command], list[float]]:
    """The workload's commands, and the density widths its input preparation reported.

    gauss-sieve and quartic-density do not depend on the seed.
    """
    if name == "gauss-sieve":
        return [Command("gauss-sieve", GAUSS_SIEVE, sieve_check("gauss-sieve", ref, "4"), report_on_stderr)], []
    if name == "quartic-density":
        return [Command("quartic-density", QUARTIC_DENSITY, density_check(ref), report_on_stdout)], []
    # pointwise-verify: the patch comes from the program's own k-free window,
    # whose digest is checked like any other output.
    prep = Command("patch-window", PATCH_WINDOW, sieve_check("patch-window", ref, "4"), report_on_stderr)
    window, width = run_checked(prep, work, tally)
    if window.exit_code != 0:
        raise SystemExit(f"bench: the patch window sieve exited {window.exit_code}")
    patch = work / "patch.json"
    cells = write_patch(window.stdout, seed, patch)
    return [
        Command("symcheck", SYMCHECK + ("--seed", str(seed)), symcheck_check(ref, seed)),
        Command("admissible", ("admissible", "--in", str(patch)), admissible_check(ref, seed, cells)),
    ], [width] if width is not None else []


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, label: str, exit_code: int, check: Callable[[], None]) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            print(f"bench: {label} exited {exit_code}", file=sys.stderr)
            return
        try:
            check()
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            print(f"bench: {label} output check failed: {exc}", file=sys.stderr)


def density_width(cmd: Command, out: Outcome) -> Optional[float]:
    """(upper - lower) / lower of the command's density interval, checked or not."""
    if cmd.density is None or out.exit_code != 0:
        return None
    try:
        report = cmd.density(out.stdout, out.stderr)
        lower, upper = Fraction(report["reference_lower"]), Fraction(report["reference_upper"])
        return float((upper - lower) / lower)
    except (CheckFailed, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def run_checked(cmd: Command, work: Path, tally: Tally) -> tuple[Outcome, Optional[float]]:
    out = run_cli(cmd.argv, work)
    tally.record(cmd.label, out.exit_code, lambda: cmd.check(out.stdout, out.stderr))
    return out, density_width(cmd, out)


def repeat(seconds: float, body: Callable[[], None]) -> None:
    """Call body at least once, and again until the next call would pass the deadline."""
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return


def measure(commands: list[Command], seconds: float, work: Path, tally: Tally) -> dict:
    """Untraced iterations of the workload for about `seconds`."""
    time_import(work)  # writes __pycache__ so later imports are what users pay
    setup, walls, raw_walls, rss, widths = [], [], [], [], []

    def iteration():
        setup.append(time_import(work))
        wall, raw_wall, peak = 0.0, 0.0, 0.0
        for cmd in commands:
            out, width = run_checked(cmd, work, tally)
            wall += out.wall_s * out.speed
            raw_wall += out.wall_s
            peak = max(peak, out.rss_mb)
            if width is not None:
                widths.append(width)
        walls.append(wall)
        raw_walls.append(raw_wall)
        rss.append(peak)

    repeat(seconds, iteration)
    return {"setup_s": setup, "wall_s": walls, "raw_wall_s": raw_walls, "peak_rss_mb": rss,
            "density_rel_width": widths}


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# tracing


def traced_run(commands: list[Command], work: Path, tally: Tally) -> tuple[float, dict]:
    """Run all commands in one traced process; return (total seconds, trace document)."""
    spec, spans = work / "trace-commands.json", work / "trace-spans.json"
    files = [(work / f"trace{i}.out", work / f"trace{i}.err") for i in range(len(commands))]
    spec.write_text(json.dumps([
        {"argv": list(cmd.argv), "stdout": str(out), "stderr": str(err)}
        for cmd, (out, err) in zip(commands, files)
    ]), encoding="utf-8")
    total, _, _, code = spawn([sys.executable, str(TRACER), str(spec), str(spans)],
                           work / "tracer.out", work / "tracer.err")
    if code != 0:
        raise SystemExit(f"bench: tracer exited {code}: {(work / 'tracer.err').read_text()[-2000:]}")
    doc = json.loads(spans.read_text(encoding="utf-8"))
    for cmd, (out, err), exit_code in zip(commands, files, doc["exit_codes"]):
        stdout, stderr = out.read_bytes(), err.read_bytes()
        tally.record(f"traced {cmd.label}", exit_code, lambda: cmd.check(stdout, stderr))
    return total, doc


def self_times(spans: list) -> tuple[dict, float]:
    """Self time per span name, and the summed duration of the top-level spans (seconds)."""
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = {}
    top = 0
    for (name, start, end, parent), child in zip(spans, covered):
        totals[name] = totals.get(name, 0) + (end - start - child)
        if parent < 0:
            top += end - start
    return {k: v / 1e9 for k, v in totals.items()}, top / 1e9


def layer_metrics(total: float, doc: dict, untraced_wall: float) -> dict:
    own, top = self_times(doc["spans"])
    counts = doc["counts"]
    metrics = {f"{name}.s": (own.get(name, 0.0), "s") for name in LAYER_TIMES}
    metrics["process.other.s"] = (total - top, "s")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    removed, yielded = counts.get("kfree.sieve_box.removed", 0), counts.get("lattices.points_in_box.points", 0)
    metrics["kfree.removal_yield"] = (removed / yielded if yielded else 0.0, "ratio")
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (total - untraced_wall, "s")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclofree" / "cli.py").is_file() or not TRACER.is_file():
        print(f"bench: no cyclofree sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    # One CPU for this process and every child, so the probes see the
    # children's CPU.
    env = environment(args.seed)
    env["cpu_pinned"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu_pinned"]})
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        work = Path(tmp)
        commands, widths = build_workload(args.workload, args.seed, work, ref, tally)
        # With --trace 1, half the run is untraced (for the overhead) and half traced.
        samples = measure(commands, args.seconds / (1 + args.trace), work, tally)
        wall = statistics.median(samples["wall_s"])
        raw_wall = statistics.median(samples["raw_wall_s"])
        widths += samples["density_rel_width"]
        if not widths:
            print("bench: no command printed a readable density report", file=sys.stderr)
            return 1
        if args.trace:
            traced = []
            repeat(args.seconds / 2, lambda: traced.append(traced_run(commands, work, tally)))
            # The traced run with the median total; its self times add up to it.
            total, doc = sorted(traced, key=lambda run: run[0])[(len(traced) - 1) // 2]
            samples["traced_total_s"] = [run[0] for run in traced]
            metrics = layer_metrics(total, doc, raw_wall)
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (statistics.median(samples["setup_s"]), "s"),
                "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
                "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
                "density_rel_width": (max(widths), "ratio"),
            }

    print(json.dumps({"env": env, "workload": args.workload,
                      "iterations": len(samples["wall_s"]),
                      "samples": {k: v for k, v in samples.items() if k != "density_rel_width"}}))
    tail = tail_percentile(samples["wall_s"])
    if tail:
        print(f"wall_s p{tail[0]} over {len(samples['wall_s'])} iterations: {tail[1]:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
