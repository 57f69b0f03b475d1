"""Benchmark of lawson-bipolar: timed CLI commands and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rank-sweep --seed 0 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and listed, with the reason
for each, in ``BENCHMARK.json``.

The commands of a workload are ``lawson_bipolar.cli`` invocations.  Each
runs in a process forked, with cold caches, from a fork server that has
imported the package once (``forkserver.py``), so one command costs what a
fresh ``python -m lawson_bipolar.cli`` process costs after its import, and
the import is measured on its own.  ``--trace 0`` runs the commands in
turn, repeating the list, until ``--seconds`` have passed and each command
has run (twice on mesh-export), and reports the end-to-end metrics:

- ``command_s``: spawn-to-exit wall time of each command, scaled to a core
  of fixed speed (below), median over its runs, summed over the commands;
- ``setup_s``: interpreter start plus ``import lawson_bipolar.cli`` in a
  fresh process, scaled likewise, median of several spawns after a warm-up;
- ``peak_rss_mb``: the largest peak RSS of any one command, taken from
  ``os.wait4`` on that child;
- ``ok_frac``: operations whose output passed its oracle, over operations
  attempted (an operation is one command: a rank report, a verify report
  or a mesh file).

Scaling.  The cores of a shared cloud host switch, for seconds at a time,
between a fast state and a slow one in which all code runs up to 1.8 times
slower, so raw times of runs a minute apart spread by 25-30%.  The fork
server times a short fixed probe, which uses no code of the package, five
times just before and five times just after each command; a time is scaled
by ``PROBE_REF_S`` over the median of those ten probes, which reads it as
if on a core where the probe takes ``PROBE_REF_S``.  A change to the package moves scaled and raw times
alike; the raw medians and the probe are in the record line.

``--trace 1`` runs the commands once through the fork server, then starts
``trace.py`` twice: a traced in-process replay of the same commands and a
probe of each layer's public functions, which counts as one more
operation.  It reports the per-layer metrics, and ``trace.overhead_s``: the
replay's time minus the time of the untraced commands, both scaled.

Every process is pinned to one core, and every spawn is hermetic:
``PYTHONPATH`` is ``src`` only, ``LAWSON_BIPOLAR_TOL`` is removed, BLAS and
OpenMP run one thread, and outputs go to a scratch directory inside the
checkout that is removed at the end.  The last line of standard output is
the result object; the line before it records the machine, the git
revision, the raw times and the spread of every sampled metric.  The same
record, and the spans of a traced run, are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rank-sweep", "verify-battery", "mesh-export")
SETUP_SPAWNS = 5
#: probe time of the reference core; the probe's time on a fast core of a
#: 2-core Xeon cloud VM, Python 3.11, numpy 2.4, scipy 1.17
PROBE_REF_S = 0.0013
#: the run gives up on further work after this many seconds
DEADLINE_S = 165.0


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    probe_s: float = PROBE_REF_S

    @property
    def scaled_s(self) -> float:
        return self.wall_s * PROBE_REF_S / self.probe_s


def hermetic_env() -> dict:
    env = {key: val for key, val in os.environ.items()
           if key not in ("LAWSON_BIPOLAR_TOL", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class ForkServer:
    """The ``forkserver.py`` process: one JSON request and reply per line."""

    def __init__(self, work: Path, env: dict, log: Path):
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "forkserver.py")], cwd=work, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True, bufsize=1)

    def request(self, argv, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"fork server exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        """End of input stops the server; SIGTERM makes it kill a running
        command first.  Returns once the server has ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self.proc.stdout.close()


class Bench:
    """Spawns, times and checks the commands of one benchmark run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = hermetic_env()
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.log = work / "child.log"
        self.server = ForkServer(work, self.env, self.log)

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    def spawn(self, argv: list[str]) -> Proc:
        """Run one fresh interpreter to completion; time, peak RSS and CPU
        time come from ``os.wait4`` on that child alone.  A child still
        running at the deadline is killed and reported with exit code -9."""
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            killer = threading.Timer(self.remaining(), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:   # interrupted before the reap
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        return Proc(wall, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, proc.returncode)

    def probe(self) -> list[float]:
        return self.server.request(None, 0)["probe_s"]

    def setup_times(self) -> list[Proc]:
        argv = ["-c", "import lawson_bipolar.cli"]
        self.spawn(argv)   # warm-up: byte-code caches and the page cache
        procs = []
        for _ in range(SETUP_SPAWNS):
            before = self.probe()
            proc = self.spawn(argv)
            if proc.exit_code != 0:
                raise RuntimeError("import lawson_bipolar.cli failed; see "
                                   f"{self.log.name}:\n{self.log.read_text()[-2000:]}")
            proc.probe_s = statistics.median(before + self.probe())
            procs.append(proc)
        return procs

    def command(self, inv: workloads.Invocation) -> Proc:
        """Fork one command, then check its output."""
        (self.work / inv.out).unlink(missing_ok=True)
        reply = self.server.request(list(inv.argv), self.remaining())
        self.record(inv, reply["exit_code"])
        return Proc(reply["wall_s"], reply["peak_rss_mb"], reply["cpu_s"],
                    reply["exit_code"], statistics.median(reply["probe_s"]))

    def record(self, inv: workloads.Invocation, exit_code: int) -> None:
        self.attempted += 1
        if not workloads.check(inv, self.work / inv.out, exit_code, self.digests):
            self.failed += 1

    def run_trace_child(self, mode: str, workload: str, seed: int,
                        out_dir: Path) -> dict:
        result = self.work / f"trace-{mode}.json"
        result.unlink(missing_ok=True)
        proc = self.spawn([str(HERE / "trace.py"), mode, "--workload", workload,
                           "--seed", str(seed), "--result", str(result),
                           "--spans", str(out_dir / f"{workload}-{mode}.spans.npz")])
        if proc.exit_code != 0 or not result.is_file():
            return {"metrics": {}, "errors": [f"trace.py {mode} exited {proc.exit_code}"]}
        return json.loads(result.read_text())

    def close(self) -> None:
        self.server.close()


def spread(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples),
           "min": min(samples), "max": max(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def setup_record(setup: list[Proc]) -> tuple[float, dict]:
    scaled = [p.scaled_s for p in setup]
    return statistics.median(scaled), {
        "setup_s": scaled, "setup_raw_s": [p.wall_s for p in setup],
        "setup_probe_s": [p.probe_s for p in setup]}


def untraced(bench: Bench, invs, seconds: float, setup: list[Proc]) -> tuple[dict, dict]:
    # the mesh oracle needs a repeated output to test byte-identity
    min_runs = 2 if any(inv.kind == "mesh" for inv in invs) else 1
    runs: list[list[Proc]] = [[] for _ in invs]
    t0 = time.monotonic()

    def done() -> bool:
        return (time.monotonic() - t0 >= seconds
                and min(len(r) for r in runs) >= min_runs)

    for inv, inv_runs in itertools.cycle(zip(invs, runs)):
        if done():
            break
        longest = max((p.wall_s for p in inv_runs), default=0.0)
        if time.monotonic() + 2 * longest > bench.deadline:
            break   # out of time: report what has run
        inv_runs.append(bench.command(inv))
    runs = [r for r in runs if r]
    setup_s, samples = setup_record(setup)
    procs = [p for r in runs for p in r]
    metrics = {
        "command_s": (sum(statistics.median(p.scaled_s for p in r) for r in runs), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in procs), "MB"),
        "ok_frac": (1.0 - bench.failed / max(bench.attempted, 1), "ratio"),
    }
    samples.update({
        "command_raw_s": sum(statistics.median(p.wall_s for p in r) for r in runs),
        "command_scaled_s": [[p.scaled_s for p in r] for r in runs],
        "command_wall_s": [[p.wall_s for p in r] for r in runs],
        "command_cpu_s": [[p.cpu_s for p in r] for r in runs],
        "probe_s": [p.probe_s for p in procs],
        "peak_rss_mb": [p.peak_rss_mb for p in procs],
    })
    return metrics, samples


def traced(bench: Bench, invs, workload: str, seed: int, setup: list[Proc],
           out_dir: Path) -> tuple[dict, dict]:
    procs = [bench.command(inv) for inv in invs]
    wall = sum(p.wall_s for p in procs)

    before = bench.probe()
    replay = bench.run_trace_child("replay", workload, seed, out_dir)
    replay_scale = PROBE_REF_S / statistics.median(before + bench.probe())
    codes = replay.get("exit_codes", [])
    codes += [1] * (len(invs) - len(codes))
    for inv, code in zip(invs, codes):
        bench.record(inv, code)
    output_bytes = sum((bench.work / inv.out).stat().st_size
                       for inv in invs if (bench.work / inv.out).is_file())
    probe = bench.run_trace_child("probe", workload, seed, out_dir)
    bench.attempted += 1
    errors = replay["errors"] + probe["errors"]
    if probe["errors"]:
        bench.failed += 1
    for err in errors:
        print(err, file=sys.stderr)

    metrics = dict(probe["metrics"])
    metrics.update(replay["metrics"])
    imports = [m["cli.import_s"][0] for m in (replay["metrics"], probe["metrics"])
               if "cli.import_s" in m]
    if imports:
        metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    if "trace.replay_s" in metrics:
        metrics["trace.overhead_s"] = (
            metrics["trace.replay_s"][0] * replay_scale - sum(p.scaled_s for p in procs), "s")
    _, samples = setup_record(setup)
    samples.update({"command_raw_s": wall,
                    "spans": {"replay": replay.get("spans", {}),
                              "probe": probe.get("spans", {})}})
    return {k: tuple(v) for k, v in metrics.items()}, samples


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), platform.processor())
    except OSError:
        info["cpu"] = platform.processor()
    for dist in ("numpy", "scipy"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    return info


def git_info() -> dict:
    """Revision and dirty flag; both null unless the checkout root is the
    top of a git work tree."""
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"revision": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lawson_bipolar" / "cli.py").is_file():
        print(f"perfbench: no src/lawson_bipolar under {ROOT}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through the finally blocks that stop the running
    # child and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    # one core for the benchmark, the fork server and every command, so a
    # command runs where its probes ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    bench = None
    try:
        bench = Bench(work, deadline)
        invs = workloads.invocations(args.workload, args.seed)
        setup = bench.setup_times()
        if args.trace:
            metrics, samples = traced(bench, invs, args.workload, args.seed,
                                      setup, out_dir)
        else:
            metrics, samples = untraced(bench, invs, args.seconds, setup)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)

    spreads = {name: spread(samples[name])
               for name in ("setup_s", "setup_raw_s", "probe_s", "peak_rss_mb")
               if samples.get(name)}
    if "command_scaled_s" in samples:
        spreads["command_scaled_s"] = [spread(r) for r in samples["command_scaled_s"]]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "invocations": [" ".join(inv.argv) for inv in invs],
            "machine": machine_info(), "git": git_info(),
            "probe_ref_s": PROBE_REF_S, "command_raw_s": samples["command_raw_s"],
            "spread": spreads}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(info, samples=samples, result=result)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
