"""Fork server of the lawson-bipolar benchmark.

``run.py`` starts this script once per benchmark run, in a hermetic
environment with ``PYTHONPATH=src`` and the run's scratch directory as
working directory.  It imports ``lawson_bipolar.cli`` once and then reads
one JSON request per line on standard input:

    {"argv": ["verify", "--r", "3", "--k", "1", "--out", "v.json"], "timeout": 60}

For each request it forks a child that runs ``cli.main(argv)`` with cold
caches (this process never computes anything) and answers with one JSON
line: the child's spawn-to-exit wall time, exit code, peak RSS and CPU time
(from ``os.wait4`` on that child), and the times of a short fixed speed
probe run five times just before the fork and five times just after the
child has ended.  A request ``{"argv": null}`` runs the five probes alone.

The probe uses no code of the package.  The shared cores of a cloud host
switch between a fast and a slow state that lasts seconds; the probe reads
which state the command ran in, so ``run.py`` can scale the command's time
to a core of fixed speed.  Many short probes read that state better than a
few long ones, because ``run.py`` takes their median.

The process exits at the end of its input.  On SIGTERM it kills the
running child, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

PROBE_LOOP = 6_700
PROBE_N = 60
PROBE_REPEATS = 5

_child = 0


def make_probe():
    """A fixed mix of interpreted code and a small dense eigenproblem,
    about 1.3 ms on a fast core, timed ``PROBE_REPEATS`` times."""
    import numpy as np
    from scipy import linalg

    matrix = np.random.default_rng(1).standard_normal((PROBE_N, PROBE_N))

    def once() -> float:
        clock = time.perf_counter
        t0 = clock()
        acc = 0.0
        for i in range(PROBE_LOOP):
            acc += (i * 0.5) % 7
        linalg.eigvals(matrix)
        return clock() - t0

    def probe() -> list[float]:
        return [once() for _ in range(PROBE_REPEATS)]

    probe()   # warm-up: LAPACK and the code paths are loaded
    return probe


def run_child(cli, argv: list[str], timeout: float) -> None:
    """Body of the forked child; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.alarm(max(int(timeout), 1))   # the default action ends the child
        code = cli.main(argv) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def fork_command(cli, argv: list[str], timeout: float) -> dict:
    global _child
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        run_child(cli, argv, timeout)
    _child = pid
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    _child = 0
    return {"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def on_sigterm(signum, frame):
    if _child:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    os._exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    import lawson_bipolar.cli as cli

    probe = make_probe()
    # the children's output goes to a log file, the replies to the real stdout
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    log = os.open("forkserver.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.dup2(log, 1)
    os.dup2(log, 2)
    for line in sys.stdin:
        request = json.loads(line)
        before = probe()
        if request["argv"] is None:
            reply = {"probe_s": before}
        else:
            reply = fork_command(cli, request["argv"], request["timeout"])
            reply["probe_s"] = before + probe()
        replies.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
