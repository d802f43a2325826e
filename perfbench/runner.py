"""Spawn one CLI invocation, measure it, and check its output."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from cases import Case

# Seconds a single invocation may run before it is killed and counted failed.
CASE_CAP_S = 60.0

# A fixed pure-Python loop, timed in the parent before every invocation.
# Its lower quartile over a run says how fast the shared machine ran.
PROBE_ITERATIONS = 60_000


@dataclass(frozen=True)
class Outcome:
    case: Case
    wall_s: float  # spawn to exit
    cpu_s: float  # user + sys of this child alone
    peak_rss_mb: float  # this child's own peak RSS, from wait4
    exit_code: int  # negative when killed by a signal
    timed_out: bool
    stdout: bytes
    stderr_tail: str  # last stderr line, kept only when the exit code is not 0

    @property
    def ok(self) -> bool:
        """The invocation gave the expected answer in time."""
        return not self.timed_out and self.exit_code == 0 and self.stdout == self.case.stdout

    @property
    def wrong_answer(self) -> bool:
        """Exited as if it had succeeded, but printed something else."""
        return not self.timed_out and self.exit_code == 0 and self.stdout != self.case.stdout


def probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def child_env(src_dir: str) -> dict[str, str]:
    """The children's whole environment: nothing else is inherited."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": src_dir,
        "PYTHONHASHSEED": "0",
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def spawn(argv: list[str], env: dict[str, str], out_path: str, err_path: str, cap_s: float):
    """Run ``argv`` to completion; return (wall_s, rusage, exit_code, timed_out).

    The child writes to files rather than pipes, so it can never block on a
    full pipe while the parent waits.  The parent waits on a pidfd, which
    becomes readable when the child exits, and only then reaps it with
    wait4 -- so the rusage belongs to this child alone and a kill after
    the cap can never hit a recycled pid.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = select.select([pidfd], [], [], cap_s)[0]
            end = time.perf_counter()
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
    except BaseException:  # interrupted: leave no child behind, then re-raise
        os.kill(pid, signal.SIGKILL)  # not reaped yet, so the pid is still this child's
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    return end - start, usage, os.waitstatus_to_exitcode(status), not exited


class Runner:
    """Runs cases as ``python -m glhom.cli ...`` children, one at a time."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.env = child_env(os.path.join(root, "src"))
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")
        self.deadline = deadline  # perf_counter time after which no child may run
        self.probes: list[float] = []

    def cap(self) -> float:
        return max(0.0, min(CASE_CAP_S, self.deadline - time.perf_counter()))

    def run(self, case: Case, prefix: list[str] | None = None) -> Outcome:
        argv = (prefix or [sys.executable, "-m", "glhom.cli"]) + list(case.argv)
        self.probes.append(probe())
        wall, usage, code, timed_out = spawn(
            argv, self.env, self.out_path, self.err_path, self.cap()
        )
        with open(self.out_path, "rb") as f:
            stdout = f.read()
        stderr_tail = ""
        if timed_out or code != 0:
            with open(self.err_path, "rb") as f:
                lines = f.read().decode(errors="replace").strip().splitlines()
            stderr_tail = lines[-1] if lines else ""
        return Outcome(
            case=case,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=code,
            timed_out=timed_out,
            stdout=stdout,
            stderr_tail=stderr_tail,
        )


def environment(root: str, env: dict[str, str]) -> dict[str, str]:
    """What the numbers depend on, for the record."""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=env, check=False,
    ).stdout.strip() or "missing"
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip() or "unknown"
    return {
        "interpreter": sys.executable,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": str(len(os.sched_getaffinity(0))),
        "commit": commit,
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
    }

