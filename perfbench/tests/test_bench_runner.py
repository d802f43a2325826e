"""The output checker, the per-child measurements and the time cap."""

import os
import signal
import sys
import time

import pytest

import cases
import runner

CASE = cases.Case(argv=("answer",), stdout=b"42\n")


def _child(code: str) -> list[str]:
    """A prefix that runs ``code`` in place of ``python -m glhom.cli``."""
    return [sys.executable, "-c", code]


@pytest.fixture
def run(tmp_path):
    return runner.Runner(str(tmp_path), str(tmp_path), deadline=time.perf_counter() + 60)


def test_expected_stdout_and_exit_code_pass(run):
    outcome = run.run(CASE, prefix=_child("print(42)"))
    assert outcome.ok and not outcome.wrong_answer


def test_altered_stdout_is_a_wrong_answer(run):
    outcome = run.run(CASE, prefix=_child("print(43)"))
    assert not outcome.ok
    assert outcome.wrong_answer


def test_nonzero_exit_is_a_failure_even_with_the_right_stdout(run):
    outcome = run.run(CASE, prefix=_child("import sys; print(42); sys.exit('boom')"))
    assert outcome.exit_code == 1
    assert not outcome.ok
    assert not outcome.wrong_answer  # it did not claim success
    assert outcome.stderr_tail == "boom"


def test_crash_by_signal_is_a_failure(run):
    outcome = run.run(CASE, prefix=_child("import os, signal; os.kill(os.getpid(), signal.SIGKILL)"))
    assert outcome.exit_code == -9
    assert not outcome.ok


def test_time_cap_kills_and_fails(run):
    run.deadline = time.perf_counter() + 0.5
    outcome = run.run(CASE, prefix=_child("import time; time.sleep(30)"))
    assert outcome.timed_out and not outcome.ok
    assert 0.4 < outcome.wall_s < 5


def test_peak_rss_is_per_child_not_a_running_maximum(run):
    big = run.run(CASE, prefix=_child("b = bytearray(200 << 20); b[::4096] = b'x' * len(b[::4096]); print(42)"))
    small = run.run(CASE, prefix=_child("print(42)"))
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < 100


def test_children_get_only_the_pinned_environment(run, monkeypatch):
    env = runner.child_env("/somewhere/src")
    assert env["PYTHONPATH"] == "/somewhere/src"
    assert env["PYTHONHASHSEED"] == "0"
    assert set(env) <= {"PATH", "PYTHONPATH", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE"}
    monkeypatch.setenv("BENCH_SHOULD_NOT_LEAK", "1")
    outcome = run.run(
        CASE, prefix=_child("import os; print(42 if 'BENCH_SHOULD_NOT_LEAK' not in os.environ else 0)")
    )
    assert outcome.ok


def test_cpu_time_is_the_childs_own(run):
    idle = run.run(CASE, prefix=_child("import time; time.sleep(0.3); print(42)"))
    busy = run.run(CASE, prefix=_child("import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\nprint(42)"))
    assert idle.ok and busy.ok
    assert idle.cpu_s < 0.2 <= busy.cpu_s


def test_interrupted_wait_kills_and_reaps_the_child(tmp_path):
    def interrupt(*_):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(KeyboardInterrupt):
            runner.spawn(
                _child("import time; time.sleep(30)"), runner.child_env("src"),
                str(tmp_path / "out"), str(tmp_path / "err"), 60.0,
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # nothing left to reap
        os.waitpid(-1, os.WNOHANG)
