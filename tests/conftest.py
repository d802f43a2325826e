"""Shared fixtures and the small-profile pool used by the property suites."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import glhom
from glhom import DegreeProfile, parse_group_spec, profile_of

SEED = 20260811
GUARD_BYTES = 512 * 2**20


def make_profile(spec_text: str) -> DegreeProfile:
    return profile_of(parse_group_spec(spec_text))


def custom_profile(degrees) -> DegreeProfile:
    """The profile of a degree list in any written order, through its ``custom:`` spec."""
    order = sum(d * d for d in degrees)
    return make_profile(f"custom:order={order},degrees=" + ",".join(map(str, degrees)))


def run_guarded(*args: str, stdout=subprocess.PIPE) -> tuple[subprocess.CompletedProcess, float]:
    """``python ARGS`` in a child capped at GUARD_BYTES of address space.

    Returns the finished process (text output) and its wall time in seconds.
    An input that asks for more memory fails in the child instead of taking
    the machine's.  PYTHONUNBUFFERED is dropped, so the child's stdout is
    block-buffered, as when its output goes to a file or a pipe.  ``stdout``
    is a pipe read back by default, any target subprocess takes, or None for
    a child started with its fd 1 closed.
    """
    path = [str(Path(glhom.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))

    def guard():
        resource.setrlimit(resource.RLIMIT_AS, (GUARD_BYTES, GUARD_BYTES))
        if stdout is None:
            os.close(1)

    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=guard, timeout=60,
    )
    return result, time.perf_counter() - start


def run_cli_guarded(*argv: str, stdout=subprocess.PIPE):
    """``python -m glhom.cli ARGV`` under ``run_guarded``."""
    return run_guarded("-m", "glhom.cli", *argv, stdout=stdout)


def small_profiles(max_order: int = 24, max_coords: int = 10, max_ones: int = 12):
    """Every degree profile with sum d_i^2 <= max_order, d_1 = 1.

    Profiles here are abstract inputs for the minimisation machinery; they
    need not belong to an actual group.  The coordinate/ones caps keep the
    all-ones profiles from exploding the tuple counts in property runs.
    """
    out: list[DegreeProfile] = []

    def rec(degrees: list[int], sumsq: int, last: int):
        out.append(custom_profile(degrees))
        if len(degrees) >= max_coords:
            return
        d = last
        while sumsq + d * d <= max_order:
            if d > 1 or degrees.count(1) < max_ones:
                rec(degrees + [d], sumsq + d * d, d)
            d += 1

    rec([1], 1, 1)
    return out


# Profiles of the built-in families, exercised by every property suite.
BUILTIN_SPECS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:6",
    "abelian:2x2",
    "abelian:2x4",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:7",
    "sym:4",
)


@pytest.fixture(scope="session")
def s4():
    return make_profile("sym:4")


@pytest.fixture(scope="session")
def s5():
    return make_profile("sym:5")


@pytest.fixture(scope="session")
def c2():
    return make_profile("cyclic:2")


@pytest.fixture(scope="session")
def c3():
    return make_profile("cyclic:3")


@pytest.fixture(scope="session")
def d3():
    return make_profile("dihedral:3")


@pytest.fixture(scope="session")
def profile_pool():
    return small_profiles()


@pytest.fixture
def rng():
    return random.Random(SEED)
