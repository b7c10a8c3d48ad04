import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hallalg import ClassTable, GroundField, Quiver, Rep
from hallalg.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


def jordan():
    return Quiver(1, [(0, 0)])


def a2():
    return Quiver(2, [(0, 1)])


def kronecker():
    return Quiver(2, [(0, 1), (0, 1)])


def zero_rep(quiver, q, dim):
    """The representation of dimension dim with every arrow zero."""
    return Rep(quiver, q, dim, [np.zeros((dim[t], dim[s]), dtype=np.int64) for s, t in quiver.arrows])


@pytest.fixture(scope="session")
def a2_q2():
    return ClassTable(a2(), GroundField(2), (2, 2))


@pytest.fixture(scope="session")
def jordan_q2():
    return ClassTable(jordan(), GroundField(2), (4,))


@pytest.fixture(scope="session")
def kronecker_q2():
    return ClassTable(kronecker(), GroundField(2), (2, 2))


@pytest.fixture(scope="session")
def jordan_q3():
    return ClassTable(jordan(), GroundField(3), (3,))


@pytest.fixture(scope="session")
def cli_json():
    """run(config, args): (exit code, stdout) of `hallalg ARGS --config
    configs/CONFIG.cfg --format json`, computed once per session.

    test_golden pins the bytes of `verify --suite all` on each sample config;
    test_acceptance reads its Kronecker q=2 hopf and pairing reports, and
    test_verify the hopf reports of all three, from the same runs instead of
    computing them a second time.
    """
    runs = {}

    def run(config, args):
        key = (config, tuple(args))
        if key not in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(
                    [args[0], "--config", str(CONFIGS / f"{config}.cfg"), "--format", "json", *args[1:]]
                )
            runs[key] = code, buf.getvalue()
        return runs[key]

    return run
