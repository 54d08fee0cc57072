from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from thetalab import RiemannMatrix

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("thetalab", derandomize=True, deadline=None, database=None)
settings.load_profile("thetalab")


def pytest_configure(config):
    """Keep Hypothesis's own caches out of the tree.

    Hypothesis parses the local modules for constants while tests are
    collected and caches them under its home directory (``.hypothesis/`` in
    the working directory by default); here that is a temporary directory
    removed when the run ends.
    """
    home = tempfile.mkdtemp(prefix="thetalab-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))

# A fixed generic genus-2 period matrix used across the suite.  It is
# comfortably far from the decomposable locus (the decomposability indicator
# is ~0.2, see test_kummer) and its imaginary part is well conditioned, so
# every lattice sum stays small and fast.
GENERIC_G2_TAU = np.array(
    [
        [0.2862094326+1.7373894135j, 0.1089288031+0.3099191700j],
        [0.1089288031+0.3099191700j, -0.1470592632+1.2929342308j],
    ]
)


def random_tau(g: int, seed: int, re_scale: float = 0.3, im_spread: float = 0.3) -> np.ndarray:
    """A seeded random symmetric matrix with positive definite imaginary part."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(g, g)) * im_spread
    y = a @ a.T + np.eye(g)
    x = rng.normal(size=(g, g)) * re_scale
    x = 0.5 * (x + x.T)
    return x + 1j * y


def random_points(g: int, count: int, seed: int, spread: float = 0.45):
    """Seeded complex points with lattice-coordinate-sized real/imag parts."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread, size=(count, g)) + 1j * rng.uniform(
        -spread, spread, size=(count, g)
    )


@pytest.fixture(scope="session")
def rm_g1() -> RiemannMatrix:
    return RiemannMatrix([[1j]])


@pytest.fixture(scope="session")
def rm_g2() -> RiemannMatrix:
    return RiemannMatrix(GENERIC_G2_TAU)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run (capture-proof)."""
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
