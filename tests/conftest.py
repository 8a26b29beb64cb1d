import numpy as np
import pytest

from shellwave import (
    build_lattice,
    desitter_background,
    make_partition,
)


@pytest.fixture(scope="session")
def bg():
    return desitter_background()


@pytest.fixture(scope="session")
def part():
    return make_partition(-8, 12, 3)


@pytest.fixture(scope="session")
def small_lattice():
    return build_lattice(2, 6)


def bounded_field(lattice, rng, decay=3.0):
    """Coefficients bounded away from zero so per-mode relative errors exist."""
    mag = rng.uniform(0.5, 1.5, lattice.n_slots)
    sign = rng.choice([-1.0, 1.0], lattice.n_slots)
    return mag * sign * lattice.damping(decay)


def bounded_data(lattice, rng, n_regular, decay=3.0):
    """Every slot's data vector (O, h, phi0_1..phi0_I), drawn row by row in that order."""
    return np.array([bounded_field(lattice, rng, decay) for _ in range(n_regular + 2)])


def zero_data(lattice, n_regular):
    return np.zeros((n_regular + 2, lattice.n_slots))
