import numpy as np
import pytest

from shellwave import (
    Field,
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
    damp = (1.0 + lattice.lam0[lattice.slot_l]) ** (-0.5 * decay)
    return Field(lattice=lattice, coeffs=mag * sign * damp)


def zero_like(lattice):
    return Field(lattice=lattice, coeffs=np.zeros(lattice.n_slots))
