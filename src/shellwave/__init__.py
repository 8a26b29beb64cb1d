"""Spectral-shell wave lab on round spheres.

Diagonal wave systems over a fixed spherical-harmonic lattice, with a
shell-partition calculus, asymptotic-data seeding near the singular end,
energy/defect verifiers, and an iterated comparison-series bound checker.

Each module's ``__all__`` is its public API; the package exports all of them.
"""

from . import cli, energies, gronwall, lattice, lp, modelsys
from .cli import *  # noqa: F403
from .energies import *  # noqa: F403
from .gronwall import *  # noqa: F403
from .lattice import *  # noqa: F403
from .lp import *  # noqa: F403
from .modelsys import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (lattice, lp, modelsys, energies, gronwall, cli)
           for name in module.__all__]
