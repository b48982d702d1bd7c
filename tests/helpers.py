"""Shared test utilities: seeded random configs and states."""

import math
from functools import lru_cache

import numpy as np

from oam_interferometry import (
    ExperimentConfig,
    angular_displacement_matrix,
    apply,
    bs_matrix,
    displace,
    opa_matrix,
    vacuum_state,
)
from oam_interferometry import fock_oracle

TWO_PI = 2.0 * math.pi


def random_config(rng, g_max=2.5, ell_max=5, alpha_sq_range=(0.25, 100.0), lossy=False):
    return ExperimentConfig(
        g=float(rng.uniform(0.0, g_max)),
        ell=int(rng.integers(1, ell_max + 1)),
        alpha_mag=math.sqrt(float(rng.uniform(*alpha_sq_range))),
        theta=float(rng.uniform(0.0, TWO_PI)),
        phi=float(rng.uniform(0.0, TWO_PI)),
        transmissivity=float(rng.uniform(0.05, 1.0)) if lossy else 1.0,
    )


def random_two_mode_state(rng):
    """A valid (pure) Gaussian state from random element draws."""
    state = vacuum_state(2)
    state = displace(state, 0, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, TWO_PI)))
    state = apply(opa_matrix(float(rng.uniform(0.0, 1.5))), state)
    state = apply(
        angular_displacement_matrix(int(rng.integers(1, 4)), float(rng.uniform(0.0, TWO_PI))),
        state,
    )
    state = apply(bs_matrix(), state)
    return state


def without_timestamp(csv_text):
    """A CSV render with its one volatile line, ``# generated=``, dropped."""
    return "".join(
        line for line in csv_text.splitlines(keepends=True) if not line.startswith("# generated=")
    )


def guarded_rel(actual, expected):
    return abs(actual - expected) / max(1.0, abs(expected))


def flip_mode_b_ladder(monkeypatch):
    """Corrupt the Fock oracle's coupler read to ``X_out = (X_A - X_B)/sqrt2``
    by flipping the sign of mode B's ladder, until the test ends.  The real
    states are read through a fresh cache, so no state cached before or after
    the test carries the flip."""
    lowered = fock_oracle._lowered
    monkeypatch.setattr(
        fock_oracle, "_lowered", lambda psi, axis: -lowered(psi, axis) if axis else lowered(psi, axis)
    )
    monkeypatch.setattr(
        fock_oracle, "_real_state", lru_cache(maxsize=32)(fock_oracle._real_state.__wrapped__)
    )
