"""Named benchmark systems and a registry for user systems.

The presets are scalar Ornstein-Uhlenbeck benchmarks with closed-form
stationary laws (the frozen process is N(y, 1)), which makes every averaged
quantity checkable by hand.  Custom systems are registered programmatically;
the config files can then refer to them by name.
"""

from __future__ import annotations

import numpy as np

from .model import CoupledSystem

_SQRT2 = float(np.sqrt(2.0))


def _zero_slow(x):
    # (..., d2) zeros for d1 == d2 == 1 presets, batched like x
    return np.zeros(np.shape(x)[:-1] + (1,))


def ou_averaging() -> CoupledSystem:
    """Classical averaging benchmark: no intermediate drift, no fast-varying slow drift.

    Frozen law N(y, 1); averaged drift -y; averaged diffusion 1.
    """
    return CoupledSystem(
        d1=1, d2=1,
        b=lambda x, y: y - x,
        sigma=lambda x, y: np.array([[_SQRT2]]),
        c=lambda x, y: _zero_slow(x),
        F=lambda t, x, y: x - 2.0 * y,
        H=lambda t, x, y: _zero_slow(x),
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
        name="ou_averaging",
    )


def ou_full() -> CoupledSystem:
    """Fully coupled benchmark exercising every correction term.

    With frozen law N(y, 1) the auxiliary solution for H = x - y is x - y,
    so the corrected drift is -y + 1/2.  The cells' squared diffusion is
    G G^T + sym E[H Phi^T] = 1 + 1; the coupled law's is 1 + 2 = 3, with
    2 sym E[H Phi^T] (ROADMAP direction 1).  ``bench/reference.r4_cell``
    shares the halved convention, so the factor changes only with it.
    """
    return CoupledSystem(
        d1=1, d2=1,
        b=lambda x, y: y - x,
        sigma=lambda x, y: np.array([[_SQRT2]]),
        c=lambda x, y: np.full_like(np.asarray(x, dtype=np.float64), 0.5),
        F=lambda t, x, y: x - 2.0 * y,
        H=lambda t, x, y: x - y,
        G=lambda t, x, y: np.array([[1.0]]),
        autonomous=True,
        name="ou_full",
    )


PRESETS = {
    "ou_averaging": ou_averaging,
    "ou_full": ou_full,
}

_REGISTRY: dict[str, CoupledSystem] = {}


def register_system(name: str, system: CoupledSystem) -> None:
    """Register a custom system under ``name`` for config-file lookup."""
    if name in PRESETS:
        raise ValueError(f"{name!r} shadows a built-in preset")
    _REGISTRY[name] = system


def get_system(name: str) -> CoupledSystem:
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in PRESETS:
        return PRESETS[name]()
    known = sorted(set(PRESETS) | set(_REGISTRY))
    raise KeyError(f"unknown system {name!r}; known: {known}")
