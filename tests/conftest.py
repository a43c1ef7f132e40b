"""Oracles shared by the test modules."""

import numpy as np
import pytest


def _forward_closure(f, cv, sig, c, alpha, dt):
    """The exact fixed point of the discrete u = f + B(u), B =
    moments._closure_b: chi_v(0) = 0, so the trapezoid sum at node n weights
    nodes 0 .. n-1 only (node 0 by half), and u[n] follows from them, node
    after node, with no recursion and no window."""
    assert cv[0] == 0.0
    u, force = np.zeros_like(f), np.zeros_like(f)
    for n in range(f.size):
        acc = cv[n:0:-1] @ force[:n] - 0.5 * cv[n] * force[0] if n else 0.0
        u[n] = f[n] - alpha * dt * acc
        force[n] = c * u[n] ** 3 + 3.0 * u[n] * sig[n]
    return u


@pytest.fixture
def forward_closure():
    """_forward_closure(f, cv, sig, c, alpha, dt)."""
    return _forward_closure
