"""Banach-operator recursion for functional equations u = f + B(u).

The recursion u0 = f, u1 = B(u0), u_{m+1} = B(u0+...+u_m) - B(u0+...+u_{m-1})
telescopes so that the partial sums satisfy S_{m+1} = f + B(S_m) exactly;
the solver iterates in that form and keeps only the running sum and the
norm of each increment u_m = S_m - S_{m-1}. Each stop (the tolerance met,
k_max, a term past the float range) is returned as a record, never raised.
Elements only need +, - and a norm: plain scalars, numpy arrays and Spectrum
objects all work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


class NonFiniteTermError(RuntimeError):
    """Raised by the CLI for a recursion record stopped by a non-finite term."""


class ConvergenceError(RuntimeError):
    """Raised by the CLI for a recursion record that did not converge."""


def default_norm(x) -> float:
    """Sup norm over grid nodes (complex modulus), also valid for scalars."""
    if hasattr(x, "sup_norm"):
        return float(x.sup_norm())
    return float(np.max(np.abs(np.asarray(x))))


@dataclass
class DjmSolution:
    """The partial sum, every term's norm, the stop flag and a non-finite stop."""

    partial_sum: Any
    term_norms: list[float]
    converged: bool
    non_finite: str = ""

    @property
    def k(self) -> int:
        """Number of terms computed (including u0)."""
        return len(self.term_norms)


def djm_solve(f: Any, apply_b: Optional[Callable[[Any], Any]], tol: float,
              k_max: int = 25) -> DjmSolution:
    """Solve u = f + B(u), B = apply_b (None: B = 0, u = f), until the last
    term's norm < tol, k_max applications, or a term that is not finite: then
    converged is False, k is its index, non_finite names it, and partial_sum
    sums the terms before it (or is f). Raises ValueError on bad arguments."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n0 = default_norm(f)
    if not np.isfinite(n0):
        return DjmSolution(f, [], False, "non-finite values in recursion term 0")
    sol = DjmSolution(partial_sum=f, term_norms=[n0], converged=apply_b is None)
    for m in range(1, k_max + 1 if apply_b else 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                s_next = f + apply_b(sol.partial_sum)
                nu_m = default_norm(s_next - sol.partial_sum)
        except FloatingPointError:
            nu_m = np.inf
        if not np.isfinite(nu_m):
            sol.non_finite = f"non-finite values in recursion term {m}"
            break
        sol.term_norms.append(nu_m)
        sol.partial_sum = s_next
        if nu_m < tol:
            sol.converged = True
            break
    return sol
