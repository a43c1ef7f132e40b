"""Banach-operator recursion for functional equations u = f + B(u).

The recursion u0 = f, u1 = B(u0), u_{m+1} = B(u0+...+u_m) - B(u0+...+u_{m-1})
telescopes so that the partial sums satisfy S_{m+1} = f + B(S_m) exactly;
the solver iterates in that form and keeps only the running sum and the
norm of each increment u_m = S_m - S_{m-1}.
Elements only need +, - and a norm: plain scalars, numpy arrays and Spectrum
objects all work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class NonFiniteTermError(RuntimeError):
    """The operator produced non-finite values; carries the term index."""

    def __init__(self, term_index: int, where: str = ""):
        super().__init__(f"non-finite values in recursion term {term_index}{where}")
        self.term_index = term_index


class ConvergenceError(RuntimeError):
    """Raised by the CLI for a recursion record that did not converge."""


def default_norm(x) -> float:
    """Sup norm over grid nodes (complex modulus), also valid for scalars."""
    if hasattr(x, "sup_norm"):
        return float(x.sup_norm())
    return float(np.max(np.abs(np.asarray(x))))


@dataclass
class DjmSolution:
    """The accumulated solution, the norm of every term and the stop flag."""

    partial_sum: Any
    term_norms: list[float]
    converged: bool

    @property
    def k(self) -> int:
        """Number of terms computed (including u0)."""
        return len(self.term_norms)


def djm_solve(f: Any, apply_b: Callable[[Any], Any], tol: float,
              k_max: int = 25) -> DjmSolution:
    """Solve u = f + B(u), B = apply_b, until norm(last term) < tol or k_max
    operator applications; k_max exhaustion is reported via converged=False,
    not an exception. An application that overflows or turns invalid raises
    NonFiniteTermError with the index of the term it was computing."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n0 = default_norm(f)
    if not np.isfinite(n0):
        raise NonFiniteTermError(0)
    sol = DjmSolution(partial_sum=f, term_norms=[n0], converged=False)

    for m in range(1, k_max + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                s_next = f + apply_b(sol.partial_sum)
        except FloatingPointError:
            raise NonFiniteTermError(m) from None
        nu_m = default_norm(s_next - sol.partial_sum)
        if not np.isfinite(nu_m):
            raise NonFiniteTermError(m)
        sol.term_norms.append(nu_m)
        sol.partial_sum = s_next
        if nu_m < tol:
            sol.converged = True
            break
    return sol

