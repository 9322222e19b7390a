"""Numerical failure classes, which the command line maps to exit code 3.

They live apart from the finite-element and norm code that raises them,
so that a module which only catches them does not load SciPy.
"""


class NumericalBreach(RuntimeError):
    """A numerical invariant failed (singular factorization, bad residual)."""


class CoercivityError(RuntimeError):
    """No shift above the search floor makes every form coercive."""
