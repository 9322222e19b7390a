"""Numerical failure classes, which the command line maps to exit code 3.

They live apart from the finite-element and norm code that raises them,
so that a module which only catches them does not load SciPy.
"""


class NumericalBreach(RuntimeError):
    """A numerical invariant failed (singular factorization, bad residual)."""


class CoercivityError(RuntimeError):
    """A form is not coercive: at no shift above the search floor, or at
    the fixed shift a study uses."""
