"""Weighted harmonic analysis on the Bessel half-line (R_+, |.|, x^{2*lam} dx).

Subpackages cover: exact measure arithmetic (`measure`), Muckenhoupt-type
weight classes (`weights`), dyadic grids and sparse families (`dyadic`),
Young functions, Luxemburg norms and Orlicz maximal operators (`orlicz`),
sparse operators and their commutator forms (`operators`), the Riesz kernel
and its commutator (`riesz`), BMO-type norms (`bmo`), and a reproducible
experiment runner (`experiments`, `cli`).
"""

from .measure import BesselMeasure, FuncExpr, Interval

__all__ = ["BesselMeasure", "FuncExpr", "Interval"]
__version__ = "0.1.0"
