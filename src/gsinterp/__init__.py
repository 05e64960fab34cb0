"""Minimal-weighted-degree bivariate interpolation over GF(p), three ways
(brute force, classic iterative, divide-and-conquer with recorded transforms),
plus Reed-Solomon list decoding built on top of it."""

from .bipoly import BiPoly, derivative_orders
from .decoder import GSParams, InfeasibleParameters, RSCode, decode_list, gs_params, y_roots
from .field import PrimeField
from .classic import TrackedBasis, certify, interpolate
from .fast import solve
from .oracle import minimal_solution
from .problem import InterpolationInstance, random_instance
from .unipoly import NEG_INF, UniPoly

__all__ = [
    "BiPoly",
    "GSParams",
    "InfeasibleParameters",
    "InterpolationInstance",
    "NEG_INF",
    "PrimeField",
    "RSCode",
    "TrackedBasis",
    "UniPoly",
    "certify",
    "decode_list",
    "derivative_orders",
    "gs_params",
    "interpolate",
    "minimal_solution",
    "random_instance",
    "solve",
    "y_roots",
]

__version__ = "0.1.0"
