"""Exact-arithmetic DARK crystals in affine type A: Kirillov-Reshetikhin
tensor products, Demazure closures, energy, and the character identity."""

from .cartan import AffineWeight, CartanA, aff_level_zero, reflect, rotate, simple_root
from .charring import CharPoly, demazure_op, demazure_word, rhs_formula, sigma_act
from .crystal import ModelConsistencyError, TensorElt, demazure_closure, f_closure
from .dark import (DarkSet, DarkSpec, FactorWord, build, lhs_character, make_spec, verify,
                   well_definedness_check)
from .energy import comb_R, total_D
from .kr import RectTableau, find_b_rs, generate, promotion, twist
from .weyl import ExtAffPerm, kr_translation_data

__all__ = [
    "AffineWeight", "CartanA", "CharPoly", "DarkSet", "DarkSpec",
    "ExtAffPerm", "FactorWord", "ModelConsistencyError", "RectTableau",
    "TensorElt", "aff_level_zero", "build", "comb_R", "demazure_closure",
    "demazure_op", "demazure_word", "f_closure", "find_b_rs", "generate",
    "kr_translation_data", "lhs_character", "make_spec", "promotion", "reflect",
    "rhs_formula", "rotate", "sigma_act", "simple_root", "total_D",
    "twist", "verify", "well_definedness_check",
]
