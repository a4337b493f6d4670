"""Exact parabolic cohomology of local systems on a punctured sphere.

Tuples of invertible matrices with product one, the cocycle spaces
H_g, E_g and their quotient W_g, the braid and conjugation actions,
the induced monodromy representation, the duality cup pairing with its
Hermitian refinement, and exact signatures over cyclotomic fields.
"""

from .braid import BraidWord, act_on_tuple, parse_braid, phi_on_H
from .cyclo import CycloField, format_element, parse_element
from .duality import (SesquiData, cup_pairing, gram_on_W, predicted_signature,
                      signature)
from .errors import ParcohError
from .linalg import Matrix, Subspace
from .monodromy import (MonodromyRep, VariationSpec, check_compatibility,
                        eta, monodromy_generators)
from .problem import Problem, load_problem, parse_problem
from .tuples import (MatTuple, common_fixed_space, dual_tuple, e_space,
                     h_space, validate_tuple, w_space)

__version__ = "0.1.0"

__all__ = [
    "BraidWord", "CycloField", "Matrix", "MatTuple", "MonodromyRep",
    "ParcohError", "Problem", "SesquiData", "Subspace", "VariationSpec",
    "act_on_tuple", "check_compatibility", "common_fixed_space",
    "cup_pairing", "dual_tuple", "e_space", "eta", "format_element",
    "gram_on_W", "h_space", "load_problem", "monodromy_generators",
    "parse_braid", "parse_element", "parse_problem", "phi_on_H",
    "predicted_signature", "signature", "validate_tuple", "w_space",
]
