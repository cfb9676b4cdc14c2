"""ergolab: exact invariant-measure algebra and entropy on compact-group toys.

Carriers: finite groups, one- and two-sided group shift spaces over finite
alphabet groups, and the circle under x -> kx mod 1. Measures are exact
rational objects; entropies are computed in nats with floating point only at
the logarithm boundary.
"""

from .groups import (
    DenseMeasure,
    FiniteGroup,
    GroupHom,
    automorphisms,
    convolve,
    cyclic,
    dihedral,
    direct_product,
    explicit_group,
    haar,
    identity_hom,
    independence_check,
    is_invariant,
    make_hom,
    measure,
    symmetric,
)

__all__ = [
    "DenseMeasure",
    "FiniteGroup",
    "GroupHom",
    "automorphisms",
    "convolve",
    "cyclic",
    "dihedral",
    "direct_product",
    "explicit_group",
    "haar",
    "identity_hom",
    "independence_check",
    "is_invariant",
    "make_hom",
    "measure",
    "symmetric",
]

__version__ = "0.1.0"
