"""Exception hierarchy shared by all ergolab modules."""

from __future__ import annotations


class ErgolabError(Exception):
    """Base class for all ergolab errors."""


# -- finite group construction / algebra ------------------------------------

class NonAssociative(ErgolabError):
    pass


class MissingIdentity(ErgolabError):
    pass


class MissingInverse(ErgolabError):
    pass


class NotHomomorphism(ErgolabError):
    """Raised with a witness pair (a, b) where table(a*b) != table(a)*table(b)."""


class NotAutomorphism(ErgolabError):
    pass


class GroupMismatch(ErgolabError):
    pass


class NotBijective(ErgolabError):
    pass


# -- shift spaces ------------------------------------------------------------

class DepthLimitExceeded(ErgolabError):
    pass


class SystemMismatch(ErgolabError):
    pass


class UnsupportedKind(ErgolabError):
    pass


# -- entropy -----------------------------------------------------------------

class MonotonicityViolated(ErgolabError):
    """Conditional block entropies increased; input is non-invariant or buggy."""


class InsufficientData(ErgolabError):
    pass


# -- skew products -----------------------------------------------------------

class PhiIncomplete(ErgolabError):
    pass


# -- ergodicity --------------------------------------------------------------

class InsufficientSteps(ErgolabError):
    pass


class CertificateInvalid(ErgolabError):
    pass


# -- circle ------------------------------------------------------------------

class BadK(ErgolabError):
    pass


# -- cli ---------------------------------------------------------------------

class ParseError(ErgolabError):
    pass


class SchemaError(ErgolabError):
    pass
