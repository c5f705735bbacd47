"""Error vocabulary shared across the package.

Every raisable condition gets its own class so callers (and the corpus runner's
exit-code logic) can tell structural mistakes, math preconditions and resource
caps apart.
"""

from __future__ import annotations


class PcentralError(Exception):
    """Base class for all package errors."""


class BackendMismatch(PcentralError):
    """Operands live in incompatible element universes (backend, p, size)."""


class SingularMatrix(PcentralError):
    """Matrix has no inverse mod p."""


class CapExceeded(PcentralError):
    """A hard size cap (closure size, encoding range, ...) was exceeded."""


class BudgetExceeded(PcentralError):
    """A combinatorial search budget ran out before completion."""


class NotNormal(PcentralError):
    """A subgroup is not normal where normality is required."""


class NotAHomomorphism(PcentralError):
    """Generator images do not extend to a well-defined homomorphism."""


class NotBijective(PcentralError):
    """A well-defined endomorphism failed to be bijective."""


class NotInvariant(PcentralError):
    """A subgroup is not invariant under the acting automorphisms."""


class NotPGroup(PcentralError):
    """Operation needs a finite p-group (or a designated prime) and got none."""


class OddPrimeRequired(PcentralError):
    """Operation is only defined for odd p."""


class UnknownFamily(PcentralError):
    """Family spec names no registered construction."""


class ConfigError(PcentralError):
    """Experiment configuration is syntactically or semantically invalid."""
