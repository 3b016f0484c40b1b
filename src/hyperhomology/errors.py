"""Exception types shared across the package, and the size caps.

The CLI maps these onto exit codes: parse/config problems -> 2,
resource caps -> 3, failed invariant or theorem checks -> 4.  Each cap is
read where it is checked, from its environment variable when that is set:
HYPERHOMOLOGY_SIMPLEX_CAP (default 16) bounds the vertices of a full simplex,
also of the one ``quotient_pair_check`` never builds, and the largest edge of
a closure; HYPERHOMOLOGY_VERTEX_CAP (default 10) a vertex-map search.
"""

import os

CAPS = {"simplex": ("HYPERHOMOLOGY_SIMPLEX_CAP", 16), "vertex": ("HYPERHOMOLOGY_VERTEX_CAP", 10)}


class ParseError(ValueError):
    """Malformed input file or unparseable configuration value."""


class ResourceCapError(RuntimeError):
    """A configured size cap (vertex count, simplex count) was exceeded."""


def check_cap(size: int, kind: str, what: str) -> None:
    """Raise ResourceCapError when size exceeds the "simplex" or "vertex" cap."""
    variable, default = CAPS[kind]
    try:
        limit = int(os.environ.get(variable, default))
    except ValueError:
        raise ParseError(f"{variable} must be an integer, got {os.environ[variable]!r}") from None
    if size > limit:
        raise ResourceCapError(f"{what} exceeds the cap of {limit}")


class InvariantViolation(RuntimeError):
    """A structural invariant failed; carries a human-readable certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class TheoremCheckError(RuntimeError):
    """A verified identity reported false on a concrete instance."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
