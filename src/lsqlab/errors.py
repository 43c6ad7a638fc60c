"""Shared exception types and the caps of the exhaustive routines.

CAPS holds each exhaustive routine's default cap, in that routine's unit.
The LSQLAB_MAX_EXHAUSTIVE variable overrides entries as comma-separated
routine=N entries, e.g. separation_number_exact=16,min_congestion_oracle=7;
a routine it does not name keeps its default, and any other form of the
variable (empty, a bare integer, an unknown or repeated routine, N not a
nonnegative integer) raises ValueError.
"""

from __future__ import annotations

import os

ENV_CAP = "LSQLAB_MAX_EXHAUSTIVE"

CAPS = {  # routine -> default cap
    "edge_expansion_exact": 24,  # vertices
    "separation_number_exact": 14,  # vertices
    "min_congestion_oracle": 6,  # vertices
    "variant_bound_exhaustive": 64,  # functions in the family
    "family_staircase": 10_000,  # functions materialized, 2 n^L
    "graph_metrics": 1 << 24,  # vertices times edges, one BFS per vertex
}


class CapabilityError(RuntimeError):
    """An exact/exhaustive routine was asked to exceed its configured cap."""


def _overrides() -> dict:
    """The routine -> cap entries of LSQLAB_MAX_EXHAUSTIVE; {} if unset."""
    env = os.environ.get(ENV_CAP)
    if env is None:
        return {}
    caps = {}
    for entry in env.split(","):
        name, eq, value = (part.strip() for part in entry.partition("="))
        problem = ("not routine=N" if not eq
                   else "unknown routine" if name not in CAPS
                   else "routine named twice" if name in caps
                   else "N is not a nonnegative integer"
                   if not value.isdecimal() else None)
        if problem:
            raise ValueError(
                f"{ENV_CAP}={env!r}: {problem} in {entry!r}; expected "
                f"comma-separated routine=N entries, routines "
                f"{', '.join(CAPS)}")
        caps[name] = int(value)
    return caps


def cap_of(what: str) -> int:
    """The cap of routine what: its LSQLAB_MAX_EXHAUSTIVE entry, else its
    default."""
    return _overrides().get(what, CAPS[what])


def check_cap(what: str, size: int, shown: str | None = None) -> None:
    """Raise CapabilityError if size exceeds the cap of routine what; the
    message shows shown in place of size when it is given."""
    cap = cap_of(what)
    if size > cap:
        raise CapabilityError(
            f"{what}: size {size if shown is None else shown} exceeds "
            f"exhaustive cap {cap} (raise it with {ENV_CAP}={what}=N)")
