"""Shared exception types and exhaustive-search cap handling."""

from __future__ import annotations

import os

ENV_CAP = "LSQLAB_MAX_EXHAUSTIVE"


class CapabilityError(RuntimeError):
    """An exact/exhaustive routine was asked to exceed its configured cap."""


def resolve_cap(explicit: int | None, default: int) -> int:
    """Pick the cap for a brute-force routine.

    Priority: explicit argument, then the LSQLAB_MAX_EXHAUSTIVE environment
    variable, then the built-in default.  A variable that is not a
    nonnegative integer raises ValueError.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_CAP)
    if env is None:
        return default
    if not env.strip().isdecimal():
        raise ValueError(f"{ENV_CAP} must be a nonnegative integer, got {env!r}")
    return int(env)


def check_cap(what: str, size: int, explicit: int | None, default: int) -> None:
    cap = resolve_cap(explicit, default)
    if size > cap:
        raise CapabilityError(
            f"{what}: size {size} exceeds exhaustive cap {cap} "
            f"(raise via the cap argument or {ENV_CAP})"
        )
