"""Fail-fast validation for the ``REPRO_*`` environment variables.

Every tunable of the library has an environment override —
``REPRO_ZONE_BACKEND``, ``REPRO_ABSTRACTION``, ``REPRO_JOBS``,
``REPRO_EXECUTOR`` — and each used to be parsed at *first use*, deep
inside an exploration, where a typo surfaced as a multi-frame
traceback out of a worker thread (or, under the process executor, out
of a worker process).  A long-running daemon makes this worse: the
first use may be minutes after startup, inside a client's request.

These helpers validate at *read* time and raise :class:`EnvVarError`
— a one-line :class:`ValueError` that names the variable, the
offending value and the allowed values — so ``REPRO_JOBS=two`` fails
the CLI (or the daemon boot) immediately with::

    REPRO_JOBS='two' is invalid: expected an integer >= 1

Their one caller is :meth:`repro.mc.parallel.EngineConfig.resolve`,
which runs when a :class:`~repro.api.Session`, the CLI or the daemon
is constructed; no other code reads the environment.
"""

from __future__ import annotations

import os
from typing import Iterable

__all__ = ["EnvVarError", "env_choice", "env_int"]


class EnvVarError(ValueError):
    """An invalid ``REPRO_*`` value — the message is one line and
    names the variable, the value and what would have been accepted."""


def env_choice(var: str, allowed: Iterable[str], *,
               default: str | None = None) -> str | None:
    """Read ``var`` and require one of ``allowed`` (or unset/empty).

    Returns the raw (stripped) value, or ``default`` when the variable
    is unset or blank.  The value is *not* canonicalized — callers keep
    their own alias maps — but membership is checked here so an invalid
    value fails at read time, not at first use.
    """
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    choices = sorted(set(allowed))
    if raw not in choices:
        raise EnvVarError(
            f"{var}={raw!r} is invalid: choose from "
            f"{', '.join(choices)}")
    return raw


def env_int(var: str, *, minimum: int | None = None,
            default: int | None = None) -> int | None:
    """Read ``var`` as an integer (with an optional lower bound).

    Returns ``default`` when the variable is unset or blank; raises
    :class:`EnvVarError` on a non-integer or out-of-range value.
    """
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    bound = "an integer" if minimum is None \
        else f"an integer >= {minimum}"
    try:
        value = int(raw)
    except ValueError:
        raise EnvVarError(
            f"{var}={raw!r} is invalid: expected {bound}") from None
    if minimum is not None and value < minimum:
        raise EnvVarError(
            f"{var}={raw!r} is invalid: expected {bound}")
    return value
