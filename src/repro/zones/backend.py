"""Zone-backend selection: one DBM API, pluggable kernels.

Three interchangeable backends implement the
:class:`~repro.zones.common.ZoneMatrix` contract:

``reference``
    The portable list-based :class:`~repro.zones.dbm.DBM` (aliases:
    ``python``, ``list``).  No dependencies, arbitrary-precision ints.
``numpy``
    The vectorized :class:`~repro.zones.dbm_numpy.NumpyDBM`, paired
    with a batched passed-list store.  Requires numpy.
``native``
    The compiled :class:`~repro.zones.dbm_native.NativeDBM` (alias:
    ``c``): C kernels over the numpy storage, sharing the numpy
    backend's batched store.  Requires numpy plus the optional
    ``repro.zones._dbmkernel`` extension (``python setup.py build_ext
    --inplace``, or the ``[native]`` install extra); simply absent
    from :func:`available_backends` when unbuilt.

:func:`resolve_backend` takes the name its caller passes (the
explorer's ``zone_backend=`` parameter); ``None`` means ``auto``, the
cheapest available backend for the workload at hand.  The
``REPRO_ZONE_BACKEND`` environment variable is read only by
:meth:`repro.mc.parallel.EngineConfig.resolve`, when a
:class:`~repro.api.Session`, the CLI or the daemon is constructed,
and reaches the explorers as an explicit name from there.

``auto`` is hint-aware: callers that know the compiled network (the
explorers) pass a :class:`~repro.zones.costmodel.BackendHint` with the
clock count, structural model size and expected wave width, and the
committed microbenchmark cost table in :mod:`repro.zones.costmodel`
picks the backend.  Without a hint the preference is static
(native > numpy > reference).

All backends produce bit-identical matrices, hashes and emptiness
verdicts (enforced by the differential tests), so switching backends
never changes verification results — only wall time.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.zones.dbm import DBM
from repro.zones.store import ReferencePassedBucket

__all__ = [
    "ENV_VAR",
    "ZoneBackend",
    "available_backends",
    "requested_backend",
    "resolve_backend",
]

ENV_VAR = "REPRO_ZONE_BACKEND"

_ALIASES = {
    "reference": "reference",
    "python": "reference",
    "list": "reference",
    "numpy": "numpy",
    "native": "native",
    "c": "native",
}


class ZoneBackend(NamedTuple):
    """A DBM implementation plus its matching passed-list store."""

    name: str
    dbm: type
    bucket: type


_REFERENCE = ZoneBackend("reference", DBM, ReferencePassedBucket)
_numpy_backend: ZoneBackend | None = None
_native_backend: ZoneBackend | None = None


def _load_numpy() -> ZoneBackend:
    global _numpy_backend
    if _numpy_backend is None:
        from repro.zones.dbm_numpy import NumpyDBM
        from repro.zones.store import NumpyPassedBucket
        _numpy_backend = ZoneBackend("numpy", NumpyDBM, NumpyPassedBucket)
    return _numpy_backend


def _load_native() -> ZoneBackend:
    global _native_backend
    if _native_backend is None:
        from repro.zones.dbm_native import NativeDBM
        from repro.zones.store import NumpyPassedBucket
        _native_backend = ZoneBackend("native", NativeDBM,
                                      NumpyPassedBucket)
    return _native_backend


def available_backends() -> tuple[str, ...]:
    """Canonical names of the backends importable right now."""
    names = ["reference"]
    try:
        _load_numpy()
    except ImportError:
        pass
    else:
        names.append("numpy")
    try:
        _load_native()
    except ImportError:
        pass
    else:
        names.append("native")
    return tuple(names)


def requested_backend(name: str | None = None) -> str:
    """The *effective spec* before availability resolution.

    Returns ``"auto"`` (also for ``None``) or a canonical backend name.
    Lets :class:`~repro.mc.parallel.EngineConfig` preserve an ``auto``
    request literally, so explorers and worker processes re-resolve
    per model instead of inheriting one frozen choice (bit-identity
    across backends makes that safe).
    """
    if name is None or name == "auto":
        return "auto"
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: auto, {', '.join(sorted(set(_ALIASES)))})")
    return key


def _resolve_auto(hint=None) -> ZoneBackend:
    """Cost-model resolution of ``auto`` (see module docstring)."""
    from repro.zones.costmodel import choose_backend
    candidates = available_backends()
    name = choose_backend(candidates, hint)
    if name == "native":
        return _load_native()
    if name == "numpy":
        return _load_numpy()
    return _REFERENCE


def resolve_backend(name: str | None = None, *,
                    hint=None) -> ZoneBackend:
    """Resolve a backend spec (``None`` means ``auto``).

    ``hint`` is an optional :class:`~repro.zones.costmodel.BackendHint`
    consulted only when the spec resolves to ``auto``; explicit names
    ignore it.
    """
    if name is None or name == "auto":
        return _resolve_auto(hint)
    key = _ALIASES.get(name)
    if key is None:
        raise ValueError(
            f"unknown zone backend {name!r} "
            f"(choose from: auto, {', '.join(sorted(set(_ALIASES)))})")
    if key == "numpy":
        try:
            return _load_numpy()
        except ImportError as exc:
            raise RuntimeError(
                "the numpy zone backend was requested but numpy is "
                "not importable") from exc
    if key == "native":
        try:
            return _load_native()
        except ImportError as exc:
            raise RuntimeError(
                "the native zone backend was requested but the "
                "compiled kernel is not importable — build it with "
                "'python setup.py build_ext --inplace' (or install "
                "the [native] extra), or pick auto/numpy/reference"
            ) from exc
    return _REFERENCE
