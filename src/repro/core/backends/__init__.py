"""Optional accelerated placement backends.

The default backend is the python decision path in
:mod:`repro.core.optchain` - always present, always the golden
reference. This package adds a ``numpy`` backend: typed-array scorer
state plus a small compiled kernel that runs the same decision path
over whole batches, bit-identical to python and selected per-strategy
through
:class:`repro.core.spec.StrategySpec` (``backend=numpy``) or
``make_placer(..., backend="numpy")``.

numpy is an *optional* dependency (``pip install repro-optchain[fast]``)
and the kernel needs a C compiler on first use; when either is missing
:func:`backend_available` reports why and spec resolution either falls
back (``backend=auto``) or raises a configuration error
(``backend=numpy``).
"""

from __future__ import annotations

_numpy_error: str | None = None
try:
    import numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover - exercised on bare installs
    _numpy_error = f"numpy is not installed ({exc}); pip install '.[fast]'"


def backend_available(name: str) -> bool:
    """Whether a placement backend can be constructed here."""
    return backend_unavailable_reason(name) is None


def backend_unavailable_reason(name: str) -> str | None:
    """Why ``name`` cannot be used (``None`` when it can).

    ``python`` is always available. ``numpy`` needs the numpy package;
    the compiled kernel is *not* required (strategies fall back to the
    python decision path over typed-array state when the kernel cannot
    be built, slower but identical).
    """
    if name == "python":
        return None
    if name == "numpy":
        return _numpy_error
    return f"unknown backend {name!r} (expected 'python' or 'numpy')"


__all__ = ["backend_available", "backend_unavailable_reason"]
