"""The cell runner of ``repro suite``: serial, or a process pool.

See :mod:`repro.parallel.backend`. ``resolve_backend(workers)`` turns
the campaign's worker count into the right runner; search loops run in
the process that owns them and never import this package.
"""

from .backend import ProcessPoolBackend, SerialBackend, resolve_backend

__all__ = [
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
]
