"""String-keyed numeric backend registry.

A :class:`repro.utils.registry.Registry` of backend factories.  Unlike
detectors — constructed per link — a backend is process-wide state, so
:meth:`BackendRegistry.get` returns one shared instance per registered
factory instead of the factory itself (FFT plan caches are shared that way).
"""

from __future__ import annotations

from typing import Callable

from repro.backend.base import NumericBackend
from repro.utils.registry import Registry

#: A backend factory: a zero-argument callable (typically the class itself).
BackendFactory = Callable[[], NumericBackend]


#: One shared instance per backend factory, whichever registry holds it.
_INSTANCES: dict[BackendFactory, NumericBackend] = {}


class BackendRegistry(Registry[BackendFactory]):
    """A mutable mapping from backend names to backend factories."""

    kind = "backend"

    def get(self, name: str) -> NumericBackend:  # type: ignore[override]
        """The (shared) backend instance registered under *name*.

        The first lookup instantiates the factory; later lookups return the
        same instance for as long as the same factory stays registered, so
        per-backend caches (FFT plans) are shared.
        """
        factory = super().get(name)
        if factory not in _INSTANCES:
            _INSTANCES[factory] = factory()
        return _INSTANCES[factory]


#: The process-wide registry used when no explicit registry is passed.
DEFAULT_REGISTRY = BackendRegistry()


def register_backend(name: str, *, registry: BackendRegistry | None = None):
    """Decorator registering a backend factory in the (default) registry::

        @register_backend("my-backend")
        class MyBackend:
            name = "my-backend"
            ...
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.register(name)


def available_backends() -> tuple[str, ...]:
    """Names registered in the default registry (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()
