"""One string-keyed registry for every pluggable kind of entry.

Detectors (:mod:`repro.api.registry`), numeric backends
(:mod:`repro.backend.registry`) and lint rules (:mod:`repro.analysis.registry`)
share one contract: ordered registration, directly or as a decorator, an
overwrite guard so a typo cannot silently shadow a built-in, unregistration,
and lookups whose error names the kind and every registered name.  Each kind
subclasses :class:`Registry` with only what differs.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A mutable mapping from names to registered entries, in registration order."""

    #: What the entries are, as error messages name them (``"detector"``).
    kind = "entry"

    def __init__(self) -> None:
        self._entries: dict[str, T] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, entry: T | None = None, *, overwrite: bool = False) -> Any:
        """Register *entry* under *name*; usable directly or as a decorator.

        Parameters
        ----------
        name:
            The lookup key, validated by :meth:`_check_name`.
        entry:
            The entry, validated by :meth:`_check_entry`.  When omitted,
            ``register`` returns a decorator that registers the decorated
            object and returns it unchanged.
        overwrite:
            Allow replacing an existing registration (otherwise an error, so
            typos do not silently shadow the built-ins).
        """
        self._check_name(name)

        def _register(item: T) -> T:
            self._check_entry(item)
            if name in self._entries and not overwrite:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._admit(name, item)
            self._entries[name] = item
            return item

        if entry is None:
            return _register
        return _register(entry)

    def unregister(self, name: str) -> None:
        """Remove a registration (raises ``KeyError`` if absent)."""
        del self._entries[name]

    def _check_name(self, name: object) -> None:
        """Raise ``ValueError`` unless *name* is a valid key."""
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

    def _check_entry(self, entry: object) -> None:
        """Raise ``TypeError`` unless *entry* may be registered."""
        if not callable(entry):
            raise TypeError(f"{self.kind} factory must be callable, got {entry!r}")

    def _admit(self, name: str, entry: T) -> None:
        """Hook run on a validated entry just before it is stored."""

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> T:
        """The entry registered under *name*."""
        entry = self._entries.get(name)
        if entry is None:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"registered {self.kind}s: {list(self.names())}"
            )
        return entry

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.names())})"
