"""One named catalog: the registry idiom every plugin axis shares.

Algorithms, machines, topologies, workloads, execution backends, fault
plans and benchmark suites are all picked by name.  Each axis is a
:class:`Registry` instance; its module keeps a ``register_*`` front door
for the kind-specific validation and hands the entry to
:meth:`Registry.register`, which owns the duplicate policy, the
canonical unknown-name message and the optional lazy loader.

Examples
--------
>>> from repro.utils.registry import Registry
>>> colours = Registry("colour")
>>> colours.register("red", (255, 0, 0))
(255, 0, 0)
>>> colours.register("red", (255, 0, 0))  # an equal entry is a no-op
(255, 0, 0)
>>> colours.register("red", (250, 0, 0))
Traceback (most recent call last):
...
repro.errors.ConfigError: colour 'red' is already registered
>>> colours.get("blue")
Traceback (most recent call last):
...
repro.errors.ConfigError: unknown colour 'blue'; choose from ['red']
>>> colours["red"], "red" in colours, colours.names()
((255, 0, 0), True, ['red'])
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

from repro.errors import ConfigError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Name -> entry catalog with one duplicate policy and one error.

    ``kind`` names the entries in messages (``"fault plan"`` gives
    ``unknown fault plan 'x'; choose from [...]``).  ``loader``, when
    given, is called before :meth:`names` and iteration and on a
    :meth:`get` miss, so entries that live outside the import graph
    (spec files named by an environment variable, modules too heavy to
    import eagerly) appear on first use.
    """

    def __init__(
        self, kind: str, *, loader: Callable[[], object] | None = None
    ) -> None:
        self.kind = kind
        self._loader = loader
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T, *, replace: bool = False) -> T:
        """Add ``entry`` under ``name`` and return it.

        Re-registering an equal entry does nothing; a different entry
        under a taken name raises :class:`~repro.errors.ConfigError`
        unless ``replace`` is true.
        """
        existing = self._entries.get(name)
        if existing is None or replace:
            self._entries[name] = entry
        elif existing != entry:
            raise ConfigError(f"{self.kind} {name!r} is already registered")
        return entry

    def get(self, name: str) -> T:
        """The entry registered under ``name``, with the canonical error."""
        if name not in self:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            )
        return self._entries[name]

    def names(self) -> list[str]:
        """Registered names, sorted."""
        self._load()
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        """``(name, entry)`` pairs in name order."""
        return [(name, self._entries[name]) for name in self.names()]

    def values(self) -> list[T]:
        """Entries in name order."""
        return [self._entries[name] for name in self.names()]

    def _load(self) -> None:
        if self._loader is not None:
            self._loader()

    #: ``X[name]`` is :meth:`get`: unknown names raise the same error.
    __getitem__ = get

    def __contains__(self, name: object) -> bool:
        if name not in self._entries:
            self._load()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())
