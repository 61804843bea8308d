"""Typed, declarative description of one sorting algorithm.

An :class:`AlgorithmSpec` bundles everything the uniform API layer needs to
run an algorithm without special-casing it: the SPMD program, its typed
config class, how the config is handed to the program, and a *capability
model* — declarative flags (``supports_payloads``, ``balanced``,
``needs_multicore``, ``duplicate_tolerant``) that drive upfront validation
in :class:`~repro.algorithms.Sorter` instead of silent kwarg forwarding.

Specs are plain data; the mutable registry lives in
:mod:`repro.algorithms.registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = ["AlgorithmSpec"]

#: Short capability labels for the ``repro algorithms`` listing.
_CAPABILITY_LABELS = {
    "supports_payloads": "payloads",
    "balanced": "balanced",
    "needs_multicore": "multicore",
    "duplicate_tolerant": "dup-tolerant",
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of a registered sorting algorithm.

    Examples
    --------
    >>> from repro.algorithms import REGISTRY
    >>> REGISTRY["hss"].supports_payloads
    True
    >>> REGISTRY["bitonic"].supports_payloads
    False
    >>> sorted(REGISTRY["radix"].config_keys())
    ['key_bits']
    """

    #: Registry key (the name used by ``Sorter``/``Scenario``/the CLI).
    name: str
    #: SPMD generator program ``program(ctx, keys[, payload], **kwargs)``.
    program: Callable[..., Any]
    #: Typed config dataclass; its fields are the algorithm's valid knobs.
    config_cls: type
    #: Builds a config instance from keyword knobs.  Defaults to
    #: ``config_cls`` itself; HSS variants install their schedule factories.
    make_config: Callable[..., Any] | None = None
    #: ``"cfg"`` — program takes one ``cfg=<config>`` kwarg;
    #: ``"fields"`` — config fields are flattened into program kwargs.
    config_style: str = "fields"
    #: The algorithm can permute fixed-size payloads along with keys.
    supports_payloads: bool = False
    #: Output honours a ``(1+eps)`` load bound — drives the verification
    #: epsilon (``None`` is passed for unbalanced algorithms).
    balanced: bool = True
    #: Requires ``machine.cores_per_node > 1`` (two-level node algorithms).
    needs_multicore: bool = False
    #: Meets its balance contract on duplicate-heavy inputs (natively or
    #: via a tagging option).
    duplicate_tolerant: bool = False
    #: Accepts ``initial_intervals=`` warm-start hints (cached splitter
    #: intervals from a previous run) through ``Sorter.run()``.  Not part
    #: of :meth:`capabilities` — warm starts are an execution-time hint,
    #: not a correctness-relevant capability flag.
    supports_warm_start: bool = False
    #: Paper section implemented (e.g. ``"6.1.2"``).
    paper_section: str = ""
    #: One-line human description (shown by ``repro algorithms``).
    description: str = ""
    #: Extra keyword knobs accepted by ``make_config`` beyond the config
    #: class fields (e.g. ``oversample`` for the constant-schedule factory).
    extra_config_keys: tuple[str, ...] = ()
    #: Config-class fields that must *not* be passed as knobs (the spec
    #: pins them, e.g. ``node_level`` for ``hss-node``).
    excluded_config_keys: tuple[str, ...] = ()
    #: ``(field, value)`` pairs the spec pins: ``make_config`` sets them
    #: and :meth:`check_config` re-asserts them on pre-built configs, so
    #: a hand-built config cannot smuggle in a state the registry forbids.
    pinned_config: tuple[tuple[str, Any], ...] = ()
    #: Maps a config instance to the verification epsilon; defaults to
    #: ``config.eps`` when ``balanced`` else ``None``.
    verify_eps_fn: Callable[[Any], float | None] | None = None

    def __post_init__(self) -> None:
        if self.config_style not in ("cfg", "fields"):
            raise ConfigError(
                f"config_style must be 'cfg' or 'fields', "
                f"got {self.config_style!r}"
            )

    # ------------------------------------------------------------------ #
    def config_keys(self) -> frozenset[str]:
        """The valid configuration keys for this algorithm."""
        names = {f.name for f in fields(self.config_cls)}
        names.update(self.extra_config_keys)
        names.difference_update(self.excluded_config_keys)
        return frozenset(names)

    def build_config(self, **kwargs: Any):
        """Build the typed config, rejecting unknown keys up front."""
        valid = self.config_keys()
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) {unknown} for algorithm "
                f"{self.name!r}; valid keys: {sorted(valid)}"
            )
        factory = self.make_config if self.make_config is not None else self.config_cls
        return factory(**kwargs)

    def check_config(self, config: Any) -> Any:
        """Validate a pre-built config instance's type and pinned fields."""
        if not isinstance(config, self.config_cls):
            raise ConfigError(
                f"algorithm {self.name!r} expects a "
                f"{self.config_cls.__name__} config, "
                f"got {type(config).__name__}"
            )
        for field_name, value in self.pinned_config:
            if getattr(config, field_name) != value:
                raise ConfigError(
                    f"algorithm {self.name!r} requires "
                    f"{field_name}={value!r} (got "
                    f"{getattr(config, field_name)!r}); build the config "
                    f"through Sorter({self.name!r}, ...) keyword knobs"
                )
        return config

    def program_kwargs(self, config: Any) -> dict[str, Any]:
        """Keyword arguments to pass to ``program`` for ``config``."""
        if self.config_style == "cfg":
            return {"cfg": config}
        return {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
        }

    def verify_eps(self, config: Any) -> float | None:
        """Load-balance budget to verify the output against."""
        if self.verify_eps_fn is not None:
            return self.verify_eps_fn(config)
        if self.balanced:
            return getattr(config, "eps", None)
        return None

    def capabilities(self) -> dict[str, bool]:
        """The capability flags as a plain dict (CLI / docs rendering)."""
        return {
            "supports_payloads": self.supports_payloads,
            "balanced": self.balanced,
            "needs_multicore": self.needs_multicore,
            "duplicate_tolerant": self.duplicate_tolerant,
        }

    def summary_lines(self) -> list[str]:
        """This spec's rows in the ``repro algorithms`` listing."""
        caps = self.capabilities()
        cap_text = ",".join(
            short for key, short in _CAPABILITY_LABELS.items() if caps[key]
        )
        section = f"§{self.paper_section}" if self.paper_section else ""
        knobs = ", ".join(sorted(self.config_keys())) or "no knobs"
        return [
            f"{self.name:24s} {section:8s} [{cap_text}]",
            f"{'':24s} {self.description}",
            f"{'':24s} config: {self.config_cls.__name__}({knobs})",
        ]
