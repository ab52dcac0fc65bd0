"""One JSON codec for the frozen configuration dataclasses.

A :class:`JsonConfig` subclass is a frozen dataclass whose ``validate``
runs on every construction, ``dataclasses.replace`` included, so a config
object is always valid.  ``to_dict`` is ``dataclasses.asdict`` (tuples
stay tuples; ``json`` writes them as lists) and ``from_dict`` inverts it
from any subset of the fields.
"""

from __future__ import annotations

import dataclasses


class JsonConfig:
    """Base of the frozen config dataclasses: validated, JSON round-trippable."""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise on an invalid field combination; subclasses override."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Build from a dict of some of the fields; omitted fields keep their defaults.

        Lists become tuples, and a field whose default is a config decodes
        through that config's own ``from_dict``.  A non-dict, or a value of
        another type than the field's default (an int may stand for a
        float), raises TypeError; an unknown key raises ValueError.
        """
        if not isinstance(data, dict):
            raise TypeError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
        defaults = cls()
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in data.items():
            default = getattr(defaults, key)
            if isinstance(default, JsonConfig):
                value = type(default).from_dict(value)
            elif isinstance(value, list):
                value = tuple(value)
            kind = (int, float) if type(default) is float else type(default)
            if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
                raise TypeError(f"{cls.__name__}.{key} must be {type(default).__name__}, "
                                f"got {value!r}")
            kwargs[key] = value
        return cls(**kwargs)
