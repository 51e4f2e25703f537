"""The one payload rule: a result's payload is its fields, tuples as lists."""

from __future__ import annotations

import dataclasses


def _plain(v):
    if hasattr(v, "to_dict"):
        return v.to_dict()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


class Payload:
    """Mixin for dataclasses: to_dict() maps each field, in order, to JSON
    values; nested results give their own to_dict()."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}
