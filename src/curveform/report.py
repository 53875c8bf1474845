"""The one report type of every check, and the one rule for a sub-check
that cannot finish.

A Report is a check name, a verdict and a dict of JSON fields; it prints as
{"check", "status", **fields}, so every report carries its verdict under
the same key.  An Entry is a named sub-check that passes iff its residual
vanishes.  A sub-check that cannot finish (attempt) becomes a failure that
holds its error, and the check goes on; no other module catches the error.
"""

from __future__ import annotations

from .errors import FuelExhausted, NotPatternWord


def attempt(compute):
    """(compute(), None), or (None, error) when compute() cannot finish: it
    raised FuelExhausted or NotPatternWord."""
    try:
        return compute(), None
    except (FuelExhausted, NotPatternWord) as exc:
        return None, exc


def to_json(value):
    """A field value in JSON form: objects through their own to_json, an
    exception as its message, lists and dicts item by item, anything else
    unchanged."""
    if isinstance(value, Exception):
        return str(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, list):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


class Entry:
    """A named sub-check.  It passes iff its residual vanishes; a vanishing
    residual prints as null.  The residual of a sub-check that could not
    finish (see attempt) is its error, which fails the entry and prints as
    the error message."""

    __slots__ = ("name", "residual", "ok")

    def __init__(self, name, residual):
        self.name = name
        self.residual = residual
        self.ok = not residual

    def to_json(self):
        return {"name": self.name, "status": "pass" if self.ok else "fail",
                "residual": to_json(self.residual) if self.residual else None}


class Report:
    """A check's verdict and its JSON fields.  The verdict is ok when given,
    else "every entry passes"; entries live in fields["entries"]."""

    __slots__ = ("check", "fields", "_ok")

    def __init__(self, check, fields, ok=None):
        self.check = check
        self.fields = fields
        self._ok = ok

    @property
    def entries(self):
        return self.fields.get("entries", [])

    @property
    def ok(self):
        return all(e.ok for e in self.entries) if self._ok is None else self._ok

    def add(self, name, residual):
        self.fields["entries"].append(Entry(name, residual))

    def add_all(self, names, compute):
        """Add one entry per name, with the residuals in the list compute()
        returns; when compute() cannot finish (see attempt), each of these
        entries fails holding the error."""
        residuals, error = attempt(compute)
        for name, residual in zip(names, [error] * len(names) if error else residuals):
            self.add(name, residual)

    def to_json(self):
        return {"check": self.check, "status": "pass" if self.ok else "fail",
                **to_json(self.fields)}
