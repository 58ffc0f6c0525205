"""Exception types shared across the package, and the JSON-pointer plumbing.

Every error raised on a user-facing path derives from GapsubError so CLI
code can map failures to exit codes in one place.  The constructors are
the only validators of their input: one that rejects a single field sets
the error's pointer to it ("/P/0").  The JSON builders (measure_from_spec,
sequence_from_spec, the schedules' from_json) re-raise a rejection through
schema_errors as a SchemaError, prefixing the pointer with the object's
place in its document.
"""
from __future__ import annotations

import contextlib
import numbers
import sys


class GapsubError(Exception):
    """Base class for all package errors.

    pointer, when set, is the JSON pointer of the offending field
    relative to the object being built, such as "/P/0".
    """

    def __init__(self, message: str = "", pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer

    def __str__(self) -> str:
        message = super().__str__()
        return f"{self.pointer}: {message}" if self.pointer else message


class ConfigError(GapsubError):
    """Malformed run configuration or command-line input."""


class SchemaError(ConfigError):
    """A JSON document failed structural validation.

    Carries (pointer, message) pairs so callers can point at the exact
    offending field.
    """

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = list(problems)
        lines = ", ".join(f"{ptr}: {msg}" for ptr, msg in self.problems)
        super().__init__(f"schema validation failed: {lines}")


class ValidationError(GapsubError):
    """A numeric object violates its contract (normalization, consistency)."""


class ScheduleRangeError(GapsubError):
    """A schedule was queried outside its defined range."""


class CapExceededError(GapsubError):
    """An exact enumeration would exceed the configured work cap."""


class DecouplingFailure(GapsubError):
    """An estimate found no certificate: Q has no kernel bound and none was assumed."""


class GapLiftError(GapsubError):
    """The base sequence is not plainly subadditive, so no lift is defined."""


@contextlib.contextmanager
def schema_errors(prefix: str = ""):
    """Re-raise a rejection of the object built inside as a SchemaError.

    prefix is the object's pointer in its document.  A nested builder
    passes its own relative prefix, so pointers compose level by level.
    """
    try:
        yield
    except SchemaError as exc:
        raise SchemaError([(prefix + ptr, msg) for ptr, msg in exc.problems]) from exc
    except (ConfigError, ValidationError) as exc:
        raise SchemaError([(prefix + exc.pointer, exc.args[0])]) from exc


REQUIRED = object()  # the default of a param that must be given
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def param(obj, key, kind: type, default=REQUIRED, pointer: str = ""):
    """obj[key] as kind (int, float, bool or str), or default if absent or null.

    obj is a JSON object or array.  A float must be finite; an int must be
    integral and fit in 64 bits, so 1e4 counts as one; a JSON boolean is
    neither.  A rejection is a SchemaError at pointer + "/" + key.
    """
    here = f"{pointer}/{key}"
    value = obj.get(key) if isinstance(obj, dict) else obj[key]
    if value is None:
        if default is REQUIRED:
            raise SchemaError([(here, "missing")])
        return default
    if kind in (bool, str):
        ok = isinstance(value, kind)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        ok = False
    elif kind is int:
        ok = abs(value) < 2**63 and value == int(value)
    else:  # also false for nan, and for an int beyond the float range
        ok = abs(value) <= sys.float_info.max
    if not ok:
        raise SchemaError([(here, f"must be {_KINDS[kind]}")])
    return kind(value)
