"""Exception types shared across the package, and the JSON-pointer plumbing.

Every error raised on a user-facing path derives from GapsubError, and
each class declares how the CLI reports it: the label that starts its line
and the process's exit code.  The constructors are the only validators of
their input: one that rejects a single field sets the error's pointer to
it ("/P/0").  The JSON builders (measure_from_spec, and the from_json of
every schedule kind, fekete's RealSequence among them) re-raise a
rejection through schema_errors as a SchemaError, prefixing the pointer
with the object's place in its document; each also refuses a key it does
not read (known_keys).
"""
from __future__ import annotations

import contextlib
import math
import numbers


class GapsubError(Exception):
    """Base class for all package errors.

    pointer, when set, is the JSON pointer of the offending field
    relative to the object being built, such as "/P/0".  label and
    exit_code are the CLI's report of the class: "label: pointer: message"
    on stderr ("label: message" with no pointer), then exit with exit_code.
    """

    label = "error"
    exit_code = 1

    def __init__(self, message: str = "", pointer: str = ""):
        super().__init__(message)
        self.message = message
        self.pointer = pointer

    def __str__(self) -> str:
        return f"{self.pointer}: {self.message}" if self.pointer else self.message


class ConfigError(GapsubError):
    """Malformed run configuration or command-line input."""

    exit_code = 2


class SchemaError(ConfigError):
    """A JSON document failed structural validation at pointer."""

    label = "schema"


class ValidationError(GapsubError):
    """A numeric object violates its contract (normalization, consistency)."""

    label = "validation"
    exit_code = 3


class ScheduleRangeError(ValidationError):
    """A function of n, a schedule or a sequence, was asked or gave a value outside its range."""


class CapExceededError(GapsubError):
    """An exact enumeration would exceed the configured work cap."""

    label = "cap"
    exit_code = 4


class DecouplingFailure(GapsubError):
    """An estimate found no certificate: Q has no kernel bound and none was assumed."""

    label = "decoupling"
    exit_code = 5


class GapLiftError(ValidationError):
    """The base sequence is not plainly subadditive, so no lift is defined."""


@contextlib.contextmanager
def schema_errors(prefix: str = ""):
    """Re-raise a rejection of the object built inside as a SchemaError.

    prefix is the object's pointer in its document.  A nested builder
    passes its own relative prefix, so pointers compose level by level.
    """
    try:
        yield
    except (ConfigError, ValidationError) as exc:
        raise SchemaError(exc.message, prefix + exc.pointer) from exc


@contextlib.contextmanager
def pointed(prefix: str, kind: type[GapsubError] = GapsubError):
    """Prefix the pointer of a kind error raised inside, keeping its class
    and exit code; one that names no field gets prefix as its pointer."""
    try:
        yield
    except kind as exc:
        exc.pointer = prefix + exc.pointer
        raise


def finite(value: numbers.Real) -> bool:
    """Whether value is finite as a Python float; an int beyond the float range is not.

    Converting first keeps a numpy float32 from casting the float maximum
    to its own type, which overflows and warns."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_tol(tol) -> None:
    """Refuse a slack tol that is nan, infinite or negative: a check that
    allows excess <= tol would pass every comparison at a nan tol."""
    if not (finite(tol) and tol >= 0):
        raise ConfigError("tol must be finite and >= 0")


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
            raise SchemaError("missing", here)
        return default
    if kind in (bool, str):
        ok = isinstance(value, kind)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        ok = False
    elif kind is int:
        ok = abs(value) < 2**63 and value == int(value)
    else:
        ok = finite(value)
    if not ok:
        raise SchemaError(f"must be {_KINDS[kind]}", here)
    return kind(value)


def known_keys(obj: dict, keys, pointer: str = "", noun: str = "key") -> None:
    """Refuse the first key of obj, in its order, that keys does not hold.

    A builder of a JSON object passes the keys it reads, so a misspelt key
    is refused instead of ignored: a SchemaError "unknown noun" at
    pointer + "/" + key.
    """
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown {noun}", f"{pointer}/{key}")
