"""Exception types shared across the package, the checks of a configured
value, the one reader that checks a field of a document loaded from a file,
and the encoder of the binary columns that reader decodes."""

import base64
import math
import numbers
import reprlib
import sys

import numpy as np


class DexterError(Exception):
    """Base class for all package errors."""


class ConfigError(DexterError, ValueError):
    """Invalid configuration value or structure."""


class DataError(DexterError, ValueError):
    """Dataset does not satisfy the preconditions of an operation."""


class WindowTooShortError(DataError):
    """Feature window shorter than the minimum supported size."""


class InvalidInputError(DataError):
    """Non-finite or malformed numeric input."""


class SimulationDivergedError(DexterError, RuntimeError):
    """Environment state became non-finite during simulation."""


class IncompatibleModelError(DexterError, ValueError):
    """Model and data disagree on dimensionality or feature catalogue."""


class UndefinedMetricError(DexterError, ValueError):
    """Metric is undefined for the given input (e.g. single-class AUROC)."""


def require(ok: bool, name: str, expected: str, value):
    """Raise :class:`ConfigError` "``name`` must be ``expected``, got
    ``value``" unless ``ok``: each message starts with its field's name."""
    if not ok:
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a finite real number, or with ``integer`` an
    integer; NumPy scalars count, a bool never does."""
    try:
        return (isinstance(value, numbers.Integral if integer else numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def member(enum, value, name: str):
    """``value``, one of the values of ``enum``, as its member."""
    values = [m.value for m in enum]
    require(isinstance(value, str) and value in values, name, f"one of {values}", value)
    return enum(value)


# What a scalar field of each kind must be, and an array's elements.
_SCALARS = {float: "a finite number", int: "an integer", bool: "true or false",
            str: "a string", list: "a list"}
_ELEMENTS = {float: "finite numbers", int: "integers", bool: "booleans"}
# The NumPy dtype kinds an array of each element kind may load as; an empty
# list loads as float64 and passes as any kind.
_ARRAY_KINDS = {float: "iuf", int: "i", bool: "b"}
# The byte layout of a binary column of each element kind.
_COLUMN_DTYPES = {float: np.dtype("<f8"), int: np.dtype("<i4")}


def encode_column(values, kind: type) -> str:
    """A 1-D array of ``kind`` as one base64 string of its little-endian
    float64 or int32 bytes, the form :func:`read_field` decodes. Integers
    must fit in int32. A contiguous array already in that dtype is encoded
    from its own buffer, without a copy."""
    return base64.b64encode(np.ascontiguousarray(values, dtype=_COLUMN_DTYPES[kind])).decode("ascii")


def _decode_column(text: str, kind: type):
    """The values of a binary column in its file dtype, little-endian
    float64 or int32, as a read-only view of the decoded bytes; or None if
    ``text`` is not base64 or its bytes are not a whole number of items."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # a non-alphabet or non-ASCII character, or bad padding
        return None
    dtype = _COLUMN_DTYPES[kind]
    if len(raw) % dtype.itemsize:
        return None
    return np.frombuffer(raw, dtype=dtype)


def read_field(doc, name: str, owner: str, kind: type = float, ndim: int = 0,
               error: type = IncompatibleModelError, nullable: bool = False):
    """``doc[name]`` of a JSON document as ``kind``; every field read from
    a model file or an episode record goes through here. A scalar
    (``ndim`` 0) must be of exactly that JSON type, except that ``float``
    takes any finite number and returns a float: ``int`` refuses a bool and
    a whole float. An array of ``ndim`` dimensions is judged in one
    ``np.asarray`` pass by the dtype NumPy gives the whole list and returned
    as float64, int64 or bool. A 1-D float or int array may also be a
    string: the base64 of its little-endian float64 or int32 bytes, as
    :func:`encode_column` writes it. Such a binary column keeps its file
    dtype: it is returned as a read-only float64 or int32 view of the
    decoded bytes, never widened. No NaN or infinity passes. With
    ``nullable`` a JSON null reads as None. Anything else raises ``error``
    naming ``owner`` and the field."""
    if not isinstance(doc, dict):
        raise error(f"{owner} is not a JSON object")
    if name not in doc:
        raise error(f"{owner} is missing {name!r}")
    value = doc[name]
    if nullable and value is None:
        return None
    if ndim == 0:
        if kind is float and type(value) in (int, float):
            # False for NaN, an infinity and an integer beyond the float range.
            if abs(value) <= sys.float_info.max:
                return float(value)
        elif type(value) is kind:
            return value
        raise error(f"malformed {owner}: {name!r} must be {_SCALARS[kind]}, "
                    f"got {reprlib.repr(value)}")
    binary = isinstance(value, str) and ndim == 1 and kind in _COLUMN_DTYPES
    if binary:
        array = _decode_column(value, kind)
        if array is None:
            raise error(f"malformed {owner}: {name!r} is not base64 of little-endian "
                        f"{_COLUMN_DTYPES[kind].name} values")
    else:
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged list
            array = None
    if (array is None or array.ndim != ndim
            or (array.size and array.dtype.kind not in _ARRAY_KINDS[kind])
            or (kind is float and not np.isfinite(array).all())):
        raise error(f"malformed {owner}: {name!r} must be a {ndim}-D array of {_ELEMENTS[kind]}")
    return array if binary else array.astype(kind, copy=False)
