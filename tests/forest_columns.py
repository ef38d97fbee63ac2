"""The node columns of a forest document as JSON lists and back, so that a
test can edit single nodes and write the result in the binary form the
library writes, or keep the list form of older schema-2 files; and the
values and bytes of one binary column, so that a test can damage it."""

import base64

import numpy as np

from dexter.errors import encode_column, read_field
from dexter.isolation_forest import COLUMN_KINDS


def listed(forest: dict) -> dict:
    """A copy of a forest document with every node column a JSON list."""
    return {**forest, **{name: read_field(forest, name, "forest", kind, ndim=1).tolist()
                         for name, kind in COLUMN_KINDS.items()}}


def binary(forest: dict) -> dict:
    """A copy of a forest document with every node column that is a list
    encoded as the library writes it."""
    return {**forest, **{name: encode_column(forest[name], kind)
                         for name, kind in COLUMN_KINDS.items() if isinstance(forest.get(name), list)}}


def column_values(text: str, name: str) -> np.ndarray:
    """A writable copy of the values of the binary column ``name``, in the
    little-endian dtype of its bytes."""
    return np.frombuffer(base64.b64decode(text), "<f8" if COLUMN_KINDS[name] is float else "<i4").copy()


def column_text(raw) -> str:
    """The base64 text of raw bytes, or of an array's bytes."""
    return base64.b64encode(bytes(raw)).decode("ascii")
