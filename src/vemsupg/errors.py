"""Exception types raised by the solver library."""

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or geometry (bad orientation, dangling index, ...)."""


class MeshFormatError(MeshError):
    """Malformed mesh file; message carries cell/line context."""


class ElementQualityError(Exception):
    """Element unusable for assembly: empty kernel, singular local system, ..."""

    def __init__(self, message, cell=None):
        if cell is not None:
            message = f"cell {cell}: {message}"
        super().__init__(message)
        self.cell = cell


class ProbeError(Exception):
    """Coercivity probe exhausted the search cap; carries the eigenvalue trace."""

    def __init__(self, message, trace=None, cell=None):
        if cell is not None:
            message = f"cell {cell}: {message}"
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.cell = cell


class SolveError(Exception):
    """Linear solve failed (singular factorization or residual above tolerance)."""


def first_failure(failed, cells):
    """Flat position and cell id of the entry of ``failed`` with the lowest cell id.

    ``failed`` is an array of flags with at least one set; ``cells`` gives
    one cell id per entry, or one for all.  Ids may be None, which sort
    first, so without ids the first failing entry is named.
    """
    at = np.flatnonzero(failed)
    ids = np.broadcast_to(np.asarray(cells, dtype=object), np.shape(failed)).ravel()[at]
    j = min(range(len(at)), key=lambda j: -1 if ids[j] is None else ids[j])
    return int(at[j]), ids[j]
