"""Exception types raised by the solver library."""


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
