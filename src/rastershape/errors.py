"""Exception types shared across the package."""


class RasterShapeError(Exception):
    """Base class for every error this package raises on bad input."""


class PnmFormatError(RasterShapeError):
    """Unreadable or malformed PBM/PGM data."""


class EmptyShapeError(RasterShapeError):
    """A shape with no foreground pixels reached a geometric operation."""


class IncompatibleVectorError(RasterShapeError):
    """Shape vectors with different variants or raster parameters were compared."""


class EmptyDatabaseError(RasterShapeError):
    """A query ran against a database with no usable records."""


class DatabaseFormatError(RasterShapeError):
    """Descriptor database file is malformed or has an unsupported version."""


class DatasetError(RasterShapeError):
    """Dataset does not satisfy the requirements of an experiment."""
