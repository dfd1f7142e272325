"""Raster-based shape vectors and a retrieval benchmark harness.

Shapes are described by counting lattice sample points (concentric circles
or an Archimedean spiral, anchored at the centroid) that land on the
shape, grouped per cycle, per radial line, or per spiral segment. The
matcher and evaluation modules reproduce a leave-self-out top-k retrieval
protocol over those vectors, including parameter sweeps and an occlusion
robustness experiment.
"""

from .descriptor import extract
from .errors import (
    DatabaseFormatError,
    DatasetError,
    EmptyDatabaseError,
    EmptyShapeError,
    IncompatibleVectorError,
    PnmFormatError,
    RasterShapeError,
)
from .evaluation import sweep
from .matcher import DescriptorDatabase, DescriptorRecord, query
from .raster import RasterSpec
from .shape_io import load_image

__version__ = "0.1.0"
