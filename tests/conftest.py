import os
import warnings

import numpy as np
import pytest

from rastershape.shape_io import BinaryShape

# Hypothesis's failure report imports this module, which imports libcst when
# it is installed; some libcst versions import mypy_extensions.TypedDict,
# which raises a DeprecationWarning. Under -W error that warning, raised in
# the report hook, ends the session before the failing test is named, so the
# module is imported here once with DeprecationWarning ignored. Without
# libcst the import fails and Hypothesis reports failures without it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_addoption(parser):
    parser.addoption(
        "--dataset", default=None,
        help="directory of pre-converted MPEG-7 CE-Shape-1 Part B images "
             "(.pgm/.pbm); enables the full-dataset acceptance criterion",
    )


@pytest.fixture(scope="session")
def mpeg7_dir(request):
    return request.config.getoption("--dataset") or os.environ.get("RASTERSHAPE_MPEG7")


def random_blob_mask(rng: np.random.Generator, size: int = 96,
                     blobs: tuple[int, int] = (2, 6)) -> np.ndarray:
    """Union of random ellipses, concentrated near the frame middle."""
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(rng.integers(*blobs)):
        cx, cy = rng.uniform(size * 0.30, size * 0.70, 2)
        a, b = rng.uniform(size * 0.06, size * 0.18, 2)
        tilt = rng.uniform(0, np.pi)
        u = (xx - cx) * np.cos(tilt) + (yy - cy) * np.sin(tilt)
        v = -(xx - cx) * np.sin(tilt) + (yy - cy) * np.cos(tilt)
        mask |= (u / a) ** 2 + (v / b) ** 2 <= 1.0
    if not mask.any():
        mask[size // 2, size // 2] = True
    return mask


def coprime6_blob_mask(rng: np.random.Generator, size: int = 96) -> np.ndarray:
    """Blob whose pixel count is coprime to 6, so the centroid can never sit
    exactly on a half-integer rounding boundary."""
    mask = random_blob_mask(rng, size)
    ys, xs = np.nonzero(mask)
    i = 0
    while xs.size % 2 == 0 or xs.size % 3 == 0:
        mask[ys[i], xs[i]] = False
        i += 1
        ys, xs = np.nonzero(mask)
    return mask


def blob_shape(seed: int, size: int = 96, coprime6: bool = False,
               id: str = "blob-1") -> BinaryShape:
    rng = np.random.default_rng(seed)
    mask = coprime6_blob_mask(rng, size) if coprime6 else random_blob_mask(rng, size)
    return BinaryShape(mask, id=id, category="blob")


def grid_points(grid) -> list[tuple[float, float, int, int]]:
    """(x, y, cycle_index, angle_index) per sample, as plain Python numbers.

    Grids hold their points in (cycle, angle) order, so point i is angle
    i % s of cycle i // s.
    """
    s = grid.spec.samples_per_cycle
    return [(x, y, i // s, i % s)
            for i, (x, y) in enumerate(zip(grid.xs.tolist(), grid.ys.tolist()))]


@pytest.fixture(scope="session")
def synthetic_corpus():
    from synthcorpus import make_corpus

    return make_corpus()


@pytest.fixture(scope="session")
def toy_corpus():
    from synthcorpus import make_toy_corpus

    return make_toy_corpus()
