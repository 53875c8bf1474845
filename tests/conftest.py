import pytest

from curveform.scalar import curve_point_from_t
from curveform.nodal import build_algebra
from curveform.hopf import StructureMaps

# (q, p) = (3, 6), (0, 0), (-1, 0), (8, 24)
REFERENCE_TS = (2, 1, 0, 3)


@pytest.fixture(scope="session")
def points():
    return {t: curve_point_from_t(t) for t in REFERENCE_TS}


@pytest.fixture(scope="session")
def algebras(points):
    return {t: build_algebra(p) for t, p in points.items()}


@pytest.fixture(scope="session")
def alg(algebras):
    """The default algebra, at (q, p) = (3, 6)."""
    return algebras[2]


@pytest.fixture(scope="session")
def maps(alg):
    return StructureMaps(alg)


@pytest.fixture(scope="session")
def maps_by_t(algebras):
    return {t: StructureMaps(a) for t, a in algebras.items()}
