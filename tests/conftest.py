import os
from pathlib import Path

import pytest

from quatsurf import PrimePredicate, construct_fields

# pyproject's pythonpath reaches this process only; child processes started
# with sys.executable find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def family_n1():
    """The standard one-extension family over discriminant -4 (x = 1)."""
    return construct_fields(-4, 1)


@pytest.fixture(scope="session")
def predicate_n1(family_n1):
    return PrimePredicate(-4, family_n1.extensions)


@pytest.fixture(scope="session")
def predicate_n1_scanned(predicate_n1):
    """Same predicate with the member scan to 10^7 already cached (the one
    expensive computation in the suite, shared by the density and census
    criteria)."""
    predicate_n1.members_up_to(10**7)
    return predicate_n1
