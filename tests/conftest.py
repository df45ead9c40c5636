import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from densfam import Family, WindowSchedule, kw_family


@pytest.fixture(scope="session")
def small_schedule():
    """Three windows up to 8000; enough for exact-set checks."""
    return WindowSchedule(start=2000, ratio=Fraction(2), count=3)


@pytest.fixture(scope="session")
def kw_pair():
    return kw_family([2, 3], [Fraction(3, 10), Fraction(1, 2)])


def periodic(residues, modulus):
    """Helper: periodic set {n : n mod modulus in residues}."""
    from densfam import from_membership

    rs = frozenset(residues)
    s = from_membership(lambda n: n % modulus in rs,
                        descriptor={"kind": "periodic", "residues": sorted(rs),
                                    "modulus": modulus})
    return s


@pytest.fixture(scope="session")
def half_family():
    """Two exactly-period-2 sets: evens and {n : n mod 4 in {0, 1}}."""
    e = periodic([0], 2)
    h = periodic([0, 1], 4)
    return Family(("E", "H"), (e, h), (Fraction(1, 2), Fraction(1, 2)))
