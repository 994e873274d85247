"""Fixtures that several test modules share."""

import pytest

from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema


@pytest.fixture(scope="module")
def ladder():
    return HopfAlgebra(ladder_schema(), validate_to=6)
