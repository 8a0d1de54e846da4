import pytest

from deco.executor import build_library
from deco.registry import load_registry


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def library(registry):
    return build_library(registry)[2]
