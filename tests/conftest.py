"""Shared fixtures for the tests."""

import pytest
from scenario_builders import REPO_ROOT


@pytest.fixture
def repo_root():
    return REPO_ROOT
