import pytest
from helpers import document_bytes, wide_row_network
from hypothesis import HealthCheck, settings

import infoflow

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def reference_bytes() -> bytes:
    return infoflow.reference_network_path().read_bytes()


@pytest.fixture(scope="session")
def reference_spec(reference_bytes):
    return infoflow.parse_network(reference_bytes)


@pytest.fixture(scope="session")
def wide_row_spec():
    return infoflow.parse_network(document_bytes(wide_row_network()))
