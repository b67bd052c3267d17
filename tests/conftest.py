"""Fixtures shared by several test modules."""

import time
from types import SimpleNamespace

import pytest

from stlhom.domains import Z
from stlhom.steinberg import build_stl

from oracles import s3_ring, smith_sizes


@pytest.fixture(scope="session")
def z_s3_stl3():
    """stl_3(Z[S_3]), built once per session from a cold start.

    ``model`` is the model, ``seconds`` the wall time of its ``build_stl``
    and ``smith_sizes`` the (rows, columns) of every Smith reduction that
    build ran."""
    ring = s3_ring(Z)
    with smith_sizes() as sizes:
        start = time.perf_counter()
        model = build_stl(3, ring)
        seconds = time.perf_counter() - start
    return SimpleNamespace(model=model, seconds=seconds, smith_sizes=sizes)
