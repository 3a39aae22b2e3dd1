"""Shared fixtures: the four block graphs used across the suite.

Session scope matters: each design keeps its one block graph, and several
modules check that a function's graph was built on the same space object.
"""

from __future__ import annotations

import pytest

from steinergraphs.designs import affine_design, cached_block_graph, projective_design


@pytest.fixture(scope="session")
def g_j2():
    """Block graph of the lines of PG(3,2): 35 vertices."""
    return cached_block_graph(projective_design(3, 2))


@pytest.fixture(scope="session")
def g_j3():
    """Block graph of the lines of PG(3,3): 130 vertices."""
    return cached_block_graph(projective_design(3, 3))


@pytest.fixture(scope="session")
def g_x2():
    """Block graph of the lines of AG(3,2): 28 vertices."""
    return cached_block_graph(affine_design(3, 2))


@pytest.fixture(scope="session")
def g_x3():
    """Block graph of the lines of AG(3,3): 117 vertices."""
    return cached_block_graph(affine_design(3, 3))
