"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro.machine.engine.native import CACHE_DIR_ENV_VAR
from repro.machine.params import MachineParams


@pytest.fixture(scope="session", autouse=True)
def native_cache_dir(tmp_path_factory):
    """Build native modules into a session temporary directory instead of
    the home directory, unless the caller set one. Subprocesses the tests
    start inherit it through the environment."""
    if os.environ.get(CACHE_DIR_ENV_VAR):
        yield os.environ[CACHE_DIR_ENV_VAR]
        return
    path = str(tmp_path_factory.mktemp("native-cache"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_DIR_ENV_VAR, path)
        yield path


@pytest.fixture
def tiny_params():
    """Figure 4 scale: width 4, latency 3."""
    return MachineParams(width=4, latency=3, num_dmms=2)


@pytest.fixture
def small_params():
    """Width 8 — fast but exercises real blocking."""
    return MachineParams(width=8, latency=16, num_dmms=4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def created_shm(monkeypatch):
    """``(created, real)``: names of the shared-memory blocks this process
    creates during the test, and the unpatched ``SharedMemory`` class (to
    probe whether a name still exists without being counted)."""
    from multiprocessing import shared_memory

    real = shared_memory.SharedMemory
    created = []

    def tracking(*args, **kwargs):
        block = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(block.name)
        return block

    monkeypatch.setattr(shared_memory, "SharedMemory", tracking)
    return created, real
