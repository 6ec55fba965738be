import os
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import palinscan
from palinscan import MarkovModel, bohv1_model, iid_model

from fasta_server import serving

DATA_DIR = pathlib.Path(__file__).parent / "data"


def child_env() -> dict:
    """This process's environment with the src directory of the palinscan
    it imported first on PYTHONPATH, so that a Python process a test starts
    imports the same package however pytest was started."""
    src = str(pathlib.Path(palinscan.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def bohv1() -> MarkovModel:
    return bohv1_model()


@pytest.fixture(scope="session")
def uniform() -> MarkovModel:
    return iid_model(np.full(4, 0.25))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1729)


@pytest.fixture
def local_endpoint():
    """URL of a local fasta_server.FastaHandler endpoint."""
    with serving() as url:
        yield url
