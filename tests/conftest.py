import os
from pathlib import Path

import pytest

import lapcyl


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """CLI tests run `python -m lapcyl.cli` in a subprocess; point it at the
    tree under test, also in a checkout without an install."""
    src = str(Path(lapcyl.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
