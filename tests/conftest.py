"""Child interpreters that the tests start (`python -m clusternull.cli`,
`python -c ...`) import the package from the same source tree as the tests
themselves, so a plain `pytest` works from a checkout without an install.

Trial collections run on 2 workers unless CLUSTER_SIM_THREADS is set:
results are bit-identical for any worker count, and the longest tests are
Monte Carlo collections that 2 workers shorten."""

import os

import pytest

import clusternull

os.environ.setdefault("CLUSTER_SIM_THREADS", "2")
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(clusternull.__file__)))


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_tree():
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, old) if p)
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old
