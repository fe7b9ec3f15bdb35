import pytest

from unitwist import catalog
from unitwist.cli import build_context
from unitwist.cocycle import CounitPair
from unitwist.twist import TwistedContext, ihoe_presentation


class Loaded:
    def __init__(self, entry):
        self.entry = entry
        self.data = entry.load()
        self.pres = self.data.presentation
        self.ctx = build_context(self.data)
        self._ihoe = None

    @property
    def ihoe(self):
        if self._ihoe is None:
            self._ihoe = ihoe_presentation(self.ctx)
        return self._ihoe


_cache = {}


def load(cid):
    if cid not in _cache:
        _cache[cid] = Loaded(catalog.get(cid))
    return _cache[cid]


@pytest.fixture(scope="session")
def examples():
    return load


@pytest.fixture(scope="session", params=catalog.ids())
def each_example(request):
    return load(request.param)


@pytest.fixture(scope="session")
def one_sided_right():
    """Builds the one-sided context of a cocycle J: K = eps.eps, so only J twists."""
    def build(pres, j):
        return TwistedContext(pres, CounitPair(pres), j)
    return build
