import numpy as np
import pytest

from chebzeros import funcspace as fs


class _SizeLog:
    """log(f) -> (Func1D, sizes): f logging the size of every array it is
    evaluated on, except in the calls that root refinement makes; those
    are counted in refine_calls."""

    def __init__(self):
        self.refine_calls = 0
        self._refining = False

    def __call__(self, f):
        sizes = []

        def ev(t):
            if not self._refining:
                sizes.append(np.size(t))
            return f(t)

        return fs.Func1D(ev, "logged"), sizes

    def tag(self, fvals):
        def refine(m):
            self.refine_calls += 1
            self._refining = True
            try:
                return fvals(m)
            finally:
                self._refining = False

        return refine


@pytest.fixture
def size_log(monkeypatch):
    """A _SizeLog whose refinement calls are the ones _bisect_roots makes."""
    log = _SizeLog()
    bisect = fs._bisect_roots
    monkeypatch.setattr(fs, "_bisect_roots",
                        lambda fvals, *args: bisect(log.tag(fvals), *args))
    return log
