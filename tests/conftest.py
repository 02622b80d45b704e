import argparse
import types

import numpy as np
import pytest

from chebzeros import cli
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


@pytest.fixture
def sample_log(monkeypatch):
    """A log of fs.sample calls as (f, ts) pairs in .samples, of
    fs._bisect_roots calls in .refines and of the f calls those make in
    .rounds."""
    log = types.SimpleNamespace(samples=[], refines=0, rounds=0)
    sample, bisect = fs.sample, fs._bisect_roots

    def spy_sample(f, ts):
        log.samples.append((f, ts))
        return sample(f, ts)

    def spy_bisect(fvals, *args):
        def counted(m):
            log.rounds += 1
            return fvals(m)

        log.refines += 1
        return bisect(counted, *args)

    monkeypatch.setattr(fs, "sample", spy_sample)
    monkeypatch.setattr(fs, "_bisect_roots", spy_bisect)
    return log


def _subparsers(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


@pytest.fixture
def command_flags():
    """{"synth ortho": {"--system": True, "--grid": False, ...}, ...}: the
    flags of verify and of each synth and curve subcommand, as the CLI
    parser defines them, True where the flag is required."""
    leaves = {}
    for name, p in _subparsers(cli.build_parser()).items():
        subs = _subparsers(p) if name != "verify" else {"": p}
        for what, leaf in subs.items():
            leaves[f"{name} {what}".strip()] = {
                opt: a.required for a in leaf._actions for opt in a.option_strings
                if opt != "--help" and opt.startswith("--")}
    return leaves
