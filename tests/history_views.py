"""History views for tests that read a known function in place of a run."""

import math

import numpy as np


class FunctionView:
    """History view, and ``source``, of a caller's function s -> state vector.

    The function is taken as fixed, so every read is committed: its
    committed end is +inf.
    """

    __slots__ = ("fn", "source")
    t_last = math.inf

    def __init__(self, fn):
        self.fn = self.source = fn

    def components(self, ts, idx):
        return np.array([self.fn(s)[i] for s, i in zip(ts, idx)])
