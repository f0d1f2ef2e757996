"""Deliberately broken fixture for the ``repro lint`` self-test.

Each function below plants the defect one lint rule exists to catch.
Every one of them runs and returns the right forward values, which is
why the test suite cannot see them.  ``repro lint examples/lint/planted``
must report exactly one finding per rule and exit 1; CI runs it so a
silently broken rule cannot pass the gate by finding nothing.

Never import this module from real code.
"""

import numpy as np

from repro.tensor.module import Module, Parameter


def degree_total(degrees):
    total = 0
    for i in range(len(degrees)):  # HOTLOOP
        total += int(degrees[i])
    return total


def promote(features):
    return features.astype(np.float64)  # DTYPE-DRIFT


def scale_in_place(h, alpha):
    h.data *= alpha  # INPLACE-GRAD: the tape's backward misses the factor
    return h


class Scaled(Module):
    def __init__(self, w0):
        super().__init__()
        scale = Parameter(w0)  # PARAM-REG: never reaches parameters()
        self.scale_value = scale.data
