"""The kernel probe (`tests/kernel_probe.py`) measures how far two trees'
kernel outputs moved."""

from __future__ import annotations

import math

import numpy as np
from kernel_probe import _max_abs_diff


def test_max_abs_diff_is_the_largest_move_over_every_output():
    parent = [np.array([1.0, 2.0]), np.array([0, 3])]
    assert _max_abs_diff(parent, [np.array([1.0, 2.0]), np.array([0, 3])]) == 0.0
    assert _max_abs_diff(parent, [np.array([1.25, 2.0]), np.array([0, 3])]) == 0.25
    assert _max_abs_diff(parent, [np.array([1.0, 2.0]), np.array([0, 5])]) == 2.0


def test_non_finite_or_reshaped_outputs_count_as_inf():
    inf = np.array([1.0, np.inf])
    assert _max_abs_diff([inf], [inf.copy()]) == 0.0
    assert math.isinf(_max_abs_diff([inf], [np.array([1.0, 2.0])]))
    assert math.isinf(_max_abs_diff([inf], [np.array([1.0, -np.inf])]))
    assert math.isinf(_max_abs_diff([inf], [np.array([1.0, np.inf, 0.0])]))
