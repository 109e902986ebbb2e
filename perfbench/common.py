"""What the runner and every workload share: item records, failures, seeded values."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

# the checkout the benchmark runs in: perfbench/ sits at its root, the package under src/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mismatch(Exception):
    """An item's answer disagreed with its oracle."""


class ItemTimeout(Exception):
    """An item ran past its time budget."""


@dataclass
class Item:
    """One query: its class, the size recorded with it, and its inputs."""

    cls: str
    size: dict
    data: tuple


def rand_q(rng, num=6, den=4, zero=False):
    """A small random rational, nonzero unless ``zero`` allows it."""
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q or zero:
            return q


def require(cond, what):
    if not cond:
        raise Mismatch(what)
