"""Passing fixture for the unseeded-random rule: explicit seeds only."""

import random
from random import Random

DEFAULT_SEED = 2017


def pick(items, seed: int = DEFAULT_SEED):
    rng = random.Random(seed)
    fixed = Random(7)
    return rng.choice(items), fixed
