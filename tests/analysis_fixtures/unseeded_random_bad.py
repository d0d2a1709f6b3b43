"""Failing fixture for the unseeded-random rule: every unseeded idiom."""

import random
from random import Random
from random import Random as R
from random import shuffle

import numpy as np


def pick(items, seed=None):
    rng = random.Random()
    by_name = Random()
    by_alias = R()
    shuffle(items)
    noise = np.random.rand()
    return random.choice(items), rng, by_name, by_alias, noise
