"""REP001 fixtures: explicit seeding never fires."""

import random
import uuid
import numpy as np
from numpy.random import default_rng


def seeded_default_rng(slice_index: int):
    return np.random.default_rng(0xB4A9C4 ^ slice_index)


def seeded_alias():
    return default_rng(seed=7)


def seeded_randomstate():
    return np.random.RandomState(42)


def seeded_stdlib_instance():
    return random.Random(1234)


def generator_methods(rng: np.random.Generator):
    # Methods on an explicit Generator instance are fine.
    return rng.random(4), rng.integers(0, 8)


def name_based_uuid(benchmark: str):
    # uuid5 hashes its inputs: the same name always gives the same id.
    return uuid.uuid5(uuid.NAMESPACE_URL, benchmark)
