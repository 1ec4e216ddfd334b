"""REP001 fixtures: every flavour of unseeded randomness."""

import os
import random
import secrets
import uuid
import numpy as np
from numpy.random import default_rng as make_rng


def unseeded_default_rng():
    return np.random.default_rng()


def unseeded_alias():
    return make_rng()


def none_seed():
    return np.random.default_rng(None)


def legacy_global_numpy():
    np.random.seed(0)
    return np.random.rand(4)


def unseeded_randomstate():
    return np.random.RandomState()


def stdlib_global():
    random.shuffle([1, 2, 3])
    return random.randint(0, 10)


def unseeded_stdlib_instance():
    return random.Random()


def os_entropy():
    return os.urandom(8), os.getrandom(8)


def random_uuids():
    return uuid.uuid1(), uuid.uuid4()


def secrets_token():
    return secrets.token_hex(8)
