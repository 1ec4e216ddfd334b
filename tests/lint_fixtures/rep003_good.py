"""REP003 fixtures: ordered or order-free set usage never fires."""

import hashlib


def sorted_iteration(names):
    return [n for n in sorted(set(names))]


def loop_over_sorted_literal():
    out = []
    for name in sorted({"mcf", "xz", "leela"}):
        out.append(name)
    return out


def membership_and_aggregation(names, candidate):
    # Membership tests and order-free reductions over sets are fine.
    pool = set(names)
    return candidate in pool, len(pool)


def list_of_list(names):
    return list([n for n in names])


def content_digest(name):
    # A content hash is the same in every process, unlike hash().
    return hashlib.sha256(name.encode("utf-8")).hexdigest()
