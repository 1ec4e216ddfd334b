"""REP003 fixtures: hash-ordered iteration feeding ordered output."""


def loop_over_set_literal():
    out = []
    for name in {"mcf", "xz", "leela"}:
        out.append(name)
    return out


def loop_over_set_call(names):
    report = []
    for name in set(names):
        report.append(name)
    return report


def comprehension_over_frozenset(names):
    return [n.upper() for n in frozenset(names)]


def list_of_set(names):
    return list({n.strip() for n in names})


def joined_set(names):
    return ", ".join(set(names))


def hash_ordered(names):
    return sorted(names, key=lambda name: hash(name))


def address_keyed(objects):
    return {id(obj): obj for obj in objects}
