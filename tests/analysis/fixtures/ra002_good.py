"""RA002 silent fixture: pure hot paths, impure-but-cold reporting."""

import time


def lookup(index, key):
    index.counters.counts["probe"] += 1
    try:
        return index.get(key)
    except KeyError:
        return None


def insert(index, key, value):
    try:
        index.put(key, value)
    except BaseException:
        # Cleanup-and-propagate is the sanctioned broad-except shape.
        index.rollback()
        raise


def report(index):
    # Cold: nothing reaches this from a registered hot root.
    print("index holds", index.num_keys, "keys at", time.time())
