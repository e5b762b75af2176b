"""Exact membership of Gray images, checked against a brute-force oracle.

The oracle is a Python set of ``row.tobytes()``.  The code under test is a
random subset of a small Gray image, optionally column-permuted, so the
smallest and largest keys vary and queries can fall outside the key range.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes.construction import GrayCode, build_gray_code, validate_type

TYPES = [(2, (1, 1)), (2, (2, 1)), (2, (1, 1, 0)), (3, (1, 1)), (3, (2, 0)), (3, (1, 0, 1)), (5, (1, 0)), (5, (1, 1))]


@lru_cache(maxsize=None)
def full_code(p, ts):
    return build_gray_code(validate_type(p, ts))


def oracle_contains(words, queries):
    keys = {row.tobytes() for row in words}
    return [row.tobytes() in keys for row in queries]


def oracle_set_equal(words, rows):
    return rows.shape == words.shape and {r.tobytes() for r in rows} == {r.tobytes() for r in words}


@st.composite
def codes(draw):
    """A GrayCode over a non-empty subset of a small Gray image, plus that image."""
    p, ts = draw(st.sampled_from(TYPES))
    full = full_code(p, ts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.sort(rng.choice(len(full), size=draw(st.integers(1, len(full))), replace=False))
    words, everything = full.words[keep], full.words
    if draw(st.booleans()):
        perm = rng.permutation(full.length)
        words, everything = words[:, perm], everything[:, perm]
    return GrayCode(full.sig, words), everything, rng


def corrupt_one_symbol(rows, p, rng):
    out = rows.copy()
    cols = rng.integers(0, rows.shape[1], size=len(rows))
    deltas = rng.integers(1, p, size=len(rows)).astype(np.uint8)
    out[np.arange(len(rows)), cols] = (out[np.arange(len(rows)), cols] + deltas) % p
    return out


@settings(max_examples=80, deadline=None)
@given(codes())
def test_contains_rows_matches_oracle(case):
    gc, everything, rng = case
    p, n = gc.sig.p, gc.length
    members = gc.words[rng.integers(0, len(gc), size=20)]
    outsiders = everything[rng.integers(0, len(everything), size=20)]
    extremes = np.stack(
        [
            np.zeros(n, dtype=np.uint8),  # sorts before the first key unless it is one
            np.full(n, p - 1, dtype=np.uint8),
            np.full(n, 255, dtype=np.uint8),  # sorts after every key
        ]
    )
    queries = np.vstack([members, outsiders, corrupt_one_symbol(members, p, rng), extremes])
    got = gc.contains_rows(queries)
    assert got.tolist() == oracle_contains(gc.words, queries)
    assert [gc.contains_row(q) for q in queries[-3:]] == got[-3:].tolist()


@settings(max_examples=80, deadline=None)
@given(codes())
def test_set_equal_matches_oracle(case):
    gc, _, rng = case
    words = gc.words
    shuffled = words[rng.permutation(len(words))]
    changed = shuffled.copy()
    changed[0] = corrupt_one_symbol(changed[:1], gc.sig.p, rng)[0]
    duplicated = shuffled.copy()
    duplicated[0] = duplicated[-1]
    repeated = np.repeat(words[:1], len(words), axis=0)
    for rows in (shuffled, changed, duplicated, repeated, words[:-1]):
        assert gc.set_equal(rows) == oracle_set_equal(words, rows)
