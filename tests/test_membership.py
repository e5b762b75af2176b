"""Exact membership of Gray images, checked against two oracles.

``GrayCode`` decodes a word's odometer row from its pinned coordinates.
It is tested against ``SortedKeyCode``, the sorted byte-key index kept in
``tests/`` as the oracle, on full codes and on short prefixes of them,
with members, corruptions, words of other types, constant words, blocks
with no Gray preimage and words of the wrong length as queries.

``RegeneratedDigits``, which holds no words and rebuilds the digit word
at each decoded row from two span tables, is checked against
``GrayCode.locate`` on the full image: the same kinds of Gray queries go
through the boundary decode (``paper_steps._decode``, a miss where a word has no
Gray preimage) to digit words, over moduli whose sums widen the dtype
(243) or fill it (256, 512), and with chunks of one word and of a few.
So does the chain check's locate (``equivalence._gray_locator``), which
compares each Gray query whole with the Gray word rebuilt from the span.

``SortedKeyCode`` itself is checked against a Python set (or, for set
equality, a multiset) of ``row.tobytes()``, on a random subset of a small
Gray image, optionally column-permuted and optionally with one word
repeated, so the smallest and largest keys vary and queries can fall
outside the key range.
"""

import importlib
import itertools
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes.classification import enumerate_types
from ghcodes.construction import (
    AdditiveCode,
    GrayCode,
    RegeneratedDigits,
    build_gray_code,
    materialize_gray,
    validate_type,
)
from ghcodes.equivalence import _gray_locator
from ghcodes.gray import _digit_words, gray_matrix, phi_table
from ghcodes.ring import RingParams

from goldens import PHI3
from paper_steps import _decode
from sorted_key_code import SortedKeyCode, same_multiset, set_equal
from test_construction import small_types

construction = importlib.import_module("ghcodes.construction")

TYPES = [(2, (1, 1)), (2, (2, 1)), (2, (1, 1, 0)), (3, (1, 1)), (3, (2, 0)), (3, (1, 0, 1)), (5, (1, 0)), (5, (1, 1))]


@lru_cache(maxsize=None)
def full_code(p, ts):
    return build_gray_code(validate_type(p, ts))


def oracle_contains(words, queries):
    keys = {row.tobytes() for row in words}
    return [row.tobytes() in keys for row in queries]


def oracle_set_equal(words, rows):
    """Multiset equality: the same words, each as often."""
    return rows.shape == words.shape and Counter(r.tobytes() for r in rows) == Counter(r.tobytes() for r in words)


@st.composite
def codes(draw):
    """A SortedKeyCode over a non-empty subset of a small Gray image (one of
    its words possibly repeated), plus that image."""
    p, ts = draw(st.sampled_from(TYPES))
    full = full_code(p, ts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.sort(rng.choice(len(full), size=draw(st.integers(1, len(full))), replace=False))
    words, everything = full.words[keep], full.words
    if draw(st.booleans()):
        perm = rng.permutation(full.length)
        words, everything = words[:, perm], everything[:, perm]
    if draw(st.booleans()):
        words = np.insert(words, rng.integers(0, len(words) + 1), words[rng.integers(0, len(words))], axis=0)
    return SortedKeyCode(full.sig, words), everything, rng


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
def test_locate_matches_oracle(case):
    gc, everything, rng = case
    members = gc.words[rng.permutation(len(gc))]
    outsiders = everything[rng.integers(0, len(everything), size=20)]
    queries = np.vstack([members, outsiders, corrupt_one_symbol(members, gc.sig.p, rng)])
    got = gc.locate(queries)
    assert got.dtype == np.int64 and got.shape == (len(queries),)
    for query, index, member in zip(queries, got, oracle_contains(gc.words, queries)):
        if member:
            assert 0 <= index < len(gc)
            assert np.array_equal(gc.words[index], query)
        else:
            assert index == -1
    # equal words are located at one index, so counting hits counts multiplicities
    keys = [q.tobytes() for q in queries]
    assert len({(k, int(i)) for k, i in zip(keys, got)}) == len(set(keys))
    assert np.array_equal(gc.contains_rows(queries), got >= 0)
    assert (gc.locate(queries[:, :-1]) == -1).all()  # wrong length: nothing is a member


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
    swapped = shuffled.copy()  # one copy of a repeated word traded for another word
    counts = Counter(r.tobytes() for r in words)
    twice = [i for i, r in enumerate(swapped) if counts[r.tobytes()] > 1]
    if twice and len(counts) > 1:
        other = next(i for i, r in enumerate(swapped) if not np.array_equal(r, swapped[twice[0]]))
        swapped[twice[0]] = swapped[other]
    for rows in (shuffled, changed, duplicated, repeated, swapped, words[:-1]):
        assert set_equal(gc, rows) == oracle_set_equal(words, rows)
        assert same_multiset(gc, gc.locate(rows)) == oracle_set_equal(words, rows)


def test_set_equal_counts_repeated_words():
    """set_equal is multiset equality: a repeated word must be repeated as often."""
    sig = full_code(3, (1, 1)).sig
    a, b, c = (np.array(PHI3[u], dtype=np.uint8) for u in (0, 13, 26))
    gc = SortedKeyCode(sig, np.stack([a, a, b]))
    assert set_equal(gc, np.stack([b, a, a]))
    assert set_equal(gc, gc.words)
    assert not set_equal(gc, np.stack([a, b, b]))  # same set, other multiplicities
    assert not set_equal(gc, np.stack([a, b, c]))
    assert not set_equal(gc, np.stack([a, b]))
    assert not set_equal(SortedKeyCode(sig, np.stack([a, b, c])), np.stack([a, a, b]))


# ---------------------------------------------------------------------------
# the algebraic decode against the sorted-key oracle
# ---------------------------------------------------------------------------

# (p, t) with every type of at most 3^5 words; each has at least two types
LENGTHS = [(2, t) for t in range(1, 7)] + [(3, t) for t in range(1, 5)] + [(5, t) for t in range(1, 3)]


def types_of(p, t):
    return [ts for s in range(1, t + 2) for ts in enumerate_types(t, s)]


def no_preimage_block(p, s):
    """A block of p^(s-1) symbols that is no phi-image, or None when phi is onto."""
    images = {row.tobytes() for row in phi_table(RingParams(p, s))}
    blocks = (np.array(b, dtype=np.uint8) for b in itertools.product(range(p), repeat=p ** (s - 1)))
    return next((b for b in blocks if b.tobytes() not in images), None)


def mixed_queries(full, other, rng):
    """Members in random order, their one-symbol corruptions, words of another
    type, constant words and members with a block that has no phi-preimage."""
    p, (m, n) = full.sig.p, full.words.shape
    members = full.words[rng.permutation(m)]
    constants = np.repeat(np.arange(p, dtype=np.uint8)[:, None], n, axis=1)
    foreign = other.words[rng.integers(0, len(other), size=20)]
    queries = [members, corrupt_one_symbol(members[:20], p, rng), foreign, constants]
    block = no_preimage_block(p, full.sig.s)
    if block is not None:
        unmapped = members[:10].copy()
        starts = rng.integers(0, n // block.size, size=len(unmapped)) * block.size
        for row, start in zip(unmapped, starts):
            row[start : start + block.size] = block
        queries.append(unmapped)
    return np.vstack(queries)


@st.composite
def decode_cases(draw):
    """A full Gray image in odometer order, possibly cut short, with a mixed batch of queries."""
    p, t = draw(st.sampled_from(LENGTHS))
    ts, other = draw(st.permutations(types_of(p, t)))[:2]
    full = full_code(p, ts)
    queries = mixed_queries(full, full_code(p, other), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    held = draw(st.integers(1, len(full)))
    return GrayCode(full.sig, full.words[:held]), SortedKeyCode(full.sig, full.words[:held]), queries


@settings(max_examples=120, deadline=None)
@given(decode_cases())
def test_locate_agrees_with_sorted_key_oracle(case):
    gc, oracle, queries = case
    got = gc.locate(queries)
    assert np.array_equal(got, oracle.locate(queries))
    hit = got >= 0
    assert np.array_equal(gc.words[got[hit]], queries[hit])  # a hit is the held row at its index
    assert np.array_equal(gc.contains_rows(queries), hit)
    for wrong in (queries[:, :-1], np.hstack([queries, queries[:, :1]])):
        assert (gc.locate(wrong) == -1).all()
    assert set_equal(gc, gc.words[::-1])


def test_row_out_of_its_odometer_place_is_not_found():
    full = full_code(3, (2, 1))
    words = full.words.copy()
    words[[4, 9]] = words[[9, 4]]
    gc = GrayCode(full.sig, words)
    got = gc.locate(full.words)
    assert got[4] == got[9] == -1
    assert np.array_equal(np.delete(got, [4, 9]), np.delete(np.arange(len(gc)), [4, 9]))
    assert not set_equal(gc, full.words) and not set_equal(gc, words)
    assert (GrayCode(full.sig, full.words[:0]).locate(full.words) == -1).all()
    assert (GrayCode(full.sig, full.words[-1:]).locate(full.words[-1:]) == -1).all()  # its odometer row is not held


@pytest.mark.parametrize("p,ts", small_types(3**7))
def test_locate_finds_every_word_at_its_odometer_index(p, ts):
    gc = full_code(p, ts)
    assert np.array_equal(gc.locate(gc.words), np.arange(len(gc)))


# ---------------------------------------------------------------------------
# the regenerating digit lookup against the held image
# ---------------------------------------------------------------------------

# beside the (p, t) of the decode cases, one type per modulus 243 (its sums
# widen uint8 to uint16), 256 (fills uint8) and 512 (uint16)
WIDE = [(3, (1, 0, 0, 0, 1)), (2, (1, 0, 0, 0, 0, 0, 0, 1)), (2, (1, 0, 0, 0, 0, 0, 0, 0, 0))]


@st.composite
def regenerated_cases(draw):
    """A full Gray image, a mixed batch of queries and a chunk size in bytes."""
    if draw(st.booleans()):
        p, ts = draw(st.sampled_from(WIDE))
        t = validate_type(p, ts).t
        other = draw(st.sampled_from([o for o in types_of(p, t) if o != ts]))
    else:
        p, t = draw(st.sampled_from(LENGTHS))
        ts, other = draw(st.permutations(types_of(p, t)))[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = full_code(p, ts)
    return full, mixed_queries(full, full_code(p, other), rng), draw(st.sampled_from([1, 2**12]))


def decode_digits(words, params):
    """The digit words of the residues ``paper_steps._decode`` reads off uint8 rows, and which rows are Gray images."""
    residues, preimage = _decode(words, params)
    return _digit_words(params, residues), preimage


def through_the_boundary(lookup, queries):
    """``lookup.locate`` of the digit words of Gray queries, decoded at the boundary: -1 where a query has no
    Gray preimage."""
    digits, preimage = decode_digits(np.ascontiguousarray(queries, dtype=np.uint8), lookup.sig.params)
    return np.where(preimage, lookup.locate(digits), -1)


def digits_at(digits, sig, coords):
    """Digit words restricted to the s digits of each of ``coords``, in their order."""
    return digits.reshape(len(digits), sig.n, sig.s)[:, coords].reshape(len(digits), -1)


@settings(max_examples=80, deadline=None)
@given(regenerated_cases())
def test_regenerated_locate_agrees_with_held_image(case):
    full, queries, chunk_bytes = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "_CHUNK_BYTES", chunk_bytes)
        code = AdditiveCode.build(full.sig)
        regen, chain_locate = RegeneratedDigits(code), _gray_locator(code)
        repeated = full.words.copy()
        repeated[0] = repeated[-1]
        for locate in (lambda q: through_the_boundary(regen, q), chain_locate):
            assert np.array_equal(locate(queries), full.locate(queries))
            assert same_multiset(regen, locate(full.words[::-1]))
            assert not same_multiset(regen, locate(repeated))
        digits = regen.rows(np.arange(len(full)))
        for wrong in (digits[:, :-1], np.hstack([digits, digits[:, :1]])):
            assert (regen.locate(wrong) == -1).all()


@pytest.mark.parametrize("p,ts", [(2, (2, 3)), (3, (2, 2)), (3, (1, 0, 1, 0)), (5, (1, 1)), *WIDE])
def test_regenerated_rows_equal_the_held_image(p, ts):
    # the digit words, read back as residues and Gray-expanded, are the held words
    code = AdditiveCode.build(validate_type(p, ts))
    sig = code.sig
    words = materialize_gray(code).words
    idx = np.random.default_rng(sum(ts) * p).integers(0, len(words), size=300)
    regen = RegeneratedDigits(code)
    for rows in (idx, np.arange(len(words))):
        digits = regen.rows(rows)
        assert digits.shape == (len(rows), sig.s * sig.n) and digits.max() < p
        residues = digits.reshape(len(rows), sig.n, sig.s).astype(np.int64) @ p ** np.arange(sig.s)
        assert np.array_equal(gray_matrix(sig.params, residues), words[rows])


@pytest.mark.parametrize("p,ts", [(2, (2, 3)), (3, (2, 2)), (3, (1, 0, 1, 0)), (5, (1, 1)), *WIDE])
def test_restricted_regenerated_gray_never_drops_a_member(p, ts):
    # restricted to the pinned coordinates and a sample, a query the held image finds is found at the same
    # index (others may be found too); restricted to every coordinate it is exact
    full = full_code(p, ts)
    code = AdditiveCode.build(full.sig)
    rng = np.random.default_rng(p * sum(ts))
    other = next(o for o in types_of(p, full.sig.t) if o != ts)
    queries = mixed_queries(full, full_code(p, other), rng)
    held = full.locate(queries)
    digits, preimage = decode_digits(queries, full.sig.params)
    everything = RegeneratedDigits(code).rows(np.arange(len(full)))
    for sample in (np.arange(0, full.sig.n, 5), np.array([], dtype=np.int64), np.arange(full.sig.n)):
        regen = RegeneratedDigits(code, sample)
        assert list(regen.coords[: code.sig.num_rows]) == list(construction._decode_plan(code.sig)[0])
        assert np.array_equal(regen.rows(np.arange(len(full))), digits_at(everything, full.sig, regen.coords))
        got = regen.locate(digits_at(digits, full.sig, regen.coords))
        assert ((held < 0) | (got == held)).all()
        if len(sample) == full.sig.n:
            assert np.array_equal(np.where(preimage, got, -1), held)


@pytest.mark.parametrize("p,ts", [(3, (1, 1)), (2, (2, 1)), (5, (1, 0)), (3, (1, 0, 1))])
def test_symbols_outside_the_alphabet_are_misses(p, ts):
    # int64 queries one symbol off a member by +-256 (the same byte) or set to p + k:
    # a uint8 cast of the query would find the member; Gray queries for the held image and its oracle,
    # digit words for the lookup
    full = full_code(p, ts)
    regen = RegeneratedDigits(AdditiveCode.build(full.sig))
    oracle = SortedKeyCode(full.sig, full.words.copy())
    rng = np.random.default_rng(p * len(ts))
    rows = rng.integers(0, len(full), size=12)

    def off_the_alphabet(words):
        queries = words.astype(np.int64)
        cols = rng.integers(0, queries.shape[1], size=len(rows))
        sym = queries[np.arange(len(rows)), cols]
        sym[0::4] += 256
        sym[1::4] -= 256
        sym[2::4] = p
        sym[3::4] += p + 1  # p + k for k = the old symbol + 1
        queries[np.arange(len(rows)), cols] = sym
        assert ((queries < 0) | (queries >= p)).any(axis=1).all()
        return queries

    queries = off_the_alphabet(full.words[rows])
    for code in (full, oracle):
        assert (code.locate(queries) == -1).all()
    assert (regen.locate(off_the_alphabet(regen.rows(rows))) == -1).all()
    assert not full.contains_rows(queries).any()
    assert not any(full.contains_row(q) for q in queries)
    # the members themselves, as int64 queries, are still found
    for code in (full, oracle):
        assert np.array_equal(code.locate(full.words[rows].astype(np.int64)), rows)
    assert np.array_equal(regen.locate(regen.rows(rows).astype(np.int64)), rows)
