"""The sorted byte-key membership index, kept as a test oracle.

``SortedKeyCode`` answers the questions of ``GrayCode`` for any word set:
a permuted or corrupted code, a subset, repeated rows.  Rows are compared
as fixed-width byte keys against one argsort of the code's own rows, and
set equality is multiset equality.  The library's ``GrayCode`` decodes the
pinned coordinates of a type instead; the two must agree on every full
code in odometer order.  ``set_equal`` asks either kind of code whether a
matrix holds its words in some order.
"""

from dataclasses import dataclass, field

import numpy as np

from ghcodes.construction import GrayCode, RegeneratedDigits


def row_keys(words: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous uint8 matrix as one fixed-width byte key (a view)."""
    return words.view(np.dtype((np.void, words.shape[1]))).reshape(-1)


@dataclass
class SortedKeyCode(GrayCode):
    """A GrayCode whose rows may be any word set, located through sorted byte keys."""

    _order: "np.ndarray | None" = field(default=None, repr=False)

    def index(self) -> np.ndarray:
        """Row order that sorts the byte keys, built on first use."""
        if self._order is None:
            self._order = np.argsort(row_keys(self.words))
        return self._order

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """A binary search on the sorted keys, then one row compare; equal words get one index."""
        rows = np.asarray(rows)
        out = np.full(rows.shape[0], -1, dtype=np.int64)
        if rows.shape[1] != self.length or not len(self):
            return out
        keys = row_keys(np.ascontiguousarray(rows, dtype=np.uint8))
        order = self.index()
        pos = np.searchsorted(row_keys(self.words), keys, sorter=order)
        cand = order[np.minimum(pos, len(order) - 1)]
        hit = (self.words[cand] == rows).all(axis=1)  # uncast: a symbol outside [0, 256) is a miss
        return np.where(hit, cand, -1)

    def same_multiset(self, hits: np.ndarray) -> bool:
        """Multiset equality: every word hit as often as the code holds it."""
        if len(hits) != len(self) or (hits < 0).any():
            return False
        counts = np.bincount(hits, minlength=len(self))
        return bool(np.array_equal(counts, np.bincount(self.locate(self.words), minlength=len(self))))


def same_multiset(code: "GrayCode | RegeneratedDigits", hits: np.ndarray) -> bool:
    """Are the rows that ``code.locate`` turned into ``hits`` the code's words, each as often as it holds them?

    A ``GrayCode`` or ``RegeneratedDigits`` of a type holds each word once, so each must be hit once."""
    if isinstance(code, SortedKeyCode):
        return code.same_multiset(hits)
    return len(hits) == len(code) and bool((hits >= 0).all() and (np.bincount(hits, minlength=len(code)) == 1).all())


def set_equal(code: GrayCode, rows: np.ndarray) -> bool:
    """Are the rows the code's words in some order? Exact."""
    rows = np.asarray(rows)
    return rows.shape == code.words.shape and same_multiset(code, code.locate(rows))
