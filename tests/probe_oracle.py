"""The structural kernel's probe filter applied one probe at a time, kept as the oracle of its rounds.

For each block of T it sends one ``RegeneratedDigits.locate`` call a
probe, on the survivors of the probes before it.  The library's filter
(``invariants._probe_survivors``) applies several probes in one call; the
two must leave the same survivors, in the same order.
"""

import numpy as np

from ghcodes import invariants
from ghcodes.construction import AdditiveCode, OdometerSpan, RegeneratedDigits, _digit_blocks, _mod_p_diff
from ghcodes.gray import _digit_words


def probe_survivors_one_at_a_time(code: AdditiveCode, other: np.ndarray) -> np.ndarray:
    """The indices of T (the odometer span of ``other``) that survive every probe, one locate call a probe."""
    sig, p = code.sig, code.sig.p
    restricted = RegeneratedDigits(code, invariants._spread(sig.n, invariants._PROBE_COORDS))
    span = OdometerSpan(sig, other[:, restricted.coords])
    probes = _digit_words(sig.params, span.words(invariants._spread(len(span), invariants._PROBES)[1:]))
    negs = invariants._negated(probes, p)
    survivors = []
    for start, words in _digit_blocks(span, restricted.step):
        idx = np.arange(start, start + len(words))
        for neg in negs:
            if not len(idx):
                break
            inside = restricted.locate(_mod_p_diff(words.copy(), neg, p)) >= 0
            words, idx = words[inside], idx[inside]
        survivors.append(idx)
    return np.concatenate(survivors)
