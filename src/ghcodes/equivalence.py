"""Equivalence chains of generalized Hadamard codes across ring levels.

A type whose generator matrix has a second row of order p^(s+1-sigma)
sits at position sigma of a unique chain.  The chain's representative is
the member with t_1 >= 2 (lowest ring level); walking one level up sends
(t_1, ..., t_s) to (1, t_1 - 1, t_2, ..., t_{s-1}, t_s - 1), and the
corresponding Gray images differ by an explicit coordinate permutation.
The witness between two positions of one chain is a single index
shuffle, built in one step:

The paper's step from Z_{p^(s+1)} down to Z_{p^s} on N = n' p^s
coordinates is (gamma_ext . rho_lift)^(-1), with rho interleaving the p
runs of n' blocks of width p^(s-1) and gamma acting inside each block of
width p^s.  Write a coordinate as j N/p + r with j < p and r < N/p, so
r = i p^(s-1) + c with i < n' and c < p^(s-1).  rho_lift moves it to
i p^s + j p^(s-1) + c and gamma then to i p^s + c p + j = p r + j.  Its
inverse, the step, is the p-shuffle: coordinate a p + b (b < p) moves to
b N/p + a.  Every member of a chain has N = p^t, where the p-shuffle
rotates the t base-p digits of a coordinate by one place, lowest to top;
L of them rotate by L places, moving a q + b (b < q = p^L) to
b p^t / q + a, the q-shuffle.  The steps are powers of one permutation,
so their order does not matter, and the witness from position hi down
to lo is the p^(hi-lo)-shuffle (the identity when hi = lo).  It maps one
Gray image exactly onto the other, with no monomial part.  gamma, rho,
the unmapping tau_tilde and the step-by-step composition are not in the
library: they are the oracle of this shuffle in ``tests/paper_steps.py``.

That claim is checked on the order-p split C = T + C[p] that gives rank
and kernel (``construction.order_p_split``), holding neither Gray image.
Mapped words are located in the lower member C_lo: m(x) is the odometer
index of the word x, whose t+1 base-p digits are its coefficients on the
p-basis of C_lo.  Some of those positions are top positions, those of the
order-p rows that span C_lo[p] (``construction._top_rows``).  Let z_j be
the top rows of the higher member C_hi and y_j = pi(Phi(z_j)).  The
witness pi passes when

(a) every pi(Phi(tau)) with tau in T_hi is located, at m(tau);
(b) every y_j is located at an index n_j whose digits are 0 off the top
    positions, so y_j is in Phi(C_lo[p]);
(c) the digit vectors n_j are independent over GF(p), and the |T_hi|
    digit vectors m(tau) are distinct modulo their span N.

By (b) the n_j are 0 off the top positions, and top rows have order p,
so adding a.N to an index (digit by digit mod p) adds an order-p word to
its codeword, which moves only top digits, with no carry: on digit
words, the word at m + a.N is the word at m plus sum_j a_j y_j.  The
Gray maps are linear on digits (``gray.digit_table`` checks it for both
rings) and pi is linear, so that word is pi(Phi(tau + sum_j a_j z_j))
when m = m(tau).
Every word of C_hi is one such tau + sum_j a_j z_j, so pi(Phi(C_hi))
lies in Phi(C_lo).  By (c) the |T_hi| p^(len z) indices m(tau) + a.N
are distinct, so they are all p^(t+1) indices, and pi(Phi(C_hi)) is
all of Phi(C_lo).  This generalizes the coset-of-kernel argument of
Phelps, Rifà and Villanueva (IEEE Trans. IT 52(1), 2006).  A true
witness passes (b): phi(p^(s-1) u) is the constant word u, so
tau_tilde sends order-p words to order-p words.

Each mapped word and each y_j is located as ``GrayCode.locate`` locates
one: the residues at the lower member's pinned coordinates decode an
odometer index, and the word is a hit when it equals, whole, the Gray
word rebuilt there from the ``OdometerSpan`` of the lower member's basis,
so a hit is a word of Phi(C_lo).  T_hi is streamed a block at a time:
its words are Gray-expanded, mapped by the witness (a transpose) and
located.  The reduced digit vectors of the m(tau) are distinct integer
keys, so a PASS rests on no hash.  The check costs |T_hi| lookups, not
p^(t+1).  No image, permuted copy or additive matrix of either member is
ever allocated whole; ``set_check_bytes`` counts what the check
allocates, the witness included.  These two estimates are all the budget
is compared with.

Degenerate corner: types (1, 0, ..., 0, m) have sigma = s and their
representative collapses to the single-entry type (m + s - 1) over Z_p.
Such a representative is kept as pure type algebra — its own position-1
"code" lives at a shorter length and is never materialized — but all
members at positions >= 2 are genuine codes of one length, and exactly
these types make up the linear Gray images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import (
    DEFAULT_BUDGET_BYTES,
    AdditiveCode,
    OdometerSpan,
    TypeSignature,
    _block_words,
    _check_budget,
    _decode_plan,
    _gray_blocks,
    _locate,
    _odometer_digits,
    _sum_dtype,
    _top_rows,
    block_bytes,
    build_bytes,
    order_p_split,
    phi_bytes,
    span_bytes,
    validate_type,
)
from .errors import InputError, NoSecondRow
from .gray import Permutation, _block_residues, digit_table, gray_matrix
from .invariants import ReducedBasis
from .ring import RingParams


def _chain_location(ts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(representative, 1-based position) of the type ``ts`` in its chain, by type algebra alone.

    The position is sigma: 1 when t_1 >= 2, else the slot (1-based) of the
    first nonzero entry after t_1.  Raises ``NoSecondRow`` for (1, 0, ..., 0),
    which has a single generator row.
    """
    s = len(ts)
    if ts[0] >= 2:
        return ts, 1
    for sg in range(2, s + 1):
        if ts[sg - 1] > 0:
            if sg < s:
                return (ts[sg - 1] + 1, *ts[sg : s - 1], ts[s - 1] + sg - 1), sg
            return (ts[s - 1] + s - 1,), s  # a single-entry representative over Z_p
    raise NoSecondRow(f"type {ts} has a single generator row")


def sigma(sig: TypeSignature) -> int:
    """Ring level of the second generator row: its order is p^(s+1-sigma)."""
    return _chain_location(sig.ts)[1]


@dataclass(frozen=True)
class ChainPosition:
    representative: TypeSignature
    position: int


@dataclass(frozen=True)
class EquivalenceChain:
    representative: TypeSignature
    members: tuple[TypeSignature, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> TypeSignature:
        return self.members[i]


def chain_of(sig: TypeSignature) -> ChainPosition:
    """Locate a type inside its chain: (representative, 1-based position)."""
    rep, position = _chain_location(sig.ts)
    return ChainPosition(sig if position == 1 else validate_type(sig.p, rep), position)


def chain_members(rep: TypeSignature) -> EquivalenceChain:
    """All members of the chain with the given representative, position order.

    Member i lives over Z_{p^(s+i-1)}; there are t_s + 1 members.
    """
    if rep.ts[0] < 2:
        raise InputError(f"{rep.ts} is not a chain representative (t_1 < 2)")
    s = rep.s
    tail = rep.ts[s - 1]
    members = [rep]
    for i in range(2, tail + 2):
        if s == 1:
            ts = (1, *([0] * (i - 2)), tail - i + 1)
        else:
            ts = (1, *([0] * (i - 2)), rep.ts[0] - 1, *rep.ts[1 : s - 1], tail - i + 1)
        members.append(validate_type(rep.p, ts))
    return EquivalenceChain(rep, tuple(members))


def step_permutation(p: int, s: int, n_prime: int) -> Permutation:
    """The permutation carrying Gray images one ring level down.

    For an additive code H over Z_{p^(s+1)} of length n_prime whose
    unmapping tau_tilde(H) has type one chain-position lower, the returned
    pi in S_{n_prime * p^s} satisfies pi(Phi(H)) = Phi(tau_tilde(H)).  The
    paper's pi = (gamma_ext . rho_lift)^(-1) is the p-shuffle of those
    coordinates, for every n_prime (see the module docstring); tau_tilde,
    gamma, rho and the paper's pi are kept in ``tests/paper_steps.py`` as
    its oracle.
    """
    RingParams(p, s)
    if n_prime < 1:
        raise InputError("n must be >= 1")
    return Permutation._shuffle(n_prime * p**s, p)


def witness_bytes(length: int) -> int:
    """Bytes a witness of ``length`` coordinates holds at its peak: two int64 arrays of the length.

    ``Permutation._shuffle`` writes the q-shuffle's image in place beside two
    index ranges of length/q and q and wraps it unchecked and uncopied; the
    set check applies it by a transpose and builds no inverse image.  Under
    tracemalloc the build peaked at 1.63, 1.61 and 1.41 arrays at q = p
    (p = 2, t = 17; p = 3, t = 10; p = 5, t = 7), and at 2 arrays where
    one range is the whole length (q = 1, the identity from a position to
    itself), plus under 64 KiB.
    """
    return 2 * 8 * length + 2**16


def set_check_bytes(lower: TypeSignature, higher: TypeSignature) -> int:
    """Bytes the set-equality check of ``verify_equivalence`` allocates, all as held at once.

    It counts the witness (``witness_bytes``); the phi and digit tables
    and ``build_bytes`` of both members; the lower member's span tables
    (``span_bytes``); one block of mapped words, the top rows or a block
    of T_hi, whichever has more words: the block with its mapped copy
    (``block_bytes``), its pinned blocks with two int64 and two 16-bit
    arrays of their residues, the lower words rebuilt at the decoded
    indices (two gathers, an ``_add_mod`` temporary and their
    np.take index), their Gray words and the comparison, and the int64 and
    float copies of the located digits reduced modulo N; and per word of
    T_hi its key and a byte to compare the sorted keys.
    """
    length, digits = lower.gray_length, lower.t + 1
    span = higher.t + 1 - higher.num_rows
    rows = max(higher.num_rows, _block_words(lower.p, span, max(8 * higher.n, length)))
    read = lower.num_rows * (lower.p ** (lower.s - 1) + 20)
    locate = read + lower.n * (3 * _sum_dtype(lower).itemsize + 8) + 2 * length + 40 * digits
    held = span_bytes(lower, digits) + block_bytes(higher, span, length, rows) + rows * locate
    tables = sum(phi_bytes(sig.params) + sig.params.modulus * sig.s for sig in (lower, higher))
    keys = 9 * lower.p**span
    return witness_bytes(length) + tables + build_bytes(lower) + build_bytes(higher) + held + keys


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str  # "PASS" | "FAIL"
    representative: "tuple[int, ...] | None"
    positions: tuple[int, int]
    witness: "Permutation | None"
    mode: str  # "set-equality" | "algebra-only"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def verify_equivalence(
    sig_a: TypeSignature,
    sig_b: TypeSignature,
    check_sets: "bool | None" = None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    render_bytes: int = 0,
) -> EquivalenceReport:
    """Decide equivalence of two types and, when PASS, produce a witness.

    PASS means both types sit in the same chain; the witness permutation
    maps the Gray image of the higher-position member exactly onto the
    lower one's (identity when the positions coincide).  With
    check_sets=None the set equality is verified whenever the two codes
    fit the memory budget; True forces the check, False skips it.

    The witness is built when ``witness_bytes`` fits the budget, and is
    None otherwise.  The check is exact and runs on the order-p splits of
    both members: it streams the |T_hi| words of the higher member's
    transversal through the witness in blocks of at most 256 KiB, looks
    each one up in the lower member, checks that the mapped top rows are
    found on the lower member's order-p rows and that the found indices
    stay distinct modulo theirs, so it holds neither Gray image (see the
    module docstring).  It runs when ``set_check_bytes`` fits the budget
    (with check_sets=True, CapacityError otherwise).  That estimate
    includes the witness, so a checked verdict always has one.
    ``render_bytes``, what the caller will hold beside the returned witness
    (the command line's JSON of it), is added to both estimates.
    """
    if sig_a.p != sig_b.p:
        raise InputError("types live over different primes")
    if sig_a.t != sig_b.t:
        raise InputError(f"Gray lengths differ: p^{sig_a.t} vs p^{sig_b.t}")
    ca, cb = chain_of(sig_a), chain_of(sig_b)
    positions = (ca.position, cb.position)
    if ca.representative.ts != cb.representative.ts:
        return EquivalenceReport(
            "FAIL",
            None,
            positions,
            None,
            "algebra-only",
            f"distinct representatives {ca.representative.ts} and {cb.representative.ts}",
        )

    rep = ca.representative
    lo, hi = min(positions), max(positions)
    lower_sig, higher_sig = (sig_a, sig_b) if ca.position <= cb.position else (sig_b, sig_a)

    length = sig_a.gray_length
    cost = 0 if check_sets is False else set_check_bytes(lower_sig, higher_sig) + render_bytes
    if check_sets is True:
        _check_budget("set-equality check", cost, budget_bytes)
    witness: Permutation | None = None
    if witness_bytes(length) + render_bytes <= budget_bytes:
        witness = Permutation._shuffle(length, rep.p ** (hi - lo))

    if check_sets is not False and cost <= budget_bytes:  # the cost counts the witness, so it is there
        if not _maps_onto(AdditiveCode.build(lower_sig), AdditiveCode.build(higher_sig), witness):
            # the chain theory guarantees equality; reaching here means a bug
            return EquivalenceReport(
                "FAIL", rep.ts, positions, witness, "set-equality", "composed witness failed set equality"
            )
        return EquivalenceReport("PASS", rep.ts, positions, witness, "set-equality")
    return EquivalenceReport("PASS", rep.ts, positions, witness, "algebra-only")


def _gray_locator(code: AdditiveCode):
    """Locate a block of Gray words in Phi(code) as ``GrayCode.locate`` does, rebuilding words from the basis."""
    sig, span, plan = code.sig, OdometerSpan(code.sig, code.basis), _decode_plan(code.sig)
    gray_at = lambda idx: gray_matrix(sig.params, span.words(idx))
    return lambda words: _locate(sig, plan, _block_residues, words, sig.size, gray_at, len(words), sig.gray_length)


def _maps_onto(lower: AdditiveCode, higher: AdditiveCode, witness: Permutation) -> bool:
    """Does ``witness`` map Phi(higher) onto Phi(lower)?  Conditions (a)-(c) of the module docstring, exactly."""
    p, digits = lower.sig.p, lower.sig.t + 1
    digit_table(higher.sig.params)  # Phi(C_hi) = Phi(T_hi) + span Phi(z_j) rests on the higher ring's check
    digit_table(lower.sig.params)  # and the indices located in C_lo add as digit words on the lower ring's
    top, other = order_p_split(higher)
    locate = _gray_locator(lower)
    tops = locate(witness(gray_matrix(higher.sig.params, top)))
    if (tops < 0).any():  # (b): a y_j outside Phi(C_lo)
        return False
    ns = _odometer_digits(p, tops, digits)
    span = ReducedBasis(p, digits)
    span.absorb(ns)
    if ns[:, ~_top_rows(lower.sig)].any() or span.rank < len(top):  # (b): a y_j outside Phi(C_lo[p]); (c): dependent
        return False
    place = p ** np.arange(digits)
    keys = np.empty(p ** len(other), dtype=np.int64)
    for start, words in _gray_blocks(higher.sig, other):
        located = locate(witness(words))
        if (located < 0).any():  # (a)
            return False
        keys[start : start + len(located)] = span.reduce(_odometer_digits(p, located, digits)).astype(np.int64) @ place
    keys.sort()  # in place, not np.unique, whose first call imports numpy.ma (about 14 ms)
    return not (keys[1:] == keys[:-1]).any()  # (c): the m(tau) distinct modulo N
