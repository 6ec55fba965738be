"""Detection and scoring of maximal DNA palindromes.

A palindrome here is an even-length segment equal to its own reverse
complement: around an inter-base centre, base ``+k`` to the right pairs with
the complement of base ``k-1`` to the left, for k = 1..h. Events record the
maximal h per centre; nested sub-palindromes of the same centre are not
emitted separately.

Events are always held as one PalindromeTable: centre and half-length
arrays over the searched sequence, and the threshold they were searched at.
It is the one event value from detection to window sums: score_events
scores it under a ScoreModel of the same threshold, average_rate reads it
alone, its centres are the positions window_scores sums over, and the
hot-spot simulation draws its inserts from one. Nothing here renders
text; the command line writes the scored-events table (scan
--dump-events).
PalindromeEvent objects are built only when a table is iterated. The bws
score exists only as score_events over a table: a single pattern is scored
as a table of one event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfiniteScoreError
from .markov import RateEstimate
from .mgf import ScoreModel
from .numeric import read_only
from .seqio import DnaSeq


@dataclass(frozen=True)
class PalindromeEvent:
    """A maximal palindrome occurrence.

    Attributes:
        center: 0-based index of the base just left of the fold; the
            palindrome occupies positions [center - half_length + 1,
            center + half_length].
        half_length: maximal h such that all h outward pairs are
            complementary.
        pattern: the palindrome itself (length 2 * half_length).
    """

    center: int
    half_length: int
    pattern: DnaSeq


@dataclass(frozen=True, eq=False)
class PalindromeTable:
    """The maximal palindromes of one sequence, as parallel arrays.

    Attributes:
        seq: the searched sequence.
        centers: int64 centres, ascending (see PalindromeEvent.center).
        half_lengths: int64 maximal half-length at each centre.
        min_half_length: the detection threshold L >= 1 the sequence was
            searched at; every half-length is at least L.

    ``len()`` is the event count. Iterating builds PalindromeEvent views on
    demand, each with its own copy of the pattern; the pipeline itself reads
    only the arrays.
    """

    seq: DnaSeq
    centers: np.ndarray
    half_lengths: np.ndarray
    min_half_length: int

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.int64)
        half = np.asarray(self.half_lengths, dtype=np.int64)
        if centers.ndim != 1 or half.shape != centers.shape:
            raise ValueError("centers and half_lengths must be 1-d arrays of one length")
        if self.min_half_length < 1:
            raise ValueError("min_half_length must be >= 1")
        if np.any(half < self.min_half_length):
            raise ValueError("event half_length is below the detection threshold")
        object.__setattr__(self, "centers", read_only(centers))
        object.__setattr__(self, "half_lengths", read_only(half))

    def __len__(self) -> int:
        return self.centers.size

    def __iter__(self):
        bases = self.seq.bases
        for c, h in zip(self.centers.tolist(), self.half_lengths.tolist()):
            pattern = DnaSeq(bases=bases[c - h + 1 : c + h + 1].copy())
            yield PalindromeEvent(center=c, half_length=h, pattern=pattern)


# Centres per block of find_palindromes' dense depth test: its buffers stay
# in cache, and a 135 kbp sequence is one block.
SEARCH_BLOCK = 1 << 18


def find_palindromes(s: DnaSeq, min_half_length: int) -> PalindromeTable:
    """All maximal palindromes with half-length >= min_half_length.

    Every kept centre c pairs b[c + k] with the complement of b[c - k + 1]
    at all depths k = 1..L (L = min_half_length), so those depths are tested
    densely, as L comparisons of shifted views over the centres that have
    room for them. The test runs over blocks of SEARCH_BLOCK centres, each
    with the complement of its own stretch of the sequence, into buffers
    allocated once, so the sequence is streamed through cache about once
    and no full-length temporary is made. Only the centres matching at
    every depth are then extended, one depth per round, each round keeping
    the centres that still match. Each round discards a (1 - gamma)
    fraction of centres on typical sequences, so total work is close to
    linear.

    Returns a PalindromeTable of centres (ascending) and half-lengths at
    threshold min_half_length; no event object is built unless the table is
    iterated. Overlapping palindromes at different centres are
    all reported.

    Raises:
        ValueError: min_half_length < 1 (the table's own check).
    """
    b = s.bases
    n = b.size
    low = min_half_length - 1  # the first centre with room for depth L
    count = n - 2 * min_half_length + 1
    if count <= 0 or min_half_length < 1:
        none = np.empty(0, dtype=np.int64)
        return PalindromeTable(s, none, none, min_half_length)
    size = min(count, SEARCH_BLOCK)
    comp = np.empty(size + low, dtype=np.uint8)
    match = np.empty(size, dtype=bool)
    equal = np.empty(size, dtype=bool)
    found = []
    for first in range(0, count, SEARCH_BLOCK):
        m = min(SEARCH_BLOCK, count - first)
        # comp[i] complements b[first + i]: depth k reads comp[low - k + 1 + j]
        # against b[first + low + k + j] for the block's centre j
        np.subtract(3, b[first : first + m + low], out=comp[: m + low])
        np.equal(b[first + low + 1 : first + low + 1 + m], comp[low : low + m],
                 out=match[:m])
        for k in range(2, min_half_length + 1):
            np.equal(b[first + low + k : first + low + k + m],
                     comp[low - k + 1 : low - k + 1 + m], out=equal[:m])
            np.logical_and(match[:m], equal[:m], out=match[:m])
        found.append(first + low + np.flatnonzero(match[:m]))
    centers = np.concatenate(found)
    half = np.full(centers.size, min_half_length, dtype=np.int64)
    alive = np.arange(centers.size)
    depth = min_half_length + 1
    while alive.size:
        c = centers[alive]
        inside = (c - depth + 1 >= 0) & (c + depth < n)
        alive = alive[inside]
        c = c[inside]
        matched = b[c + depth] == 3 - b[c - depth + 1]
        alive = alive[matched]
        half[alive] += 1
        depth += 1
    return PalindromeTable(s, centers, half, min_half_length)


def _log_probs(events: PalindromeTable, sm: ScoreModel) -> np.ndarray:
    """Log occurrence probabilities of the events' patterns under sm.

    The probability that a given maximal palindrome occupies a fixed centre
    factorises along its left half a_1..a_k (outermost base to fold): the
    start weight of a_1, which excludes one-step-longer palindromes, one
    quasi-transition factor per outward step, and the centre-pair closure
    of a_k. The left halves are gathered from the sequence by offset (event
    i's starts at centers[i] - half_lengths[i] + 1), every pattern's factors
    into one flat array, which is summed per pattern.
    """
    sizes = events.half_lengths
    first = np.cumsum(sizes) - sizes
    last = first + sizes - 1
    offset = events.centers - sizes + 1 - first
    flat = events.seq.bases[np.arange(sizes.sum()) + np.repeat(offset, sizes)]
    # base j of pattern i owns factor slot j + i; each closure takes the
    # slot after its pattern's last base
    slot = np.arange(flat.size) + np.repeat(np.arange(sizes.size), sizes)
    factors = np.empty(flat.size + sizes.size)
    factors[slot[1:]] = sm.t_matrix[flat[:-1], flat[1:]]
    factors[slot[first]] = sm.start_weights[flat[first]]
    factors[slot[last] + 1] = sm.closure_probs[flat[last]]
    if np.any(factors <= 0.0):
        raise InfiniteScoreError("pattern has zero probability under the model")
    return np.add.reduceat(np.log(factors), slot[first])


def score_events(events: PalindromeTable, sm: ScoreModel) -> np.ndarray:
    """Scores of the events of a PalindromeTable under sm, in event order.

    Kinds (sm.kind):
        pcs: plain count — every event scores 1.
        pls: length ratio — half_length / sm.half_length.
        bws: weight by rarity — minus the log occurrence probability of the
            exact pattern (_log_probs) from sm's start weights, quasi
            transition matrix and closure vector, for all events in one
            vectorised pass, with no event object built.

    Raises:
        ValueError: the table was searched at another threshold than
            sm.half_length, so its scores are not the ones sm's MGF
            describes.
        InfiniteScoreError: (bws) some pattern has zero probability.
    """
    if sm.half_length != events.min_half_length:
        raise ValueError(f"score model threshold {sm.half_length} differs from "
                         f"the table's {events.min_half_length}")
    half = events.half_lengths
    if sm.kind == "pcs":
        return np.ones(half.size)
    if sm.kind == "pls":
        return half / sm.half_length
    if not half.size:
        return np.empty(0)
    return -_log_probs(events, sm)


def average_rate(events: PalindromeTable) -> RateEstimate:
    """Observed events per position of the searched sequence, counted at
    the table's threshold.

    Raises:
        ValueError: the sequence is empty.
    """
    if events.seq.length < 1:
        raise ValueError("average rate of an empty sequence")
    return RateEstimate(value=len(events) / events.seq.length)
