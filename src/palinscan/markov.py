"""First-order Markov models of DNA and palindrome occurrence rates.

A model is a base-composition vector ``pi`` plus a row-stochastic 4x4
transition matrix ``trans`` over the alphabet A=0, C=1, G=2, T=3. The chance
that a palindrome of half-length ``h`` sits at a given centre works out to a
matrix product: entry (i, j) of the quasi transition matrix is the chance of
stepping i -> j on the leading strand times the chance of the mirrored step
comp(j) -> comp(i) on the lagging strand, and the rate is the composition
vector pushed through ``h - 1`` such steps and closed off with a
complementary centre pair. Independent bases are the model iid_model(pi),
whose every row is pi, so markov_rate(iid_model(pi), h) is the iid rate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationError
from .numeric import read_only
from .seqio import DnaSeq

PROB_ATOL = 1e-6

# estimate_model packs four bases per word and counts the word codes in
# blocks of this many words, so that bincount's cast of each block to intp
# (256 kB) stays in cache; blocks of 2^15 and 2^16 words count 10 Mbp
# within a few percent of each other, 2^13 and 2^17 about 20-40% slower
PAIR_BLOCK = 1 << 15

# Base composition and transition frequencies of the bovine herpes virus 1
# reference genome (135,301 bp), rounded to four decimals; rows are
# renormalised on construction since the rounding leaves sums off by 1e-4.
BOHV1_GENOME_LENGTH = 135_301
_BOHV1_PI = (0.1354, 0.3588, 0.3654, 0.1404)
_BOHV1_TRANS = (
    (0.1854, 0.3288, 0.3556, 0.1303),
    (0.1258, 0.2932, 0.4347, 0.1463),
    (0.1343, 0.4512, 0.2994, 0.1151),
    (0.1141, 0.3151, 0.3695, 0.2012),
)


@dataclass(frozen=True)
class MarkovModel:
    """Base composition plus first-order transition probabilities.

    Attributes:
        pi: shape (4,) probability vector over A, C, G, T.
        trans: shape (4, 4) row-stochastic matrix; trans[i, j] is the
            probability that base j follows base i.
    """

    pi: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        if pi.shape != (4,) or trans.shape != (4, 4):
            raise ValueError("pi must have shape (4,) and trans shape (4, 4)")
        if not (np.all(pi >= 0) and np.all(trans >= 0)):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        if abs(pi.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"pi sums to {pi.sum()!r}, not 1")
        rows = trans.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > PROB_ATOL):
            raise ValueError(f"transition rows sum to {rows!r}, not 1")
        object.__setattr__(self, "pi", read_only(pi))
        object.__setattr__(self, "trans", read_only(trans))

    @cached_property
    def _step_table(self) -> tuple[np.ndarray, int, np.ndarray]:
        """(table, marker, bounds) by which _draw_step_maps maps raw words.

        bounds[s, i] is floor(c 2^53) for row s's cumulative transition
        probability c = trans[s, 0] + ... + trans[s, i], i < 3: a draw
        u = k 2^-53 (k an integer) exceeds c exactly when k exceeds that
        bound. table[j] is the byte-coded step map of every k in bucket j,
        the 2^37 values with k >> 37 == j (the word's top 16 bits); it is
        built by one slice add per bound. The at most 12 buckets that hold a
        bound, inside which the map may change, carry instead the marker,
        the first code that no bucket holds.
        """
        cum = np.cumsum(self.trans, axis=1)[:, :3]
        bounds = np.floor(cum * 2.0**53).astype(np.uint64)
        edges = (bounds >> 37).tolist()
        table = np.zeros(1 << 16, dtype=np.uint8)
        for s, row in enumerate(edges):
            for edge in row:
                table[edge + 1 :] += 1 << (2 * s)
        split = [edge for row in edges for edge in row if edge < table.size]
        # the table steps up only past a split bucket, so these are its codes
        steps = [edge + 1 for edge in split if edge + 1 < table.size]
        used = {0, *table[steps].tolist()}
        marker = min(set(range(256)) - used)
        table[split] = marker
        return table, marker, bounds


@dataclass(frozen=True)
class RateEstimate:
    """A per-position palindrome occurrence rate.

    Attributes:
        value: probability that a palindrome of the given half-length (or
            longer) is centred at a fixed position.
    """

    value: float


def _word_pairs() -> np.ndarray:
    """table[c, 4a + b]: how often the pair (a, b) occurs among the four
    adjacent pairs of the five bases in code c, base j in bits 2j..2j+1."""
    codes = np.arange(1024)
    table = np.zeros((1024, 16), dtype=np.int64)
    for j in range(4):
        pair = (((codes >> (2 * j)) & 3) << 2) | ((codes >> (2 * j + 2)) & 3)
        table[codes, pair] += 1
    return table


_WORD_PAIRS = _word_pairs()


def _pair_counts(b: np.ndarray) -> np.ndarray:
    """counts[4a + b]: how often base b follows base a in b.

    The bases from the first 4-byte boundary on are read as little-endian
    uint32 words, and each word is packed with its successor's first base
    into a 10-bit code (x | x >> 6, then | >> 12, puts the word's bases in
    its low byte). A 1024-bin histogram of the codes, taken PAIR_BLOCK
    words at a time, times the table of the pairs in each code gives the
    four pairs that start in each word; the few pairs before the boundary
    and from the last word on are counted one by one.
    """
    n = b.size
    head = min(-b.ctypes.data % 4, n - 1)
    m = max((n - head) // 4 - 1, 0)  # words counted by code, each with a successor
    words = b[head : head + 4 * m + 4].view("<u4") if m else None
    hist = np.zeros(1024, dtype=np.int64)
    low = np.empty(min(m, PAIR_BLOCK) + 1, dtype=np.uint32)
    high = np.empty_like(low)
    for start in range(0, m, PAIR_BLOCK):
        w = words[start : start + PAIR_BLOCK + 1]
        k = w.size - 1
        x, y = low[: k + 1], high[: k + 1]
        np.right_shift(w, 6, out=y)
        y |= w
        np.right_shift(y, 12, out=x)
        x |= y
        x &= 0xFF
        np.left_shift(w[1:], 8, out=y[:k])
        y[:k] &= 0x300
        x[:k] |= y[:k]
        hist += np.bincount(x[:k], minlength=1024)
    counts = hist @ _WORD_PAIRS
    for i in [*range(head), *range(head + 4 * m, n - 1)]:
        counts[4 * int(b[i]) + int(b[i + 1])] += 1
    return counts


def estimate_model(seq: DnaSeq, pseudocount: float = 0.0) -> MarkovModel:
    """Fit composition and transition frequencies to a sequence.

    Transitions are counted four bases per word by _pair_counts, on a
    contiguous copy when the bases are strided; the counts are integers,
    so the fit does not depend on how they were grouped.

    Args:
        seq: sequence to fit.
        pseudocount: added to every base count and every transition count
            before normalising, to keep rare rows away from zero.

    Raises:
        EstimationError: fewer than two bases, or (with zero pseudocount) a
            base that never occurs, leaving its transition row undefined.
    """
    if pseudocount < 0:
        raise ValueError("pseudocount must be non-negative")
    b = seq.bases
    if b.size < 2:
        raise EstimationError("need at least two bases to estimate transitions")
    pair_counts = _pair_counts(np.ascontiguousarray(b)).reshape(4, 4).astype(float)
    row_totals = pair_counts.sum(axis=1)
    # every base but the last starts one pair
    base_counts = row_totals.copy()
    base_counts[b[-1]] += 1.0
    if pseudocount == 0.0 and np.any(row_totals == 0):
        missing = ", ".join("ACGT"[i] for i in np.flatnonzero(row_totals == 0))
        raise EstimationError(
            f"no transitions out of bases {missing}; fit such a sequence with "
            f"the library call estimate_model(seq, pseudocount=p), p > 0"
        )
    pi = (base_counts + pseudocount) / (b.size + 4.0 * pseudocount)
    trans = (pair_counts + pseudocount) / (
        (row_totals + 4.0 * pseudocount)[:, None]
    )
    return MarkovModel(pi=pi, trans=trans)


def iid_model(pi) -> MarkovModel:
    """Model with independent draws from a fixed composition: every
    transition row is pi."""
    pi = np.asarray(pi, dtype=float)
    return MarkovModel(pi=pi, trans=np.tile(pi, (4, 1)))


def bohv1_model() -> MarkovModel:
    """The published bovine herpes virus 1 model, each row renormalised."""
    pi, trans = np.array(_BOHV1_PI), np.array(_BOHV1_TRANS)
    return MarkovModel(pi=pi / pi.sum(), trans=trans / trans.sum(axis=1, keepdims=True))


def quasi_transition_matrix(model: MarkovModel) -> np.ndarray:
    """Joint leading/lagging-strand step matrix.

    Entry (i, j) is trans[i, j] * trans[comp(j), comp(i)], the probability of
    extending a palindrome outward by one position on both strands at once.
    Its row sums fall below 1, so powers of it decay at the rate palindromes
    become rarer with length.
    """
    p = model.trans
    return p * p[::-1, ::-1].T


def center_pair_probs(model: MarkovModel) -> np.ndarray:
    """Probability of each base being followed by its complement.

    Component i is trans[i, comp(i)], which closes the innermost pair of a
    palindrome.
    """
    return np.diag(model.trans[:, ::-1]).copy()


def start_weights(model: MarkovModel) -> np.ndarray:
    """Row vector pi - pi T of palindrome start weights.

    Component j weights palindromes whose outermost left base is j without
    being extendable one step further; summed over half-lengths they
    telescope back to pi. Entries within 1e-12 below zero are rounding and
    read as 0; larger negative entries (pi far from stationary) are kept.
    """
    v = model.pi - model.pi @ quasi_transition_matrix(model)
    v[(v < 0) & (v > -1e-12)] = 0.0
    return v


def markov_rate(model: MarkovModel, half_length: int) -> RateEstimate:
    """Per-position rate of palindromes of at least the given half-length.

    Computed exactly as pi' T^(h-1) c, where T is the quasi transition
    matrix and c the centre-pair closure vector.
    """
    if half_length < 1:
        raise ValueError("half_length must be >= 1")
    t = quasi_transition_matrix(model)
    value = float(
        model.pi @ np.linalg.matrix_power(t, half_length - 1) @ center_pair_probs(model)
    )
    return RateEstimate(value=value)


def _pair_composition() -> np.ndarray:
    """table[a | b << 8]: the byte-coded step map "apply a, then b".

    A step map sends each current base s to a next base, held in bits
    2s..2s+1 of one byte, so 256 codes cover every map of 4 bases, and two
    adjacent maps read as one little-endian uint16 word index their
    composition.
    """
    a = np.arange(256, dtype=np.uint8)[None, :]
    b = np.arange(256, dtype=np.uint8)[:, None]
    table = np.zeros((256, 256), dtype=np.uint8)
    for s in range(4):
        via = (a >> (2 * s)) & 3
        table |= ((b >> (2 * via)) & 3) << (2 * s)
    return table.ravel()


_PAIRS = _pair_composition()

# the most maps _walk walks by a Python loop, and the words it composes or
# reads out at a time: take casts each chunk's uint16 indices to intp, 512 kB
# at 2^16 words. Loops of 16 to 256 maps walk 135 kbp within 5% of one
# another; chunks of 2^15 to 2^17 words within about 10% at 135 kbp and
# 10 Mbp, where 2^14 is 15-25% slower
WALK_LEAF = 64
WALK_CHUNK = 1 << 16

# generate_sequence draws and maps this many raw words at a time, so a
# 135,301 bp replicate is one chunk, and looks each chunk up an eighth at a
# time: take casts its indices to intp, so the cast takes one byte per word.
# At 10 Mbp, chunks of 2^16 to 2^19 took 68 to 82 ms (best of 7) against
# 105 ms for all words at once
DRAW_CHUNK = 1 << 18


def _walk(maps: np.ndarray, first: int) -> None:
    """Replace each step map by the base the walk from `first` reaches there.

    maps is a contiguous 1-D uint8 array of byte-coded step maps, best
    2-byte aligned; afterwards maps[t] holds the base that maps[0], ...,
    maps[t] take the base `first` to. Up to WALK_LEAF maps are walked one by
    one. Longer runs are composed by pair doubling: maps 2i and 2i + 1 are
    read as one little-endian uint16 word, whose lookup in _PAIRS is their
    composition, and the walk over those half as many pair maps gives the
    base after every odd map. Each word is then overwritten in place with
    its two bases: the low byte is the base map 2i takes the base before the
    pair to, the high byte the pair's own base. An odd last map is stepped
    from the last pair's base. Both passes run WALK_CHUNK words at a time.
    """
    m = maps.size
    if m <= WALK_LEAF:
        state = first
        states = []
        for code in maps.tolist():
            state = (code >> (2 * state)) & 3
            states.append(state)
        maps[:] = states
        return
    half = m // 2
    words = maps[: 2 * half].view("<u2")
    pairs = np.empty(half, dtype=np.uint8)
    for start in range(0, half, WALK_CHUNK):
        stop = start + WALK_CHUNK
        _PAIRS.take(words[start:stop], out=pairs[start:stop], mode="clip")
    _walk(pairs, first)

    # word i becomes (word >> 2 * base before the pair) & 3 | pairs[i] << 8
    shifts = np.empty(min(half, WALK_CHUNK), dtype=np.uint16)
    high = np.empty_like(shifts)
    for start in range(0, half, WALK_CHUNK):
        w = words[start : start + WALK_CHUNK]
        k = w.size
        shift, hi = shifts[:k], high[:k]
        shift[0] = pairs[start - 1] if start else first
        shift[1:] = pairs[start : start + k - 1]
        shift <<= 1
        w >>= shift
        w &= 3
        np.left_shift(pairs[start : start + k], 8, out=hi, dtype=np.uint16)
        w |= hi
    if m % 2:
        maps[-1] = (maps[-1] >> (2 * pairs[-1])) & 3


def _draw_step_maps(model: MarkovModel, rng: np.random.Generator,
                    out: np.ndarray) -> int:
    """Draw one raw 64-bit word per position of out and return the first
    base; every later word becomes the step map into its position in out.

    For PCG64, PCG64DXSM, Philox and SFC64, Generator.random() is one word
    w as u = (w >> 11) 2^-53, so the words give the uniforms random() would
    and leave the generator where rng.random(out.size) would. Other bit
    generators are refused: MT19937, for one, makes a double from two
    32-bit words. The first base is the composition quantile of u. Each map
    is one take from model._step_table by the word's top 16 bits, read
    through a zero-copy view of the words; the words in a bucket that holds
    a threshold read the marker instead and are mapped exactly, by comparing
    w >> 11 with each row's three integer bounds. The words are drawn
    DRAW_CHUNK at a time and looked up an eighth of a chunk at a time; each
    chunk is freed before the next is drawn, and the chunks give the same
    stream as one call for all of them.

    Raises:
        TypeError: rng's bit generator is none of the four above.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM,
                             np.random.Philox, np.random.SFC64)):
        raise TypeError(
            f"generate_sequence reads 64-bit words as Generator.random() does "
            f"for PCG64, PCG64DXSM, Philox and SFC64, not {type(bits).__name__}")
    table, marker, bounds = model._step_table
    top = 3 if sys.byteorder == "little" else 0  # a word's top 16 bits
    first = 0
    for start in range(0, out.size, DRAW_CHUNK):
        maps = out[start : start + DRAW_CHUNK]
        words = bits.random_raw(maps.size)
        if start == 0:
            u = (int(words[0]) >> 11) * 2.0**-53
            first = min(int(np.searchsorted(np.cumsum(model.pi), u, side="right")), 3)
            words, maps = words[1:], maps[1:]
        buckets = words.view(np.uint16)[top::4]
        part = max(maps.size // 8, 1)
        for i in range(0, maps.size, part):
            table.take(buckets[i : i + part], out=maps[i : i + part], mode="clip")
        hits = np.flatnonzero(maps == marker)
        above = (words[hits] >> 11)[:, None, None] > bounds
        # row s's count of bounds exceeded goes to bits 2s..2s+1
        maps[hits] = above.sum(axis=2).dot((1, 4, 16, 64))
        del words, buckets
    return first


def generate_sequence(model: MarkovModel, length: int,
                      rng: np.random.Generator) -> DnaSeq:
    """Sample a sequence of the given length from the model.

    One raw 64-bit word of rng's bit generator per position, the words
    rng.random(length) would read, so rng is left where that call leaves
    it; rng must run on PCG64 (default_rng), PCG64DXSM, Philox or SFC64,
    and any other bit generator raises TypeError. With u = (word >> 11)
    2^-53, the uniform random() makes of it, the first base is the
    composition quantile of u. Every later word becomes a byte-coded step
    map: bits 2s..2s+1 hold the base that follows base s, namely the number
    of row s's first three cumulative transition probabilities that u
    exceeds. The map is one lookup in a 65,536-entry table by the word's
    top 16 bits; the words in the at most 12 table buckets that hold a
    threshold (about 12 words in 65,536) are mapped by exact integer
    comparisons instead (_draw_step_maps). The words are drawn and mapped
    DRAW_CHUNK at a time, and the maps are written into the output array
    itself, so besides it the draws take one chunk of words and one byte
    per word for the lookup's index cast, freed before the walk. The first
    map is stepped here, so the rest start on an even address, and the
    chain is realised there without a per-base Python loop by _walk: it
    composes adjacent maps in pairs through a 65,536-entry table, walks the
    pair maps the same way (12 levels of pairs at 135 kbp, 18 at 10 Mbp)
    and writes both bases of each pair in place. Besides the output, the
    walk's pair maps (one byte per base over all levels) and chunk buffers
    set the peak: 2.22 bytes per base at 2 Mbp.

    Raises:
        ValueError: a negative length.
        TypeError: rng's bit generator is none of the four above.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return DnaSeq(bases=np.empty(0, dtype=np.uint8))
    out = np.empty(length, dtype=np.uint8)
    first = _draw_step_maps(model, rng, out)
    out[0] = first
    if length > 1:
        out[1] = (out[1] >> (2 * first)) & 3
        _walk(out[2:], int(out[1]))
    return DnaSeq(bases=out)
