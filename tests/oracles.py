"""Independent reference implementations used to check the package.

Everything here is deliberately naive: plain loops, exhaustive enumeration,
direct summation, closed forms for independent bases and finite
differences, sharing no code with the package internals beyond numpy
primitives and the package's error types. Two exceptions: the Monte
Carlo overshoot walk (overshoot_nu) draws its scores from
palinscan.sim.TiltedScoreSampler, which is checked against the series,
enumeration and closed-form oracles in tests/test_sim.py; and seq_of, no
oracle but the tests' way to write a sequence as text, reads it with the
package's one text reader, parse_fasta.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from palinscan.errors import (
    CrowdedSegmentError,
    EstimationError,
    FastaError,
    InfiniteScoreError,
    NonFiniteError,
    PalinscanError,
)
from palinscan.seqio import parse_fasta

DERIV_STEP = 1e-5
DERIV_STEP_SECOND = 2e-4

COMP = {0: 3, 1: 2, 2: 1, 3: 0}
LETTER = "ACGT"


def seq_of(text: str):
    """The DnaSeq that parse_fasta reads from text as the body of one
    record: whitespace skipped, other symbols outside ACGT dropped and
    counted."""
    return parse_fasta(">seq\n" + text)[0].seq


def naive_parse_fasta(text: str) -> list[tuple[str, str]]:
    """Line-by-line FASTA reader keeping only ACGT letters (upper-cased)."""
    records: list[tuple[str, str]] = []
    header = None
    chunks: list[str] = []
    for line in text.splitlines():
        if line.startswith(">"):
            if header is not None:
                records.append((header, "".join(chunks)))
            header = line[1:].strip()
            chunks = []
        elif header is not None:
            chunks.append("".join(c for c in line.upper() if c in LETTER))
    if header is not None:
        records.append((header, "".join(chunks)))
    return records


def line_parse_fasta(source) -> list[tuple[str, str, int]]:
    """FASTA records as (id, upper-case ACGT sequence, dropped count).

    Reads line by line: str is encoded as UTF-8, lines come from
    bytes.splitlines and are stripped with bytes.strip; a stripped line
    starting with '>' is a header whose stripped rest, decoded as UTF-8
    with replacement, is the id, and anything else non-empty is sequence.
    In sequence lines ACGT (either case) is kept, the whitespace
    " \\t\\v\\f" is skipped, and every other byte counts as dropped.
    Raises FastaError with parse_fasta's messages.
    """
    data = source.encode("utf-8") if isinstance(source, str) else source
    if not data.strip():
        raise FastaError("empty FASTA input")
    records: list[tuple[str, str, int]] = []
    header = None
    chunks: list[bytes] = []

    def flush():
        if header is None:
            return
        body = b"".join(chunks)
        seq = bytes(c for c in body if c in b"ACGTacgt").upper().decode("ascii")
        dropped = sum(c not in b"ACGTacgt \t\v\f" for c in body)
        if not seq:
            raise FastaError(f"record {header!r} has no valid ACGT symbols")
        records.append((header, seq, dropped))

    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            flush()
            header = line[1:].strip().decode("utf-8", errors="replace")
            if not header:
                raise FastaError("FASTA header line with empty id")
            chunks = []
        else:
            if header is None:
                raise FastaError("sequence data before first '>' header")
            chunks.append(line)
    flush()
    return records


def brute_palindromes(bases, min_half: int) -> list[tuple[int, int]]:
    """All (center, maximal half-length) pairs with half >= min_half.

    A center c pairs positions c - d + 1 and c + d for depths d = 1, 2, ...
    """
    b = list(bases)
    n = len(b)
    out = []
    for c in range(n - 1):
        h = 0
        while c - h >= 0 and c + 1 + h < n and b[c + 1 + h] == COMP[b[c - h]]:
            h += 1
        if h >= min_half:
            out.append((c, h))
    return out


def quadratic_hotspots(bases, specs, bank, lambda0: float, rng,
                       retries: int) -> tuple[np.ndarray, list[int]]:
    """Hot-spot insertion that tests each candidate against every earlier
    placement in its segment, with the same rng calls as insert_hotspots."""
    bases = np.array(bases, dtype=np.uint8)
    centers = []
    for spec in specs:
        count = int(rng.poisson((spec.stop - spec.start) * spec.multiplier * lambda0))
        placed = []
        for _ in range(count):
            for _attempt in range(retries):
                i = int(rng.integers(len(bank)))
                drawn, h = int(bank.centers[i]), int(bank.half_lengths[i])
                c_lo, c_hi = spec.start + h - 1, spec.stop - 1 - h
                if c_hi < c_lo:
                    continue
                c = int(rng.integers(c_lo, c_hi + 1))
                lo, hi = c - h + 1, c + h
                if any(lo <= p_hi and p_lo <= hi for p_lo, p_hi in placed):
                    continue
                bases[lo : hi + 1] = bank.seq.bases[drawn - h + 1 : drawn + h + 1]
                placed.append((lo, hi))
                centers.append(c)
                break
            else:
                raise CrowdedSegmentError(
                    f"could not place pattern {len(placed) + 1}/{count} in "
                    f"segment at {spec.start} after {retries} retries"
                )
    return bases, sorted(centers)


def enum_markov_rate(pi, trans, half: int) -> float:
    """P(palindrome of half-length >= half at a center) by 4^half enumeration.

    Sums the stationary path probability of every length-2*half string whose
    right half mirrors the left half under complementation.
    """
    pi = np.asarray(pi, dtype=float)
    trans = np.asarray(trans, dtype=float)
    total = 0.0
    for left in itertools.product(range(4), repeat=half):
        full = list(left) + [COMP[x] for x in reversed(left)]
        prob = pi[full[0]]
        for a, b in zip(full[:-1], full[1:]):
            prob *= trans[a, b]
        total += prob
    return total


def start_weights(pi, trans) -> np.ndarray:
    """Probability that a center starts a palindrome run at each first letter.

    Entry i is pi_i minus the mass arriving through one extra mirrored pair,
    so that summing over run lengths telescopes back to pi.
    """
    pi = np.asarray(pi, dtype=float)
    t = quasi_matrix(trans)
    return pi - pi @ t


def quasi_matrix(trans) -> np.ndarray:
    trans = np.asarray(trans, dtype=float)
    t = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            t[i, j] = trans[i, j] * trans[COMP[j], COMP[i]]
    return t


def closure_vector(trans) -> np.ndarray:
    trans = np.asarray(trans, dtype=float)
    return np.array([trans[i, COMP[i]] for i in range(4)])


def naive_pattern_log_prob(bases, pi, trans) -> float:
    """Log occurrence probability of one palindrome pattern, factor by factor.

    The factors along the left half a_1..a_k are the start weight of a_1,
    one quasi step per outward pair and the centre closure of a_k.

    Raises:
        InfiniteScoreError: some factor is zero or negative.
    """
    left = [int(x) for x in bases[: len(bases) // 2]]
    t = quasi_matrix(trans)
    factors = np.array(
        [start_weights(pi, trans)[left[0]]]
        + [t[a, b] for a, b in zip(left[:-1], left[1:])]
        + [closure_vector(trans)[left[-1]]]
    )
    if np.any(factors <= 0.0):
        raise InfiniteScoreError("pattern has zero probability under the model")
    return float(np.log(factors).sum())


def enum_exact_length_patterns(pi, trans, k: int):
    """(probability, score-change factors) for every exact-half-length-k pattern.

    Yields (prob, prob) pairs: the exact-length path probability of the left
    half, usable both as weight and as the base of the log-rarity score.
    """
    v0 = start_weights(pi, trans)
    t = quasi_matrix(trans)
    close = closure_vector(trans)
    for left in itertools.product(range(4), repeat=k):
        prob = v0[left[0]]
        for a, b in zip(left[:-1], left[1:]):
            prob *= t[a, b]
        prob *= close[left[-1]]
        yield left, prob


def enum_exact_length_prob(pi, trans, k: int) -> float:
    return sum(p for _, p in enum_exact_length_patterns(pi, trans, k))


def enum_exact_length_mgf(pi, trans, min_half: int, k: int, t: float,
                          kind: str) -> float:
    """E[e^{t * score}; half-length exactly k] by 4^k pattern enumeration."""
    total = 0.0
    for _, prob in enum_exact_length_patterns(pi, trans, k):
        if kind == "pcs":
            score = 1.0
        elif kind == "pls":
            score = k / min_half
        elif kind == "bws":
            if prob == 0.0:
                continue
            score = -np.log(prob)
        else:
            raise ValueError(kind)
        total += prob * np.exp(t * score)
    return total


def term_factors(pi, trans, min_half: int, t, kind: str):
    """(v, Q, u) of the exact-length terms v Q^(k-1) u at argument t.

    Built directly from pi and trans, with entrywise powers for the
    log-rarity score. The tilt of the count score, e^t, is folded into v;
    that of the length ratio, e^{t k / h}, into one factor e^{t / h} per
    step of Q and one in u, so no term multiplies an underflowed row by an
    overflowed exponential near the domain edge. Accepts a complex t.
    """
    v0 = start_weights(pi, trans)
    tq = quasi_matrix(trans)
    close = closure_vector(trans)
    if kind == "bws":
        expo = 1.0 - t
        base = np.where(v0 > 0, v0, 0.0)
        v = base.astype(complex) ** expo if np.iscomplex(t) else base**expo
        q = tq.astype(complex) ** expo if np.iscomplex(t) else tq**expo
        u = close.astype(complex) ** expo if np.iscomplex(t) else close**expo
    elif kind == "pls":
        step = np.exp(t / min_half)
        v, q, u = v0, step * tq, step * close
    else:
        v, q, u = np.exp(t) * v0, tq, close
    return v, q, u


def mgf_at_length(sm, t: float, k: int) -> float:
    """Joint term E[exp(t * score); half-length = k] for a single centre,
    v Q^(k-1) u from term_factors of sm's pi and trans, one step at a time;
    at t = 0 on a pcs or pls model, the probability that a centre holds a
    palindrome of half-length exactly k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v, q, u = term_factors(sm.model.pi, sm.model.trans, sm.half_length, t, sm.kind)
    for _ in range(k - 1):
        v = v @ q
    return float(v @ u)


def series_mgf(pi, trans, min_half: int, t, kind: str,
               max_terms: int = 5000, rtol: float = 1e-14):
    """Score MGF as a truncated sum of exact-length terms over the rate.

    Exact-length terms for k beyond enumeration reach use the matrix form
    v(t)' Q(t)^{k-1} u(t) of term_factors, which is the series the
    closed-form kernel must match.
    """
    v, q, u = term_factors(pi, trans, min_half, t, kind)
    v0 = start_weights(pi, trans)
    tq = quasi_matrix(trans)
    close = closure_vector(trans)
    rate = 0.0
    vec = v0 @ np.linalg.matrix_power(tq, min_half - 1)
    for k in range(min_half, min_half + max_terms):
        rate += float(vec @ close)
        vec = vec @ tq

    total = 0.0
    vec = v @ np.linalg.matrix_power(q, min_half - 1)
    for k in range(min_half, min_half + max_terms):
        term = vec @ u
        total += term
        if k > min_half + 4 and abs(term) < rtol * abs(total):
            break
        vec = vec @ q
    return total / rate


def pls_series_jet(pi, trans, min_half: int, z, order: int = 2,
                   max_terms: int = 20000, rtol: float = 1e-17) -> np.ndarray:
    """Taylor coefficients M^(j)(z) / j!, j = 0 .. order, of the pls MGF,
    differentiating the truncated exact-length series term by term: the
    half-length-k term e^(z k / h) p_k (term_factors) has j-th derivative
    (k / h)^j times itself. Terms stop once the last order's term falls
    below rtol of its sum; the rate is the sum of the p_k."""
    weights = [1.0 / np.prod(np.arange(1, j + 1, dtype=float)) for j in range(order + 1)]

    def sums(t):
        v, q, u = term_factors(pi, trans, min_half, t, "pls")
        vec = v @ np.linalg.matrix_power(q, min_half - 1)
        out = np.zeros(order + 1, dtype=complex)
        for k in range(min_half, min_half + max_terms):
            term = vec @ u * np.array([(k / min_half) ** j * w for j, w in enumerate(weights)])
            out += term
            if k > min_half + 4 and abs(term[-1]) <= rtol * abs(out[-1]):
                break
            vec = vec @ q
        return out

    out = sums(z) / sums(0.0)[0].real
    return out if np.iscomplexobj(z) else out.real


@st.composite
def nilpotent_models(draw):
    """Random first-order models whose quasi transition matrix T is
    nilpotent with T^3 != 0, as (pi, trans): the chain A -> C -> G -> T,
    with T stepping to C, G or T, gives T[A, C] = T[C, G] = T[G, T] = 1 and
    no other entry, and the bases are relabelled by one of the 8
    permutations that commute with complementation. pi is drawn apart from
    trans. pls scores are then bounded: its MGF has an infinite domain and
    det(I - sT) = 1."""
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    last = np.array([0.0] + draw(st.lists(entry, min_size=3, max_size=3)))
    if not last.sum():
        last[3] = 1.0
    trans = np.vstack((np.eye(4)[[1, 2, 3]], last / last.sum()))
    pi = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    perm = draw(st.sampled_from([p for p in itertools.permutations(range(4))
                                 if all(p[COMP[i]] == COMP[p[i]] for i in range(4))]))
    relabelled = np.empty((4, 4))
    relabelled[np.ix_(perm, perm)] = trans
    out = np.empty(4)
    out[list(perm)] = pi / pi.sum()
    return out, relabelled


def matrix_form_factors(pi, trans, min_half: int, z, kind: str, bws_start=None):
    """(v, Q, u) of matrix_form_mgf at one argument z, which may be complex:
    the start weights, the quasi matrix and the closure vector, with
    e^(z / h) on Q and u for pls and entrywise (1 - z) powers for bws
    (``bws_start`` replaces the start weights raised)."""
    v0 = start_weights(pi, trans)
    tq = quasi_matrix(trans)
    close = closure_vector(trans)
    if kind == "bws":
        start = v0 if bws_start is None else np.asarray(bws_start, dtype=float)

        def power(base):
            pos = base > 0
            return np.where(pos, np.exp((1.0 - z) * np.log(np.where(pos, base, 1.0))), 0.0)

        return power(start), power(tq), power(close)
    step = np.exp(z / min_half)
    return v0, step * tq, step * close


def matrix_form_mgf(pi, trans, min_half: int, z, kind: str, bws_start=None):
    """Score MGF from its closed matrix form, one argument at a time.

    Summing the exact-length terms of series_mgf over k >= min_half gives
    v Q^(min_half - 1) (I - Q)^-1 u / rate, taken here with plain
    np.linalg.inv and matrix_power, with v, Q and u from
    matrix_form_factors and rate = v T^(h - 1) (I - T)^-1 c from the start
    weights, the quasi matrix T and the closure vector c. pcs gives e^z.
    z may be complex.
    """
    if kind == "pcs":
        return np.exp(z)
    v0, tq, close = start_weights(pi, trans), quasi_matrix(trans), closure_vector(trans)
    v, q, u = matrix_form_factors(pi, trans, min_half, z, kind, bws_start)
    eye = np.eye(4)
    rate = v0 @ np.linalg.matrix_power(tq, min_half - 1) @ np.linalg.inv(eye - tq) @ close
    return v @ np.linalg.matrix_power(q, min_half - 1) @ np.linalg.inv(eye - q) @ u / rate


def bws_powers(pi, trans, nodes) -> np.ndarray:
    """The 24 bws bases (start weights, quasi matrix row by row, closure
    vector) raised to the power 1 - z at each node z, shape (24, N): one
    exponential per base and node (matrix_form_factors), zero bases 0."""
    columns = []
    for z in np.ravel(nodes):
        v, q, u = matrix_form_factors(pi, trans, 1, z, "bws")
        columns.append(np.concatenate((v, q.ravel(), u)))
    return np.array(columns).T


def quadrature_nu(pi, trans, min_half: int, kind: str, tilt, null_mean: float,
                  nodes, weights) -> float:
    """The overshoot correction of scan.analytic_nu from its quadrature
    nodes t and weights, with every MGF value from matrix_form_mgf.

    On the line Re z = c = theta1 / 2 the increment's transform is psi_y(t) =
    exp(lambda0 (M(c - i t) / M(0) - 1) + lambda1 (M(c + i t) / M(theta1) -
    1)); X is the increment given an event, and nu = exp(-sum w (-log(1 -
    psi_x))) / ((1 - exp(-theta1)) E X), capped at 1. Both MGF arguments are
    evaluated, not one taken as the other's conjugate.
    """
    theta = tilt.theta1
    c = 0.5 * theta
    mgf = lambda z: complex(matrix_form_mgf(pi, trans, min_half, z, kind))
    k0, k1 = mgf(0.0).real, mgf(theta).real
    log_psi = np.array([tilt.lambda0 * (mgf(c - 1j * t) / k0 - 1.0)
                        + tilt.lambda1 * (mgf(c + 1j * t) / k1 - 1.0) for t in nodes]).real
    eventful = -np.expm1(-(tilt.lambda0 + tilt.lambda1))
    log_sum = float(np.asarray(weights) @ -np.log(-np.expm1(log_psi) / eventful))
    mean_x = (tilt.lambda1 * tilt.cumulants[1] - tilt.lambda0 * null_mean) / eventful
    return min(float(np.exp(-log_sum) / (-np.expm1(-theta) * mean_x)), 1.0)


def column_start_weights(pi, trans) -> np.ndarray:
    """The bws start weights of the paper's literal reading: the column
    product (I - T) pi, where start_weights is the row product pi (I - T),
    the one under which the MGF normalises to 1."""
    pi = np.asarray(pi, dtype=float)
    return pi - quasi_matrix(trans) @ pi


def literal_threshold(alpha: float, window: int, total_length: int, lambda0: float,
                      mgf, t_max: float, nu: float = 1.0) -> float:
    """Threshold b with scan p-value alpha under the paper's literal reading,
    for pls and bws scores.

    ``mgf(z)`` is the score MGF over the row-form rate and takes complex z
    (series_mgf and matrix_form_mgf do; with column_start_weights M(0)
    differs from 1). M' is the complex step Im M(t + i eps) / eps, exact to
    rounding, and phi'' = M'' / M - (M' / M)^2 takes M'' as a central
    difference of M'. The literal reading:
      - centring lambda1 phi'(theta) = b with no window factor, and rate
        matching lambda1 = lambda0 M(theta), so b = lambda0 M'(theta) is
        explicit in the tilt;
      - the mean ladder increment b - lambda0 mu0, mu0 = M'(0) / M(0);
      - p = 1 - exp(-(W - w) nu (b - lambda0 mu0) exp(-(b theta - w
        (lambda1 - lambda0))) / sqrt(2 pi w lambda1 phi''(theta))).
    p is taken on a grid of tilts up to t_max (1 - 1e-8), and its last
    crossing of alpha is bisected until no float lies between the ends.
    """
    eps = 1e-30
    m0 = lambda t: float(np.real(mgf(t)))
    m1 = lambda t: float(np.imag(mgf(complex(t, eps)))) / eps
    mu0 = m1(0.0) / m0(0.0)

    def tail(theta: float) -> tuple[float, float]:
        m = m0(theta)
        mean = m1(theta) / m
        b, lambda1 = lambda0 * m * mean, lambda0 * m
        var = derivative(m1, theta) / m - mean * mean
        if not (b > lambda0 * mu0 and var > 0.0):  # var < 0 if the stencil passes t_max
            return b, 0.0
        prefactor = ((total_length - window) * nu * (b - lambda0 * mu0)
                     / np.sqrt(2.0 * np.pi * window * lambda1 * var))
        exponent = b * theta - window * (lambda1 - lambda0)
        return b, -np.expm1(-np.exp(min(np.log(prefactor) - exponent, 700.0)))

    grid = t_max * (1.0 - np.geomspace(1.0 - 1e-6, 1e-8, 300))
    above = [i for i, theta in enumerate(grid) if tail(theta)[1] >= alpha]
    if not above or above[-1] + 1 == grid.size:
        raise ValueError(f"p does not fall through alpha={alpha!r} on the grid")
    lo, hi = grid[above[-1]], grid[above[-1] + 1]
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail(mid)[1] >= alpha else (lo, mid)
    return tail(hi)[0]


def window_sums(events: list[tuple[int, float]], window: int,
                total_length: int) -> np.ndarray:
    """Quadratic re-summation of windowed scores.

    Window t covers centers c with t + 1 <= c <= t + window.
    """
    values = np.zeros(total_length - window + 1)
    for t in range(total_length - window + 1):
        acc = 0.0
        for center, score in events:
            if t + 1 <= center <= t + window:
                acc += score
        values[t] = acc
    return values


def dense_window_sums(events: list[tuple[int, float]], window: int,
                      total_length: int) -> np.ndarray:
    """Windowed scores from a per-position prefix sum over the whole sequence.

    Scores are added into one slot per position (repeats in input order),
    the slots are cumulated, and window t is prefix[t + window] - prefix[t],
    the last window stopping at the sequence end.
    """
    per_position = np.zeros(total_length)
    for pos, score in events:
        per_position[pos] += score
    prefix = np.cumsum(per_position)
    values = np.empty(total_length - window + 1)
    values[:-1] = prefix[window:] - prefix[:total_length - window]
    values[-1] = prefix[-1] - prefix[total_length - window]
    return values


def counted_model(bases, pseudocount: float = 0.0):
    """(pi, trans) of a first-order fit by counting bases and adjacent pairs.

    Raises EstimationError when, without a pseudocount, some base is never
    followed by another.
    """
    bases = [int(x) for x in bases]
    base_counts = [float(bases.count(i)) for i in range(4)]
    pairs = [[0.0] * 4 for _ in range(4)]
    for a, b in zip(bases, bases[1:]):
        pairs[a][b] += 1.0
    rows = [sum(r) for r in pairs]
    if pseudocount == 0.0 and 0.0 in rows:
        raise EstimationError("a base is never followed by another")
    pi = [(c + pseudocount) / (len(bases) + 4.0 * pseudocount) for c in base_counts]
    trans = [[(x + pseudocount) / (rows[i] + 4.0 * pseudocount) for x in pairs[i]]
             for i in range(4)]
    return np.array(pi), np.array(trans)


def iid_match_gamma(pi) -> float:
    pi = np.asarray(pi, dtype=float)
    return 2.0 * (pi[0] * pi[3] + pi[1] * pi[2])


def iid_tilted_match(pi, t: float) -> float:
    """2 ((pi_A pi_T)^(1 - t) + (pi_C pi_G)^(1 - t)): the sum over letters a
    of (pi_a pi_comp(a))^(1 - t), which is gamma at t = 0."""
    pi = np.asarray(pi, dtype=float)
    return 2.0 * ((pi[0] * pi[3]) ** (1.0 - t) + (pi[1] * pi[2]) ** (1.0 - t))


def iid_geometric_mgf(pi, min_half: int, t: float, kind: str) -> float:
    """Score MGF for independent bases, in closed form.

    With g = iid_match_gamma(pi) the half-length is geometric, P(half = k) =
    (1 - g) g^k, and a pattern with left half a_1..a_k has probability
    (1 - g) prod_j pi_(a_j) pi_comp(a_j). Summing exp(t * score) over k >=
    min_half and dividing by the rate g^min_half gives
      - pcs: e^t;
      - pls: (1 - g) e^t / (1 - g e^(t / min_half));
      - bws: (1 - g)^(1 - t) m^min_half / ((1 - m) g^min_half), m =
        iid_tilted_match(pi, t).
    Valid for g e^(t / min_half) < 1 (pls) and m < 1 (bws).
    """
    g = iid_match_gamma(pi)
    if kind == "pcs":
        return float(np.exp(t))
    if kind == "pls":
        return float((1.0 - g) * np.exp(t) / (1.0 - g * np.exp(t / min_half)))
    m = iid_tilted_match(pi, t)
    return float((1.0 - g) ** (1.0 - t) * m**min_half / ((1.0 - m) * g**min_half))


def iid_domain_edge(pi, min_half: int, kind: str) -> float:
    """Supremum of MGF arguments for independent bases: -min_half log g for
    pls, and for bws the root of iid_tilted_match(pi, t) = 1 on (0, 1), by
    bisection (1 when there is none)."""
    if kind == "pls":
        return float(-min_half * np.log(iid_match_gamma(pi)))
    lo, hi = 0.0, 1.0 - 1e-12
    if iid_tilted_match(pi, hi) < 1.0:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if iid_tilted_match(pi, mid) < 1.0 else (lo, mid)
    return lo


def bws_domain_edge(trans) -> float:
    """Root of rho(T^(1 - t)) = 1 on (0, 1), T the quasi transition matrix
    and the power entrywise, by plain bisection on the eigenvalues (1 when
    the radius stays below 1)."""
    t_mat = quasi_matrix(trans)
    radius = lambda t: np.abs(np.linalg.eigvals(t_mat ** (1.0 - t))).max()
    lo, hi = 0.0, 1.0 - 1e-9
    if radius(hi) < 1.0:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < 1.0 else (lo, mid)
    return hi


def stationary(model) -> np.ndarray:
    """Stationary composition of model.trans (left eigenvector for 1)."""
    vals, vecs = np.linalg.eig(np.asarray(model.trans, dtype=float).T)
    v = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    return v / v.sum()


def stationary_gap(model) -> float:
    """Largest absolute difference between model.pi and its stationary
    composition."""
    return float(np.abs(np.asarray(model.pi) - stationary(model)).max())


def check_palindrome(bases) -> bool:
    """True iff a code array (or DnaSeq) equals its reverse complement."""
    b = [int(x) for x in getattr(bases, "bases", bases)]
    return len(b) % 2 == 0 and all(x == COMP[y] for x, y in zip(b, reversed(b)))


def serialize_fasta(records, width: int = 60) -> str:
    """FASTA text of records (anything with .id and .seq), with sequence
    lines of at most width letters."""
    out: list[str] = []
    for rec in records:
        out.append(f">{rec.id}")
        s = str(rec.seq)
        out.extend(s[i : i + width] for i in range(0, len(s), width))
    return "\n".join(out) + "\n"


def random_model(rng: np.random.Generator):
    """A random valid stationary first-order model as (pi, trans)."""
    trans = rng.random((4, 4)) + 0.05
    trans /= trans.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(trans.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.abs(np.real(vecs[:, idx]))
    pi /= pi.sum()
    return pi, trans


def sparse_chains(count: int = 200) -> list[np.ndarray]:
    """The first count transition matrices of the sparse chain sweep:
    numpy default_rng(1), 6 of the 16 transitions set to zero in each, a
    row left all zero made uniform. On uniform pi many of them put pls and
    bws tilts near the edge of the MGF domain."""
    rng = np.random.default_rng(1)
    chains = []
    for _ in range(count):
        trans = rng.random((4, 4))
        trans.flat[rng.choice(16, 6, replace=False)] = 0.0
        trans[trans.sum(axis=1) == 0.0] = 1.0
        chains.append(trans / trans.sum(axis=1, keepdims=True))
    return chains


@st.composite
def sparse_models(draw):
    """Random first-order models as (pi, trans), with exact zeros allowed.

    Rows that draw all zeros become uniform, so every model is valid; pi is
    drawn apart from trans and need not be stationary.
    """
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    raw = np.array(draw(st.lists(entry, min_size=20, max_size=20))).reshape(5, 4)
    raw[raw.sum(axis=1) == 0.0] = 1.0
    raw /= raw.sum(axis=1, keepdims=True)
    return raw[0], raw[1:]


def derivative(f, x: float, order: int = 1, step: float | None = None) -> float:
    """First or second derivative by central differences with one Richardson pass.

    Args:
        f: scalar function, assumed smooth near x.
        x: evaluation point.
        order: 1 or 2.
        step: base step; the default scales DERIV_STEP (first order) or
            DERIV_STEP_SECOND (second order, where roundoff grows as 1/h^2)
            by max(1, |x|).

    Raises:
        NonFiniteError: any stencil evaluation is non-finite.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if step is not None:
        h = step
    else:
        base = DERIV_STEP if order == 1 else DERIV_STEP_SECOND
        h = base * max(1.0, abs(x))

    def central(hh: float) -> float:
        if order == 1:
            num = f(x + hh) - f(x - hh)
            return num / (2.0 * hh)
        num = f(x + hh) - 2.0 * f(x) + f(x - hh)
        return num / (hh * hh)

    d1 = central(h)
    d2 = central(h / 2.0)
    if not (np.isfinite(d1) and np.isfinite(d2)):
        raise NonFiniteError(f"non-finite stencil for derivative at x={x!r}")
    # Richardson: central differences have error O(h^2)
    return float((4.0 * d2 - d1) / 3.0)


def poisson_compound_pmf(rate: float, pmf: np.ndarray, terms: int = 60) -> np.ndarray:
    """PMF on 0, 1, 2, ... of a Poisson(rate) sum of independent draws from
    ``pmf`` (itself on 0, 1, 2, ...), summed over at most ``terms`` counts."""
    out = np.zeros(1 + (terms - 1) * (pmf.size - 1))
    power = np.array([1.0])
    weight = np.exp(-rate)
    for n in range(terms):
        out[:power.size] += weight * power
        power = np.convolve(power, pmf)
        weight *= rate / (n + 1)
    return out


def ladder_nu_series(step_pmf: np.ndarray, offset: int, span: float,
                     theta: float, max_terms: int = 2000) -> float:
    """Overshoot correction of a lattice random walk by direct summation.

    The steps take the values span * (k - offset) with probabilities
    step_pmf[k]. Spitzer's identities give nu = exp(-C) / ((1 - exp(-theta))
    E X) with C = sum_n E[min(1, exp(-theta S_n))] / n; the law of S_n is
    built by repeated convolution and the series is summed until its terms
    vanish.
    """
    values = span * (np.arange(step_pmf.size) - offset)
    mean_step = float(step_pmf @ values)
    dist, lo = np.array([1.0]), 0
    total = 0.0
    for n in range(1, max_terms + 1):
        dist = np.convolve(dist, step_pmf)
        lo -= offset
        x = span * (np.arange(dist.size) + lo)
        term = float(dist @ np.exp(-theta * np.maximum(x, 0.0)))
        total += term / n
        if term < 1e-18:
            return float(np.exp(-total) / (-np.expm1(-theta) * mean_step))
        keep = np.flatnonzero(dist > 1e-40)
        dist = dist[keep[0]:keep[-1] + 1]
        lo += int(keep[0])
    raise AssertionError("ladder series did not converge")


# The Monte Carlo overshoot walk: walks per estimate, the step cap per walk,
# and the fraction of walks allowed to hit it.
DEFAULT_NU_WALKS = 100_000
LADDER_STEP_CAP = 1_000_000
MAX_CAPPED_FRACTION = 1e-3


class LadderCapError(PalinscanError, RuntimeError):
    """Too many random walks failed to reach a ladder epoch within the cap."""


def _truncated_poisson_cum(mu: float) -> np.ndarray:
    """Cumulative probabilities of a Poisson(mu) conditioned to be >= 1."""
    norm = -np.expm1(-mu)
    term = mu * np.exp(-mu)
    probs = []
    total = 0.0
    m = 1
    while total < norm * (1.0 - 1e-16) and m <= 400:
        probs.append(term)
        total += term
        m += 1
        term *= mu / m
    cum = np.cumsum(probs) / norm
    cum[-1] = max(cum[-1], 1.0)
    return cum


def overshoot_nu(tilt, sm, rng: np.random.Generator, n_walks: int = DEFAULT_NU_WALKS,
                 step_cap: int = LADDER_STEP_CAP) -> tuple[float, float]:
    """Monte Carlo overshoot correction with a delta-method standard error.

    The independent check of palinscan.scan.analytic_nu. Each walk adds,
    per base, a Poisson(lambda1) number of theta1-tilted scores minus a
    Poisson(lambda0) number of null ones, and stops at its first
    strictly positive level (the first ascending ladder height). Bases
    without events are skipped by drawing the geometric gap to the next
    eventful one; skipped bases still count against the per walk step cap.
    A stretch of d bases per step is the same walk with both rates scaled
    by d.

    Returns:
        (nu, se): the correction (capped at 1, its analytic bound) and its
        standard error.

    Raises:
        ValueError: non-positive tilt gap.
        LadderCapError: more than MAX_CAPPED_FRACTION of the walks failed to
            reach a ladder height within the step cap.
    """
    from palinscan.sim import TiltedScoreSampler

    theta = tilt.theta1
    if theta <= 0:
        raise ValueError("overshoot correction requires theta1 > 0")
    null_sampler = TiltedScoreSampler(sm, 0.0)
    tilted_sampler = TiltedScoreSampler(sm, tilt.theta1)
    mu = tilt.lambda0 + tilt.lambda1
    p_event = -np.expm1(-mu)
    p_null = tilt.lambda0 / (tilt.lambda0 + tilt.lambda1)
    cum_counts = _truncated_poisson_cum(mu)

    level = np.zeros(n_walks)
    steps = np.zeros(n_walks, dtype=np.int64)
    heights = np.zeros(n_walks)
    capped = np.zeros(n_walks, dtype=bool)
    active = np.arange(n_walks)
    while active.size:
        steps[active] += rng.geometric(p_event, size=active.size)
        over = steps[active] > step_cap
        if over.any():
            capped[active[over]] = True
            active = active[~over]
            if not active.size:
                break
        k = active.size
        m = np.searchsorted(cum_counts, rng.random(k), side="right")
        m = np.minimum(m, cum_counts.size - 1) + 1
        n_null = rng.binomial(m, p_null)
        n_tilt = m - n_null
        y = np.zeros(k)
        total = int(n_null.sum())
        if total:
            y -= np.bincount(np.repeat(np.arange(k), n_null),
                             weights=null_sampler.draw(rng, total), minlength=k)
        total = int(n_tilt.sum())
        if total:
            y += np.bincount(np.repeat(np.arange(k), n_tilt),
                             weights=tilted_sampler.draw(rng, total), minlength=k)
        level[active] += y
        done = level[active] > 0.0
        if done.any():
            idx = active[done]
            heights[idx] = level[idx]
            active = active[~done]

    n_capped = int(capped.sum())
    if n_capped > MAX_CAPPED_FRACTION * n_walks:
        raise LadderCapError(
            f"{n_capped}/{n_walks} walks exceeded the {step_cap}-step cap"
        )
    h = heights[~capped]
    decay = np.exp(-h * theta)
    gap = -np.expm1(-theta)
    mean_decay = float(decay.mean())
    mean_height = float(h.mean())
    nu = (1.0 - mean_decay) / (gap * mean_height)
    cov = np.cov(np.vstack([decay, h]), ddof=1)
    grad = np.array([
        -1.0 / (gap * mean_height),
        -(1.0 - mean_decay) / (gap * mean_height**2),
    ])
    se = float(np.sqrt(max(grad @ cov @ grad, 0.0) / h.size))
    return min(nu, 1.0), se
