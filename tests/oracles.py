"""Independent reference implementations used to check the package.

Everything here is deliberately naive: plain loops, exhaustive enumeration,
direct summation, closed forms for independent bases and finite
differences, sharing no code with the package internals beyond numpy
primitives and the package's error types. The one exception is the Monte
Carlo overshoot walk (overshoot_nu), which draws its scores from
palinscan.sim.TiltedScoreSampler; the sampler is checked against the series
and closed-form oracles in tests/test_sim.py.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from palinscan.errors import (
    EstimationError,
    FastaError,
    InfiniteScoreError,
    NonFiniteError,
    PalinscanError,
)

DERIV_STEP = 1e-5
DERIV_STEP_SECOND = 2e-4

COMP = {0: 3, 1: 2, 2: 1, 3: 0}
LETTER = "ACGT"


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

    Reads line by line: lines come from str.splitlines and are stripped; a
    stripped line starting with '>' is a header, anything else non-empty is
    sequence. In sequence lines ACGT (either case) is kept, the whitespace
    " \\t\\r\\n\\v\\f" is skipped, and every other character counts as
    dropped. Bytes are decoded as ASCII with one replacement character per
    non-ASCII byte. Raises FastaError with parse_fasta's messages.
    """
    text = source.decode("ascii", errors="replace") if isinstance(source, bytes) else source
    if not text.strip():
        raise FastaError("empty FASTA input")
    records: list[tuple[str, str, int]] = []
    header = None
    chunks: list[str] = []

    def flush():
        if header is None:
            return
        body = "".join(chunks)
        seq = "".join(c.upper() for c in body if c in "ACGTacgt")
        dropped = sum(c not in "ACGTacgt \t\r\n\v\f" for c in body)
        if not seq:
            raise FastaError(f"record {header!r} has no valid ACGT symbols")
        records.append((header, seq, dropped))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
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


def series_mgf(pi, trans, min_half: int, t, kind: str,
               max_terms: int = 5000, rtol: float = 1e-14, bws_start=None):
    """Score MGF as a truncated sum of exact-length terms over the rate.

    Exact-length terms for k beyond enumeration reach use the matrix form
    v(t)' Q(t)^{k-1} u(t) built directly here (entrywise powers for the
    log-rarity score), which is the series the closed-form kernel must match.
    The tilt of the count score, e^t, is folded into v; that of the length
    ratio, e^{t k / h}, into one factor e^{t / h} per step of Q and one in u,
    so no term multiplies an underflowed row by an overflowed exponential
    near the domain edge. Accepts a complex argument t. ``bws_start``
    replaces the start weights that the log-rarity form raises to 1 - t; the
    rate it is divided by keeps the row form.
    """
    v0 = start_weights(pi, trans)
    tq = quasi_matrix(trans)
    close = closure_vector(trans)
    if kind == "bws":
        expo = 1.0 - t
        start = v0 if bws_start is None else np.asarray(bws_start, dtype=float)
        base = np.where(start > 0, start, 0.0)
        v = base.astype(complex) ** expo if np.iscomplex(t) else base**expo
        q = tq.astype(complex) ** expo if np.iscomplex(t) else tq**expo
        u = close.astype(complex) ** expo if np.iscomplex(t) else close**expo
    elif kind == "pls":
        step = np.exp(t / min_half)
        v, q, u = v0, step * tq, step * close
    else:
        v, q, u = np.exp(t) * v0, tq, close

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


def matrix_form_mgf(pi, trans, min_half: int, z, kind: str, bws_start=None):
    """Score MGF from its closed matrix form, one argument at a time.

    Summing the exact-length terms of series_mgf over k >= min_half gives
    v Q^(min_half - 1) (I - Q)^-1 u / rate, taken here with plain
    np.linalg.inv and matrix_power: v, Q and u are the start weights, the
    quasi matrix and the closure vector, with e^(z / h) on Q and u for pls
    and entrywise (1 - z) powers for bws (``bws_start`` replaces the start
    weights raised), and rate = v T^(h - 1) (I - T)^-1 c. pcs gives e^z.
    z may be complex.
    """
    if kind == "pcs":
        return np.exp(z)
    v0 = start_weights(pi, trans)
    tq = quasi_matrix(trans)
    close = closure_vector(trans)
    eye = np.eye(4)
    if kind == "bws":
        start = v0 if bws_start is None else np.asarray(bws_start, dtype=float)

        def power(base):
            pos = base > 0
            return np.where(pos, np.exp((1.0 - z) * np.log(np.where(pos, base, 1.0))), 0.0)

        v, q, u = power(start), power(tq), power(close)
    else:
        step = np.exp(z / min_half)
        v, q, u = v0, step * tq, step * close
    rate = v0 @ np.linalg.matrix_power(tq, min_half - 1) @ np.linalg.inv(eye - tq) @ close
    return v @ np.linalg.matrix_power(q, min_half - 1) @ np.linalg.inv(eye - q) @ u / rate


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
