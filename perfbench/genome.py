"""Seeded benchmark inputs, made without calling palinscan.

The genome is a first-order Markov chain with the published BoHV-1
composition and transition rows, plus clusters of planted palindromes at
seeded positions. Nothing here imports palinscan, so a change to the
package's own sampler cannot change what the benchmark scans, and the
benchmark's Markov rate is an independent check of the program's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bovine herpes virus 1 composition and transition rows (A, C, G, T), as
# published to four decimals; rows are renormalised before use.
BOHV1_PI = (0.1354, 0.3588, 0.3654, 0.1404)
BOHV1_TRANS = (
    (0.1854, 0.3288, 0.3556, 0.1303),
    (0.1258, 0.2932, 0.4347, 0.1463),
    (0.1343, 0.4512, 0.2994, 0.1151),
    (0.1141, 0.3151, 0.3695, 0.2012),
)

CLUSTER_LENGTH = 1000
PER_CLUSTER = 40
HALF_LENGTHS = (8, 10)  # inclusive range of planted half-lengths


def bohv1_parameters() -> tuple[np.ndarray, np.ndarray]:
    """(pi, trans) of the BoHV-1 chain, each row summing to 1."""
    pi = np.asarray(BOHV1_PI, dtype=float)
    trans = np.asarray(BOHV1_TRANS, dtype=float)
    return pi / pi.sum(), trans / trans.sum(axis=1, keepdims=True)


def markov_chain(length: int, pi, trans, rng: np.random.Generator) -> np.ndarray:
    """Sample `length` base codes (A=0, C=1, G=2, T=3) from a Markov chain.

    Each uniform draw is turned into the next base for all four possible
    current bases; the chain is then resolved in sqrt(length) blocks, so the
    Python-level loops run O(sqrt(length)) times.
    """
    u = rng.random(length)
    out = np.empty(length, dtype=np.uint8)
    out[0] = min(int(np.searchsorted(np.cumsum(pi), u[0], side="right")), 3)
    m = length - 1
    if m == 0:
        return out
    block = max(math.isqrt(m), 1)
    nblocks = -(-m // block)
    # nxt[t, s]: base at t + 1 when the base at t is s; padding maps s -> s
    nxt = np.tile(np.arange(4, dtype=np.uint8), (nblocks * block, 1))
    cum = np.cumsum(trans, axis=1)
    for s in range(4):
        nxt[:m, s] = np.minimum(np.searchsorted(cum[s], u[1:], side="right"), 3)
    del u
    nxt = nxt.reshape(nblocks, block, 4)
    # reach[b, t, s]: base at b*block + t + 1 when the block starts in s
    reach = np.empty_like(nxt)
    cur = np.tile(np.arange(4, dtype=np.uint8), (nblocks, 1))
    rows = np.arange(nblocks)[:, None]
    for t in range(block):
        cur = nxt[rows, t, cur]
        reach[:, t, :] = cur
    starts = np.empty(nblocks, dtype=np.intp)
    state = int(out[0])
    for b in range(nblocks):
        starts[b] = state
        state = int(reach[b, -1, state])
    out[1:] = reach[np.arange(nblocks), :, starts].reshape(-1)[:m]
    return out


@dataclass(frozen=True)
class Genome:
    """A generated genome and where its palindrome clusters were planted.

    Attributes:
        bases: uint8 codes, A=0, C=1, G=2, T=3.
        clusters: (start, stop) of each planted cluster, half-open.
    """

    bases: np.ndarray
    clusters: tuple[tuple[int, int], ...]


def plant_clusters(bases: np.ndarray, rng: np.random.Generator, n_clusters: int) -> Genome:
    """Overwrite `n_clusters` seeded segments with perfect palindromes.

    Segments of CLUSTER_LENGTH bases sit at random, non-overlapping places
    away from the ends. Each gets PER_CLUSTER palindromes with half-length
    drawn uniformly from HALF_LENGTHS, placed in disjoint slots of the
    segment.
    """
    bases = bases.copy()
    n = bases.size
    lo_h, hi_h = HALF_LENGTHS
    slot = 2 * hi_h + 4
    # one cluster per equal stretch of the genome keeps them apart
    stretch = n // n_clusters
    clusters = []
    for i in range(n_clusters):
        start = i * stretch + int(rng.integers(CLUSTER_LENGTH, stretch - 2 * CLUSTER_LENGTH))
        slots = np.sort(rng.choice(CLUSTER_LENGTH // slot, size=PER_CLUSTER, replace=False))
        for s in slots:
            h = int(rng.integers(lo_h, hi_h + 1))
            left = rng.integers(0, 4, size=h).astype(np.uint8)
            at = start + int(s) * slot + 2
            bases[at : at + h] = left
            bases[at + h : at + 2 * h] = 3 - left[::-1]
        clusters.append((start, start + CLUSTER_LENGTH))
    return Genome(bases=bases, clusters=tuple(clusters))


def genome(length: int, seed: int, n_clusters: int = 3) -> Genome:
    """The seeded benchmark genome: BoHV-1 chain plus planted clusters.

    The chain's C<->G steps are likely enough that alternating CG runs put
    up to about 26 of length-ratio score into one 1 kbp window of a 10 Mbp
    genome; 40 planted palindromes give a cluster about 60, so the scan's
    argmax lands on a cluster for every seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    pi, trans = bohv1_parameters()
    return plant_clusters(markov_chain(length, pi, trans, rng), rng, n_clusters)


def write_fasta(path, bases: np.ndarray, record_id: str) -> None:
    """Write one FASTA record with 60-base lines."""
    width = 60
    text = np.frombuffer(b"ACGT", dtype=np.uint8)[bases]
    full = text.size - text.size % width
    lines = text[:full].reshape(-1, width)
    newline = np.full((lines.shape[0], 1), ord("\n"), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f">{record_id}\n".encode("ascii"))
        fh.write(np.hstack([lines, newline]).tobytes())
        if full < text.size:
            fh.write(text[full:].tobytes() + b"\n")


def fitted_model(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pi, trans) fitted from base and adjacent-pair counts."""
    base_counts = np.bincount(bases, minlength=4).astype(float)
    pairs = np.bincount(bases[:-1].astype(np.intp) * 4 + bases[1:], minlength=16)
    pairs = pairs.reshape(4, 4).astype(float)
    return base_counts / bases.size, pairs / pairs.sum(axis=1, keepdims=True)


def markov_rate(pi, trans, half_length: int) -> float:
    """Chance that a palindrome of half-length >= h is centred at a position.

    pi' Q^(h-1) c, where Q[i, j] = trans[i, j] * trans[comp j, comp i] steps
    both strands outward at once and c[i] = trans[i, comp i] closes the
    centre pair (comp x = 3 - x).
    """
    trans = np.asarray(trans, dtype=float)
    q = trans * trans[::-1, ::-1].T
    c = trans[np.arange(4), 3 - np.arange(4)]
    return float(np.asarray(pi) @ np.linalg.matrix_power(q, half_length - 1) @ c)
