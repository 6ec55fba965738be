import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinscan import (
    BOHV1_GENOME_LENGTH,
    DnaSeq,
    EstimationError,
    MarkovModel,
    bohv1_model,
    center_pair_probs,
    estimate_model,
    generate_sequence,
    iid_model,
    iid_rate,
    markov_rate,
    quasi_transition_matrix,
)
from palinscan.cli import build_parser, run
from palinscan import markov
from palinscan.markov import PAIR_BLOCK, WALK_CHUNK, _walk
from palinscan.seqio import decode

from oracles import (
    counted_model,
    stationary,
    stationary_gap,
    enum_markov_rate,
    iid_match_gamma,
    quasi_matrix,
    random_model,
    sparse_models,
)


def assert_fit_matches_counting(bases: np.ndarray, pseudocount: float) -> None:
    """estimate_model equals the counting oracle exactly, errors included."""
    seq = DnaSeq(bases=bases)
    try:
        pi, trans = counted_model(bases, pseudocount)
    except EstimationError:
        with pytest.raises(EstimationError):
            estimate_model(seq, pseudocount)
        return
    m = estimate_model(seq, pseudocount)
    assert np.array_equal(m.pi, pi)
    assert np.array_equal(m.trans, trans)


# Map counts m at the edges of _walk: it loops over up to 64 maps, else
# composes maps 2i and 2i + 1 into m // 2 pair maps, walks those by the same
# rule and steps an odd last map on its own, so a second level of pairs
# starts at m = 130 (65 pairs). Both passes read WALK_CHUNK words, two maps
# each, at a time. The edges are the leaf 64/65/66, odd and even m on either
# side of the second level, and one and two chunks of words (m = 2 and 4
# WALK_CHUNK) +- 1 and +- 2, whose pair maps also end on a chunk edge.
WALK_EDGES = [64, 65, 66, 129, 130, 131,
              *(k * WALK_CHUNK + d for k in (2, 4) for d in (-2, -1, 0, 1, 2))]

# sequence lengths whose m = length - 2 maps sit on the walk's edges:
# generate_sequence steps the first map itself
WALK_EDGE_LENGTHS = [m + 2 for m in WALK_EDGES]

# codes that send every base to A, C, G or T, and the identity map
CONSTANT_AND_IDENTITY_CODES = [0, 85, 170, 255, 0b11_10_01_00]


class TestMarkovModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            MarkovModel(pi=np.ones(3) / 3, trans=np.eye(4))
        with pytest.raises(ValueError, match="sums"):
            MarkovModel(pi=np.array([0.5, 0.5, 0.5, 0.5]), trans=np.eye(4))
        with pytest.raises(ValueError, match="non-negative"):
            MarkovModel(pi=np.array([1.5, -0.5, 0.0, 0.0]), trans=np.eye(4))
        for where in ("pi", "trans"):
            fields = {"pi": np.full(4, 0.25), "trans": np.full((4, 4), 0.25)}
            fields[where].flat[0] = np.nan
            with pytest.raises(ValueError, match="non-negative"):
                MarkovModel(**fields)
        bad_rows = np.full((4, 4), 0.3)
        with pytest.raises(ValueError, match="rows"):
            MarkovModel(pi=np.full(4, 0.25), trans=bad_rows)

    def test_arrays_frozen(self, bohv1):
        with pytest.raises(ValueError):
            bohv1.pi[0] = 0.5

    def test_from_unnormalized(self):
        m = MarkovModel.from_unnormalized([1, 1, 1, 1], np.full((4, 4), 7.0))
        assert np.allclose(m.pi, 0.25)
        assert np.allclose(m.trans.sum(axis=1), 1.0)


class TestEstimateModel:
    def test_hand_counts(self):
        # ACGTA: bases A=2,C=1,G=1,T=1; transitions AC, CG, GT, TA
        m = estimate_model(DnaSeq.from_string("ACGTA"))
        assert np.allclose(m.pi, [0.4, 0.2, 0.2, 0.2])
        assert m.trans[0, 1] == 1.0  # A -> C always
        assert m.trans[3, 0] == 1.0  # T -> A always

    def test_pseudocount(self):
        m = estimate_model(DnaSeq.from_string("AAAA"), pseudocount=1.0)
        # row A: 3 observed AA transitions + 1 pseudo each cell
        assert m.trans[0, 0] == pytest.approx(4.0 / 7.0)
        assert np.allclose(m.trans[1:], 0.25)

    def test_too_short(self):
        with pytest.raises(EstimationError):
            estimate_model(DnaSeq.from_string("A"))

    def test_missing_row(self):
        with pytest.raises(EstimationError, match="no transitions out of"):
            estimate_model(DnaSeq.from_string("ACACAC"))

    def test_negative_pseudocount(self):
        with pytest.raises(ValueError):
            estimate_model(DnaSeq.from_string("ACGT"), pseudocount=-1.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bases=st.lists(st.integers(0, 3), min_size=2, max_size=60),
           pseudocount=st.sampled_from([0.0, 0.5, 1.0]))
    def test_matches_direct_counting(self, bases, pseudocount):
        assert_fit_matches_counting(np.array(bases, dtype=np.uint8), pseudocount)

    # every length 2..40 on aligned, unaligned and strided bases: the few
    # pairs around the word boundaries are counted one by one, the rest as
    # codes of whole words
    @pytest.mark.parametrize("length", range(2, 41))
    def test_matches_direct_counting_at_word_edges(self, length):
        bases = np.random.default_rng(length).integers(0, 4, 2 * length + 3, dtype=np.uint8)
        for view in (bases[:length], bases[1 : length + 1], bases[3 : length + 3],
                     bases[::2][:length]):
            assert view.size == length
            for pseudocount in (0.0, 0.5):
                assert_fit_matches_counting(view, pseudocount)

    # words are counted in blocks of PAIR_BLOCK, each word with its
    # successor, so k blocks are full from 4 * PAIR_BLOCK * k + 4 bases on;
    # lengths about half a block, one block and two blocks, and the
    # shortest fit
    @pytest.mark.parametrize("length", [
        2, 2 * PAIR_BLOCK - 1, 2 * PAIR_BLOCK, 2 * PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 2,
        *range(4 * PAIR_BLOCK - 1, 4 * PAIR_BLOCK + 10),
        *range(8 * PAIR_BLOCK + 2, 8 * PAIR_BLOCK + 10),
    ])
    def test_matches_direct_counting_at_block_edges(self, length):
        rng = np.random.default_rng(length)
        for pseudocount in (0.0, 0.5):
            assert_fit_matches_counting(rng.integers(0, 4, length, dtype=np.uint8),
                                        pseudocount)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(length=st.integers(2, 12 * PAIR_BLOCK), seed=st.integers(0, 2**32 - 1),
           offset=st.integers(0, 3))
    def test_matches_direct_counting_at_random_lengths(self, length, seed, offset):
        bases = np.random.default_rng(seed).integers(0, 4, length + offset, dtype=np.uint8)
        assert_fit_matches_counting(bases[offset:], 0.0)

    def test_counts_pairs_one_block_at_a_time(self, monkeypatch, rng):
        # the word codes go to bincount a block of PAIR_BLOCK words at a
        # time, so its cast to intp never sees more than one block; each
        # code stands for the four pairs starting in its word, and at most
        # ten pairs around the word boundaries are counted one by one
        sizes = []
        bincount = np.bincount

        def counted(x, *args, **kwargs):
            sizes.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        bases = rng.integers(0, 4, 12 * PAIR_BLOCK + 25, dtype=np.uint8)
        for seq in (DnaSeq(bases=bases), DnaSeq(bases=bases[1:])):
            sizes.clear()
            estimate_model(seq)
            assert len(sizes) == 4
            assert max(sizes) <= PAIR_BLOCK
            assert seq.length - 11 <= 4 * sum(sizes) <= seq.length - 1

    def test_recovers_generator(self, bohv1, rng):
        seq = generate_sequence(bohv1, 300_000, rng)
        m = estimate_model(seq)
        assert np.abs(m.pi - bohv1.pi).max() < 0.01
        assert np.abs(m.trans - bohv1.trans).max() < 0.02


class TestQuasiMatrix:
    def test_matches_literal_loop(self, rng):
        for _ in range(5):
            pi, trans = random_model(rng)
            m = MarkovModel(pi=pi, trans=trans)
            assert np.allclose(
                quasi_transition_matrix(m), quasi_matrix(trans), atol=1e-15
            )

    def test_row_sums_below_one(self, bohv1):
        t = quasi_transition_matrix(bohv1)
        assert np.all(t.sum(axis=1) < 1.0)

    def test_center_pair_probs(self, bohv1):
        c = center_pair_probs(bohv1)
        expected = [bohv1.trans[i, 3 - i] for i in range(4)]
        assert np.allclose(c, expected)


class TestRates:
    def test_markov_rate_vs_enumeration(self, rng):
        for _ in range(10):
            pi, trans = random_model(rng)
            m = MarkovModel(pi=pi, trans=trans)
            for half in (1, 2, 3):
                exact = enum_markov_rate(pi, trans, half)
                assert markov_rate(m, half).value == pytest.approx(
                    exact, abs=1e-13
                )

    def test_iid_reduction(self, rng):
        for _ in range(5):
            pi = rng.random(4) + 0.1
            pi /= pi.sum()
            m = iid_model(pi)
            gamma = iid_match_gamma(pi)
            for half in range(1, 13):
                assert markov_rate(m, half).value == pytest.approx(
                    gamma**half, abs=1e-14
                )
                assert iid_rate(pi, half).value == pytest.approx(
                    gamma**half, abs=1e-15
                )

    def test_iid_match_prob(self):
        # at half-length 1 the iid rate is the match probability gamma
        assert iid_rate([0.25, 0.25, 0.25, 0.25], 1).value == pytest.approx(0.25)
        assert iid_rate([0.5, 0.0, 0.0, 0.5], 1).value == pytest.approx(0.5)

    def test_rate_metadata(self, bohv1):
        est = markov_rate(bohv1, 6)
        assert est.method == "markov"
        assert est.half_length == 6
        with pytest.raises(ValueError):
            markov_rate(bohv1, 0)
        with pytest.raises(ValueError):
            iid_rate(bohv1.pi, 0)


class TestBohv1:
    def test_constants(self, bohv1):
        assert BOHV1_GENOME_LENGTH == 135_301
        assert np.allclose(bohv1.pi, [0.1354, 0.3588, 0.3654, 0.1404], atol=5e-5)
        assert np.allclose(bohv1.trans.sum(axis=1), 1.0, atol=1e-12)

    def test_row_renormalisation_is_small(self, bohv1):
        printed = np.array([
            [0.1854, 0.3288, 0.3556, 0.1303],
            [0.1258, 0.2932, 0.4347, 0.1463],
            [0.1343, 0.4512, 0.2994, 0.1151],
            [0.1141, 0.3151, 0.3695, 0.2012],
        ])
        assert np.abs(bohv1.trans - printed).max() < 1e-4

    def test_near_stationary(self, bohv1):
        assert stationary_gap(bohv1) < 5e-3


class TestStationary:
    def test_fixed_point(self, rng):
        for _ in range(5):
            pi, trans = random_model(rng)
            m = MarkovModel(pi=pi, trans=trans)
            s = stationary(m)
            assert np.allclose(s @ m.trans, s, atol=1e-12)
            assert s.sum() == pytest.approx(1.0)
            assert stationary_gap(m) < 1e-12  # random_model builds pi from trans


class TestGenerateSequence:
    @staticmethod
    def naive_chain(model, length, seed, bit_generator=np.random.PCG64):
        """Sequential reference using the same uniform draws."""
        u = np.random.Generator(bit_generator(seed)).random(length).tolist()
        cum_pi = np.cumsum(model.pi)
        cum_tr = np.cumsum(model.trans, axis=1)[:, :3].tolist()
        out = [min(int(np.searchsorted(cum_pi, u[0], side="right")), 3)]
        for t in range(1, length):
            out.append(sum(u[t] > c for c in cum_tr[out[-1]]))
        return np.array(out, dtype=np.uint8)

    # short lengths, walked by the leaf loop or a few levels of pairs, and
    # runs of three lengths up to 2^14 + 2, each with odd and even map
    # counts; then the walk's edges
    @pytest.mark.parametrize("length", sorted({
        1, 2, 3, 17, 32, 33, 34, 64, 65, 66, 80, 81, 82, 100, 128, 129, 130,
        143, 144, 145, 146, 156, 157, 158, 192, 193, 194, 288, 289, 290, 384,
        385, 386, 1001, 1024, 1025, 1026, 1040, 1041, 1042, 16384, 16385,
        16386, 16657, 16658, *WALK_EDGE_LENGTHS}))
    def test_matches_sequential_reference(self, bohv1, length):
        got = generate_sequence(bohv1, length, np.random.default_rng(99))
        assert np.array_equal(got.bases, self.naive_chain(bohv1, length, 99))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(chain=sparse_models(),
           length=st.one_of(st.sampled_from(WALK_EDGE_LENGTHS),
                            st.integers(1, 5000)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_reference_property(self, chain, length, seed):
        model = MarkovModel(pi=chain[0], trans=chain[1])
        got = generate_sequence(model, length, np.random.default_rng(seed))
        assert np.array_equal(got.bases, self.naive_chain(model, length, seed))

    # sha256 of the bases at 10^6, where the walk runs 14 levels of pairs
    # and the sequential reference is too slow; the digests were taken from
    # the earlier sampler (strided sqrt(length) blocks), an implementation
    # independent of the walk
    @pytest.mark.parametrize("model, seed, digest", [
        (bohv1_model(), 3,
         "7fc535a8b62b3cf10256d68bb902fecc044960d0bd570bfc471e98c8936818a4"),
        (MarkovModel(pi=[0.3, 0.2, 0.0, 0.5],
                     trans=[[0.0, 0.6, 0.0, 0.4],
                            [0.5, 0.0, 0.5, 0.0],
                            [0.0, 0.0, 0.0, 1.0],
                            [0.25, 0.25, 0.25, 0.25]]), 4,
         "acc2255097ac8ad712552cbf9074d371d62a26bc879a9c8723cf1cf1340ffb5d"),
    ], ids=["bohv1", "sparse"])
    def test_pinned_digest_at_a_million_bases(self, model, seed, digest):
        got = generate_sequence(model, 1_000_000, np.random.default_rng(seed))
        assert hashlib.sha256(got.bases.tobytes()).hexdigest() == digest

    # the draws are made and mapped DRAW_CHUNK at a time: short chunks put
    # the first base alone in its chunk or beside the first maps, and
    # lengths a chunk or more end on and past chunk edges
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_draw_chunks_match_sequential_reference(self, bohv1, monkeypatch, chunk):
        monkeypatch.setattr(markov, "DRAW_CHUNK", chunk)
        for length in sorted({1, 2, 3, chunk, chunk + 1, 3 * chunk, 3 * chunk + 2, 1001}):
            got = generate_sequence(bohv1, length, np.random.default_rng(99))
            assert np.array_equal(got.bases, self.naive_chain(bohv1, length, 99))

    # the draws are read as raw words, which must leave the generator where
    # rng.random would, so that insert_hotspots' later draws are unchanged:
    # a first base alone, one and two maps, one chunk of words and one
    # more, and a 135,301 bp replicate
    @pytest.mark.parametrize("length", [
        1, 2, 3, markov.DRAW_CHUNK - 1, markov.DRAW_CHUNK, markov.DRAW_CHUNK + 1,
        BOHV1_GENOME_LENGTH])
    def test_leaves_generator_where_random_would(self, bohv1, length):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        generate_sequence(bohv1, length, rng)
        twin.random(length)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
    def test_bit_generators_whose_doubles_are_top_53_bits(self, bohv1, bit_generator):
        for length in (1, 2, 1001, markov.DRAW_CHUNK + 3):
            rng = np.random.Generator(bit_generator(8))
            twin = np.random.Generator(bit_generator(8))
            got = generate_sequence(bohv1, length, rng)
            want = self.naive_chain(bohv1, length, 8, bit_generator)
            assert np.array_equal(got.bases, want)
            twin.random(length)
            assert np.array_equal(rng.integers(2**63, size=4),
                                  twin.integers(2**63, size=4))

    def test_refuses_32_bit_generator(self, bohv1):
        # MT19937 makes a double from two 32-bit words, so its raw words
        # are not the draws; the refusal comes before any draw
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="MT19937"):
            generate_sequence(bohv1, 10, rng)
        assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()

    # cumulative thresholds on the edges of the lookup's buckets, the 2^-16
    # wide intervals of u that share a word's top 16 bits: the first bound
    # of bucket 32,768 (0.5), a bucket's last bound (j 2^-16 - 2^-53), a
    # bucket's second bound (j 2^-16 + 2^-53), and u = 0 (bucket 0)
    EDGE_THRESHOLDS = [
        (0.5, 0.75, 0.875),
        (0.25 - 2.0**-53, 0.5 + 2.0**-16, 0.75 + 2.0**-53),
        (2.0**-16, 0.5 - 2.0**-53, 1.0 - 2.0**-16),
        (0.0, 0.0, 0.5),
    ]

    @pytest.mark.parametrize("seed", [5, 6])
    def test_thresholds_on_bucket_edges_match_sequential_reference(self, seed):
        cum = np.array(self.EDGE_THRESHOLDS)
        trans = np.diff(cum, prepend=0.0, append=1.0)
        assert np.array_equal(np.cumsum(trans, axis=1)[:, :3], cum)
        model = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        got = generate_sequence(model, 100_000, np.random.default_rng(seed))
        assert np.array_equal(got.bases, self.naive_chain(model, 100_000, seed))

    # all 12 thresholds in one bucket, 2^-50 (8 steps of the draws' 2^-53
    # grid) apart, around a value c that the first draw below 1/4 from
    # position 100 on equals (shift 0), exceeds by one step (shift 1) or by
    # a quarter step, off the grid (shift 1/4): every row holds c, so that
    # draw is mapped by the exact comparisons whatever its row
    OFFSETS = np.array([(0, 1, 2), (-1, 0, 1), (-2, -1, 0), (-2, 0, 1)]) * 2.0**-50

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("shift", [0.0, 1.0, 0.25])
    def test_thresholds_of_all_rows_in_one_bucket(self, seed, shift):
        u = np.random.default_rng(seed).random(1000)
        t = 100 + int(np.argmax(u[100:] < 0.25))
        c = u[t] - shift * 2.0**-53
        assert 0.01 < c < 0.25
        cum = c + self.OFFSETS
        assert np.unique(np.floor(cum * 2.0**16)).size == 1
        trans = np.diff(cum, prepend=0.0, append=1.0)
        assert np.array_equal(np.cumsum(trans, axis=1)[:, :3], cum)
        model = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        for length in (1000, 100_000):
            got = generate_sequence(model, length, np.random.default_rng(seed))
            assert np.array_equal(got.bases, self.naive_chain(model, length, seed))

    def test_allocation_peak(self, bohv1):
        # besides the output, the draws take one chunk of words and one byte
        # per word for the lookup's index cast, freed before the walk, whose
        # pair maps and chunk buffers set the peak: 2.22 bytes per base,
        # against 10 with every draw at once
        n, rng = 2_000_000, np.random.default_rng(1)
        tracemalloc.start()
        try:
            seq = generate_sequence(bohv1, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.length == n
        assert peak <= 2.3 * n

    def test_zero_length(self, bohv1):
        assert generate_sequence(bohv1, 0, np.random.default_rng(0)).length == 0

    def test_negative_length(self, bohv1):
        with pytest.raises(ValueError):
            generate_sequence(bohv1, -1, np.random.default_rng(0))

    def test_deterministic_per_seed(self, bohv1):
        a = generate_sequence(bohv1, 5000, np.random.default_rng(5))
        b = generate_sequence(bohv1, 5000, np.random.default_rng(5))
        c = generate_sequence(bohv1, 5000, np.random.default_rng(6))
        assert a == b
        assert a != c

    def test_transition_frequencies(self, uniform, rng):
        seq = generate_sequence(uniform, 100_000, rng)
        counts = np.bincount(seq.bases, minlength=4)
        assert np.abs(counts / seq.length - 0.25).max() < 0.01


class TestWalk:
    @staticmethod
    def loop_walk(maps, first):
        """The walk one map at a time."""
        out, state = [], first
        for code in maps.tolist():
            state = (code >> (2 * state)) & 3
            out.append(state)
        return np.array(out, dtype=np.uint8)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(length=st.one_of(st.sampled_from(WALK_EDGES),
                            st.integers(0, 3000)),
           palette=st.lists(st.one_of(st.sampled_from(CONSTANT_AND_IDENTITY_CODES),
                                      st.integers(0, 255)),
                            min_size=1, max_size=6),
           first=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop(self, length, palette, first, seed):
        maps = np.random.default_rng(seed).choice(
            np.array(palette, dtype=np.uint8), size=length)
        expected = self.loop_walk(maps, first)
        _walk(maps, first)
        assert np.array_equal(maps, expected)

    def test_allocation_peak(self):
        # the pair maps of all levels take up to one byte per map, and
        # take's intp copy of a chunk of words (512 kB) a quarter byte per
        # map at 2e6 maps: 1.22 bytes per map in all
        n = 2_000_000
        maps = np.random.default_rng(1).integers(0, 256, n, dtype=np.uint8)
        tracemalloc.start()
        try:
            _walk(maps, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * n


class TestModelJson:
    # the model document is the "model" field of estimate --json
    @pytest.fixture(scope="class")
    def fitted(self, bohv1, tmp_path_factory):
        seq = generate_sequence(bohv1, 20_000, np.random.default_rng(5))
        path = tmp_path_factory.mktemp("model") / "bohv1.fa"
        path.write_text(">sim\n" + decode(seq.bases) + "\n")
        return str(path), estimate_model(seq)

    @staticmethod
    def model_json(path):
        buf = io.StringIO()
        args = build_parser().parse_args(["estimate", "--input", path, "--json"])
        assert run(args, out=buf) == 0
        return buf.getvalue()

    def test_round_trip(self, fitted):
        path, model = fitted
        payload = json.loads(self.model_json(path))[0]["model"]
        again = MarkovModel(pi=payload["pi"], trans=payload["trans"])
        assert np.abs(again.pi - model.pi).max() < 1e-11
        assert np.abs(again.trans - model.trans).max() < 1e-11

    def test_deterministic_text(self, fitted):
        path, _ = fitted
        assert self.model_json(path) == self.model_json(path)

    def test_keys(self, fitted):
        path, _ = fitted
        payload = json.loads(self.model_json(path))[0]["model"]
        assert set(payload) == {"pi", "trans"}
