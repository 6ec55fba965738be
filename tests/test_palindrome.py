import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from palinscan import (
    DnaSeq,
    InfiniteScoreError,
    MarkovModel,
    PalindromeTable,
    ScoreModel,
    average_rate,
    find_palindromes,
    generate_sequence,
    iid_model,
    score_events,
)
from palinscan import palindrome
from palinscan.cli import _dump_events
from palinscan.palindrome import PalindromeEvent

from oracles import (
    brute_palindromes,
    check_palindrome,
    naive_pattern_log_prob,
    random_model,
    sparse_models,
)


def seq_of(text: str) -> DnaSeq:
    return DnaSeq.from_string(text)


def events_tsv(events, model, directory) -> str:
    """The table scan --dump-events writes for events under model."""
    path = directory / "events.tsv"
    _dump_events(str(path), events, model)
    return path.read_text()


def one_event(table: PalindromeTable, i: int) -> PalindromeTable:
    """The table holding only event i of table."""
    return PalindromeTable(table.seq, table.centers[i : i + 1],
                           table.half_lengths[i : i + 1], table.min_half_length)


def bws_of(text: str, model) -> float:
    """The bws score of the one palindrome that text is, searched at L = 1."""
    (score,) = score_events(find_palindromes(seq_of(text), 1), ScoreModel("bws", model, 1))
    return float(score)


def naive_bws(e, model) -> float:
    """Event e's bws score from oracles.naive_pattern_log_prob."""
    return -naive_pattern_log_prob(e.pattern.bases, model.pi, model.trans)


class TestFindPalindromes:
    def test_ecori_site(self):
        # GAATTC is its own reverse complement: half-length 3 around centre 2
        events = find_palindromes(seq_of("GAATTC"), 1)
        assert [(e.center, e.half_length) for e in events] == [(2, 3)]
        assert [str(e.pattern) for e in events] == ["GAATTC"]

    def test_single_pair(self):
        events = find_palindromes(seq_of("AT"), 1)
        assert [(e.center, e.half_length) for e in events] == [(0, 1)]

    def test_no_events(self):
        assert len(find_palindromes(seq_of("AAAA"), 1)) == 0
        assert len(find_palindromes(seq_of("GAATTC"), 4)) == 0

    def test_table_arrays_and_views(self):
        s = seq_of("CCGAATTCGGAATT")
        table = find_palindromes(s, 1)
        assert isinstance(table, PalindromeTable)
        assert table.seq is s and table.min_half_length == 1
        assert table.centers.dtype == table.half_lengths.dtype == np.int64
        assert np.all(np.diff(table.centers) > 0)
        events = list(table)
        assert len(events) == len(table)
        assert [(e.center, e.half_length) for e in events] == list(
            zip(table.centers.tolist(), table.half_lengths.tolist()))
        for e in events:
            c, h = e.center, e.half_length
            assert str(e.pattern) == str(s)[c - h + 1 : c + h + 1]
        # the arrays are the table's only random access
        with pytest.raises(TypeError):
            table[0]
        with pytest.raises(ValueError):
            table.centers[0] = 1

    def test_builds_no_event_objects(self, bohv1, monkeypatch):
        # detection returns arrays; PalindromeEvent views are built only on
        # iteration
        built = []
        init = PalindromeEvent.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PalindromeEvent, "__init__", counted)
        seq = generate_sequence(bohv1, 20_000, np.random.default_rng(5))
        table = find_palindromes(seq, 4)
        assert len(table) > 0
        assert built == []
        list(table)
        assert len(built) == len(table)

    def test_embedded_and_maximal(self):
        # CCGAATTCGG extends EcoRI by one palindromic pair on each side
        events = find_palindromes(seq_of("CCGAATTCGG"), 1)
        best = max(e.half_length for e in events)
        assert best == 5
        centers = [e.center for e in events if e.half_length == 5]
        assert centers == [4]

    def test_min_half_length_filter(self):
        s = seq_of("CCGAATTCGG")
        all_events = find_palindromes(s, 1)
        filtered = find_palindromes(s, 2)
        assert {(e.center, e.half_length) for e in filtered} == {
            (e.center, e.half_length) for e in all_events if e.half_length >= 2
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        bases = rng.integers(0, 4, size=400).astype(np.uint8)
        s = DnaSeq(bases=bases)
        for min_half in (1, 2, 3, 6):
            got = [(e.center, e.half_length) for e in find_palindromes(s, min_half)]
            assert got == brute_palindromes(bases, min_half)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), min_half=st.integers(1, 8))
    def test_matches_per_centre_extension(self, data, min_half):
        # lengths 0..3L cover sequences shorter than one kept palindrome
        # (n < 2L); a planted palindrome makes long ones common
        length = data.draw(st.integers(0, 3 * min_half))
        bases = data.draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
        half = data.draw(st.integers(0, length // 2))
        at = data.draw(st.integers(0, length - 2 * half))
        left = bases[at : at + half]
        bases[at + half : at + 2 * half] = [3 - x for x in reversed(left)]
        s = DnaSeq(bases=np.array(bases, dtype=np.uint8))
        got = [(e.center, e.half_length) for e in find_palindromes(s, min_half)]
        assert got == brute_palindromes(bases, min_half)

    def test_boundary_truncation(self):
        # palindrome against the left edge cannot extend beyond the sequence
        events = find_palindromes(seq_of("ATAT"), 1)
        assert (0, 1) in [(e.center, e.half_length) for e in events]

    def test_reverse_complement_symmetry(self, bohv1):
        s = generate_sequence(bohv1, 3000, np.random.default_rng(8))
        fwd = find_palindromes(s, 2)
        rev = find_palindromes(DnaSeq(bases=3 - s.bases[::-1]), 2)
        # a palindrome centred at c maps to one centred at n - 2 - c
        assert sorted(s.length - 2 - e.center for e in fwd) == [
            e.center for e in rev
        ]
        assert sorted(e.half_length for e in fwd) == sorted(
            e.half_length for e in rev
        )

    def test_patterns_are_palindromes(self, bohv1):
        s = generate_sequence(bohv1, 5000, np.random.default_rng(3))
        for e in find_palindromes(s, 3):
            assert check_palindrome(e.pattern)
            assert len(e.pattern) == 2 * e.half_length

    def test_min_half_validation(self):
        for bad in (0, -5):
            with pytest.raises(ValueError):
                find_palindromes(seq_of("ACGT"), bad)
        # the table itself rejects a threshold below 1 or an event below it
        s = seq_of("GAATTC")
        with pytest.raises(ValueError, match=">= 1"):
            PalindromeTable(s, [], [], 0)
        with pytest.raises(ValueError, match="below the detection threshold"):
            PalindromeTable(s, [2], [3], 4)

    def test_patterns_not_revalidated(self, bohv1, monkeypatch):
        # detection validates nothing again; the iterated patterns equal
        # validated copies field for field
        s = generate_sequence(bohv1, 5000, np.random.default_rng(3))
        checks = []
        post_init = DnaSeq.__post_init__
        monkeypatch.setattr(DnaSeq, "__post_init__",
                            lambda self: checks.append(1) or post_init(self))
        events = find_palindromes(s, 3)
        assert events and not checks
        for e in events:
            c, h = e.center, e.half_length
            ref = DnaSeq(bases=s.bases[c - h + 1 : c + h + 1].copy())
            assert e.pattern.dropped_count == ref.dropped_count
            assert e.pattern.bases.dtype == ref.bases.dtype
            assert np.array_equal(e.pattern.bases, ref.bases)
            assert not np.shares_memory(e.pattern.bases, s.bases)


class TestSearchBlocks:
    """find_palindromes tests depths 1..L over blocks of SEARCH_BLOCK
    centres; shrunk to 16, small sequences hold many block edges."""

    BLOCK = 16

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(palindrome, "SEARCH_BLOCK", self.BLOCK)

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("min_half", range(1, 9))
    def test_lengths_and_plants_at_block_edges(self, min_half):
        rng = np.random.default_rng(min_half)
        low = min_half - 1  # the centre at the start of block 0
        for k in (1, 2, 3):
            for d in sorted({-min_half, -1, 0, 1, min_half,
                             2 * min_half - 2, 2 * min_half - 1, 2 * min_half}):
                n = k * self.BLOCK + d
                for letters in ((0, 1, 2, 3), (0, 3)):  # A/T only: long runs
                    bases = rng.choice(np.array(letters, dtype=np.uint8), size=max(n, 0))
                    # palindromes centred on and beside each block edge
                    for edge in range(low + self.BLOCK, n, self.BLOCK):
                        c = edge + int(rng.integers(-2, 2))
                        h = int(rng.integers(min_half, min_half + 4))
                        if c - h + 1 >= 0 and c + h < n:
                            bases[c + 1 : c + h + 1] = 3 - bases[c - h + 1 : c + 1][::-1]
                    got = find_palindromes(DnaSeq(bases=bases), min_half)
                    assert list(zip(got.centers.tolist(), got.half_lengths.tolist())) \
                        == brute_palindromes(bases, min_half)

    # recorded with the whole-sequence depth test, before it ran in blocks
    @pytest.mark.parametrize("min_half,events,digest", [
        (1, 354406, "95fcd0bdbc19ef17b7f884046b85756afcd2f1853066927865491638234ecb3e"),
        (6, 1099, "91a13255d56394392ce766caed3f3606c5216687fe40de72f06caf08da92781d"),
    ])
    def test_pinned_chain_digest(self, bohv1, min_half, events, digest):
        s = generate_sequence(bohv1, 10**6, np.random.default_rng(2024))
        table = find_palindromes(s, min_half)
        assert len(table) == events
        got = hashlib.sha256(table.centers.tobytes() + table.half_lengths.tobytes())
        assert got.hexdigest() == digest

    def test_allocation_peak(self, bohv1):
        # block buffers and the events only: no full-length complement or mask
        n = 2_000_000
        s = generate_sequence(bohv1, n, np.random.default_rng(9))
        tracemalloc.start()
        try:
            table = find_palindromes(s, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) > 0
        assert peak <= 1.5 * n


class TestCheckPalindrome:
    def test_true_cases(self):
        assert check_palindrome(seq_of("AT").bases)
        assert check_palindrome(seq_of("GAATTC").bases)

    def test_false_cases(self):
        assert not check_palindrome(seq_of("AA").bases)
        assert not check_palindrome(seq_of("ACGTA").bases)  # odd length


class TestScores:
    def test_pattern_log_prob_uniform(self, uniform):
        # start weight 3/16 times centre closure 1/4 = 3/64
        assert bws_of("AT", uniform) == pytest.approx(-np.log(3.0 / 64.0), abs=1e-12)

    def test_pattern_log_prob_factorises(self, uniform):
        # each extra pair multiplies by the uniform quasi step 1/16
        short, long = bws_of("AT", uniform), bws_of("AATT", uniform)
        assert long - short == pytest.approx(-np.log(1.0 / 16.0), abs=1e-12)

    def test_infinite_score(self):
        # transitions that forbid A->A make the pattern AATT impossible:
        # its quasi step needs both A->A and T->T
        trans = np.array([
            [0.0, 0.4, 0.3, 0.3],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
            [0.3, 0.3, 0.3, 0.1],
        ])
        m = MarkovModel(pi=np.full(4, 0.25), trans=trans)
        with pytest.raises(InfiniteScoreError):
            bws_of("AATT", m)

    def test_score_event_kinds(self, uniform):
        events = find_palindromes(seq_of("GGAATTCC"), 3)
        (e,) = events
        assert score_events(events, ScoreModel("pcs", uniform, 3)).tolist() == [1.0]
        pls = score_events(events, ScoreModel("pls", uniform, 3))[0]
        assert pls == pytest.approx(e.half_length / 3.0)
        bws = score_events(events, ScoreModel("bws", uniform, 3))[0]
        assert bws == pytest.approx(naive_bws(e, uniform))

    def test_score_event_validation(self, uniform):
        # an unknown kind is the ScoreModel's error, an event below the
        # threshold the table's
        events = find_palindromes(seq_of("GAATTC"), 1)
        with pytest.raises(ValueError, match="kind"):
            ScoreModel("nope", uniform, 1)
        with pytest.raises(ValueError, match="below the detection threshold"):
            PalindromeTable(events.seq, events.centers, events.half_lengths,
                            int(events.half_lengths[0]) + 1)

    @pytest.mark.parametrize("kind", ["pcs", "pls", "bws"])
    def test_threshold_must_match_score_model(self, kind, uniform):
        # pls scores of a table searched at L = 2 divided by 3 would not be
        # the scores whose MGF the ScoreModel gives
        events = find_palindromes(seq_of("CCGGAATTCCGG"), 2)
        with pytest.raises(ValueError, match="threshold 3 differs from the table's 2"):
            score_events(events, ScoreModel(kind, uniform, 3))
        with pytest.raises(ValueError, match="threshold 1 differs from the table's 2"):
            score_events(events, ScoreModel(kind, uniform, 1))
        assert score_events(events, ScoreModel(kind, uniform, 2)).shape == (len(events),)

    def test_attach_scores(self, uniform, tmp_path):
        # --dump-events attaches each event's three scores to its row
        events = find_palindromes(seq_of("CCGAATTCGG"), 2)
        lines = events_tsv(events, uniform, tmp_path).splitlines()[1:]
        rows = [line.split("\t") for line in lines]
        assert len(rows) == len(events) > 0
        for e, row in zip(events, rows):
            assert row[:3] == [str(e.center), str(e.half_length), str(e.pattern)]
            assert float(row[3]) == 1.0
            assert float(row[4]) == pytest.approx(e.half_length / 2.0)
            assert float(row[5]) == pytest.approx(naive_bws(e, uniform))


class TestScoreEvents:
    def test_matches_score_event(self, bohv1):
        # scoring the whole table gives each event's score on its own
        seq = generate_sequence(bohv1, 20_000, np.random.default_rng(4))
        events = find_palindromes(seq, 4)
        for kind in ("pcs", "pls", "bws"):
            sm = ScoreModel(kind, bohv1, 4)
            got = score_events(events, sm)
            assert got.shape == (len(events),)
            assert list(got) == [score_events(one_event(events, i), sm)[0]
                                 for i in range(len(events))]

    def test_empty(self, uniform):
        events = find_palindromes(seq_of("AAAAAAAA"), 3)
        for kind in ("pcs", "pls", "bws"):
            assert score_events(events, ScoreModel(kind, uniform, 3)).shape == (0,)

    def test_sparse_chain_without_subcritical_t_refused(self):
        # sparse_models can draw this chain: C and G repeat forever, so T
        # has spectral radius 1 and no score model exists; the property
        # tests below assume such chains away
        even = np.full(4, 0.25)
        trans = np.array([even, [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], even])
        model = MarkovModel(pi=even, trans=trans)
        for kind in ("pcs", "pls", "bws"):
            with pytest.raises(ValueError, match="strictly subcritical"):
                ScoreModel(kind, model, 1)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(chain=sparse_models(), length=st.integers(50, 3000),
           min_half=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_pattern_oracle(self, chain, length, min_half, seed):
        model = MarkovModel(pi=chain[0], trans=chain[1])
        try:
            pcs, pls, bws = (ScoreModel(kind, model, min_half)
                             for kind in ("pcs", "pls", "bws"))
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        seq = generate_sequence(model, length, np.random.default_rng(seed))
        events = find_palindromes(seq, min_half)
        half = [e.half_length for e in events]
        assert list(score_events(events, pcs)) == [1.0] * len(events)
        assert list(score_events(events, pls)) == [h / min_half for h in half]

        oracle, rejected = [], []
        for e in events:
            try:
                oracle.append(-naive_pattern_log_prob(e.pattern.bases, *chain))
            except InfiniteScoreError:
                oracle.append(None)
                rejected.append(e)
        for i, want in enumerate(oracle):
            if want is None:
                with pytest.raises(InfiniteScoreError):
                    score_events(one_event(events, i), bws)
            else:
                got = score_events(one_event(events, i), bws)[0]
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        if rejected:
            with pytest.raises(InfiniteScoreError):
                score_events(events, bws)
        else:
            got = score_events(events, bws)
            assert got == pytest.approx(np.array(oracle, dtype=float), rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(chain=sparse_models(), length=st.integers(50, 3000),
           min_half=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_table_matches_event_list(self, chain, length, min_half, seed):
        # a table is scored from its arrays; its materialised events carry
        # the same half-lengths. test_matches_pattern_oracle checks the bws
        # scores of the table against the naive oracle.
        model = MarkovModel(pi=chain[0], trans=chain[1])
        try:
            pls = ScoreModel("pls", model, min_half)
        except ValueError:  # T not subcritical, or a rate of 0
            assume(False)
        seq = generate_sequence(model, length, np.random.default_rng(seed))
        table = find_palindromes(seq, min_half)
        events = list(table)
        assert np.array_equal(score_events(table, pls),
                              [e.half_length / min_half for e in events])


class TestAverageRate:
    def test_counts_over_length(self):
        events = find_palindromes(seq_of("GAATTCGAATTC"), 3)
        est = average_rate(events)
        assert est.value == pytest.approx(len(events) / 12.0)
        assert est.method == "average"

    def test_explicit_half_length(self):
        # the table's threshold is recorded even when it holds no event
        est = average_rate(find_palindromes(seq_of("AAAA"), 6))
        assert est.value == 0.0
        assert est.half_length == 6

    def test_infers_half_length(self):
        # the threshold comes from the table, not from its smallest event
        events = find_palindromes(seq_of("GAATTC"), 2)
        assert [e.half_length for e in events] == [3]
        assert average_rate(events).half_length == 2

    def test_length_validation(self):
        with pytest.raises(ValueError, match="empty sequence"):
            average_rate(find_palindromes(seq_of(""), 2))


class TestEventsTsv:
    def test_golden_small_case(self, uniform, tmp_path):
        events = find_palindromes(seq_of("GAATTC"), 3)
        text = events_tsv(events, uniform, tmp_path)
        lines = text.splitlines()
        assert lines[0] == "center\thalf_length\tpattern\tpcs\tpls\tbws"
        cols = lines[1].split("\t")
        assert cols[0] == "2"
        assert cols[1] == "3"
        assert cols[2] == "GAATTC"
        assert float(cols[3]) == 1.0
        assert float(cols[4]) == 1.0
        (e,) = events
        assert float(cols[5]) == pytest.approx(naive_bws(e, uniform))

    def test_deterministic(self, bohv1, tmp_path):
        s = generate_sequence(bohv1, 20_000, np.random.default_rng(2))
        events = find_palindromes(s, 4)
        assert events_tsv(events, bohv1, tmp_path) == events_tsv(events, bohv1, tmp_path)


class TestPalindromeEvent:
    def test_frozen(self):
        e = PalindromeEvent(center=1, half_length=1, pattern=seq_of("AT").bases)
        with pytest.raises(AttributeError):
            e.center = 2
