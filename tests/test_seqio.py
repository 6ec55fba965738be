import http.client
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palinscan import (
    DnaSeq,
    FastaError,
    FastaRecord,
    FetchError,
    fetch_sequence,
    parse_fasta,
    parse_fasta_file,
)
from palinscan import seqio
from palinscan.seqio import decode

from fasta_server import DECLARED_LENGTH, PARTIAL_BODY, FastaHandler
from oracles import line_parse_fasta, naive_parse_fasta, seq_of, serialize_fasta


class TestDnaSeq:
    def test_codes(self):
        assert list(seq_of("ACGT").bases) == [0, 1, 2, 3]
        assert seq_of("ACGT").bases.dtype == np.uint8

    def test_equality_is_content_based(self):
        a = seq_of("ACGT")
        b = seq_of("acgNt")  # one symbol dropped
        assert (a.dropped_count, b.dropped_count) == (0, 1)
        assert a == b
        assert a != seq_of("ACGA")
        assert a.__eq__("ACGT") is NotImplemented

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            DnaSeq(bases=np.array([0, 9], dtype=np.uint8))
        with pytest.raises(ValueError):
            DnaSeq(bases=np.zeros((2, 2), dtype=np.uint8))

    def test_empty_sequence_allowed_as_object(self):
        assert DnaSeq(bases=np.empty(0, dtype=np.uint8)).length == 0


class TestEncodeDecode:
    def test_round_trip(self):
        text = "GATTACA"
        assert decode(parse_fasta(f">r\n{text}\n")[0].seq.bases) == text


# parse_fasta's chunk sizes under test: the module's own, then pieces so
# short that every line and most headers cross an edge
CHUNKS = (None, 1, 2, 3, 64)


def assert_parses_like_line_parser(text: str) -> None:
    """parse_fasta agrees with the line parser, errors included, on str,
    bytes, bytearray, memoryview and file-object sources read in pieces of
    each of CHUNKS."""
    data = text.encode("utf-8")
    for chunk in CHUNKS:
        with mock.patch.object(seqio, "FASTA_CHUNK", chunk or seqio.FASTA_CHUNK):
            for source, content in ((text, text), (data, data), (bytearray(data), data),
                                    (memoryview(data), data),
                                    (io.StringIO(text), text), (io.BytesIO(data), data)):
                try:
                    want = line_parse_fasta(content)
                except FastaError as exc:
                    with pytest.raises(FastaError) as got:
                        parse_fasta(source)
                    assert str(got.value) == str(exc), (chunk, source)
                    continue
                got = [(r.id, str(r.seq), r.seq.dropped_count) for r in parse_fasta(source)]
                assert got == want, (chunk, source)


class TestParseFasta:
    def test_body_drops_and_counts(self):
        s = parse_fasta(">r\nACGTNNacgt GAATTC\nxx")[0].seq
        assert str(s) == "ACGTACGTGAATTC"
        assert s.dropped_count == 4
        assert s.length == len(s) == 14

    def test_body_whitespace_is_silent(self):
        s = parse_fasta(">r\n A\tC\rG\nT ")[0].seq
        assert str(s) == "ACGT"
        assert s.dropped_count == 0

    def test_matches_naive_reader(self, data_dir):
        text = (data_dir / "mixed.fa").read_text()
        records = parse_fasta(text)
        naive = naive_parse_fasta(text)
        assert [(r.id, str(r.seq)) for r in records] == naive

    def test_mixed_file_details(self, data_dir):
        records = parse_fasta_file(data_dir / "mixed.fa")
        assert [r.id for r in records] == [
            "alpha first record",
            "beta",
            "gamma lone line with junk",
        ]
        assert str(records[0].seq) == "ACGTACGTGAATTCACGT"
        assert records[0].seq.dropped_count == 4
        assert str(records[1].seq) == "TTTTAAAA"
        assert records[2].seq.dropped_count == 4

    # Pieces of FASTA text: headers (indented, empty, with '>' inside),
    # bases in both cases, N and junk, the line ends \n, \r\n and \r, the
    # whitespace \v and \f, characters that str.splitlines or str.strip
    # would take for line breaks or whitespace (\x1c-\x1f, \x85, \xa0,
    # \u2028, \u3000), and other non-ASCII characters.
    PIECES = (">", "> id", " >x y ", "\t>", ">a>b", "A", "C", "G", "T", "acgt",
              "N", "n", "-", "*", "0", " ", "\t", "\n", "\r\n", "\r", "\v",
              "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000", "\xe9", "\ufeff", "\x00")

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(head=st.sampled_from(["", ">r\n", "  >r 1\r\n"]),
           pieces=st.lists(st.one_of(st.sampled_from(PIECES),
                                     st.sampled_from(["ACGT", "\n", "ga\n"])),
                           max_size=40))
    def test_matches_line_parser(self, head, pieces):
        assert_parses_like_line_parser(head + "".join(pieces))

    # Long records: clean ones, which parse_fasta takes as one translated
    # body, beside ones holding a symbol to drop (\x1f, N, ...) or a
    # non-ASCII character, whose bytes it compresses and counts.
    DIRT = ("N", "n", "\x1f", "\xa0", "\xe9", "\u3000", "\x00", "-")

    @staticmethod
    def long_record(rng, index, dirt):
        bases = "".join(rng.choice(list("ACGTacgt"), size=int(rng.integers(1, 1000))))
        lines = [bases[i : i + 60] for i in range(0, len(bases), 60)]
        for d in dirt:
            at = int(rng.integers(0, len(lines)))
            cut = int(rng.integers(0, len(lines[at]) + 1))
            lines[at] = lines[at][:cut] + d + lines[at][cut:]
        end = ("\n", "\r\n", "\r")[index % 3]
        return end.join([f">rec {index}", *lines]) + end

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dirt=st.lists(st.lists(st.sampled_from(DIRT), max_size=3),
                         min_size=1, max_size=8))
    def test_long_records_match_line_parser(self, seed, dirt):
        rng = np.random.default_rng(seed)
        assert_parses_like_line_parser(
            "".join(self.long_record(rng, i, d) for i, d in enumerate(dirt)))

    def test_sources_agree_and_bases_are_writable(self):
        rng = np.random.default_rng(5)
        text = "".join(self.long_record(rng, i, d)
                       for i, d in enumerate(([], ["N"], [], ["\x1f", "n"], [])))
        data = text.encode("ascii")
        parsed = [parse_fasta(source) for source in
                  (text, data, io.StringIO(text), io.BytesIO(data))]
        for records in parsed:
            assert [(r.id, r.seq, r.seq.dropped_count) for r in records] == [
                (r.id, r.seq, r.seq.dropped_count) for r in parsed[0]]
            for r in records:
                assert r.seq.bases.dtype == np.uint8
                assert r.seq.bases.flags.writeable
                r.seq.bases[0] = r.seq.bases[0]
        assert [r.seq.dropped_count for r in parsed[0]][::2] == [0, 0, 0]

    @pytest.mark.parametrize("source,message", [
        ("   \n\v\r\n", "empty FASTA input"),
        ("   \n\x1f\r\n", "sequence data before first '>' header"),
        (b"", "empty FASTA input"),
        ("ACGT\n>r\nACGT\n", "sequence data before first '>' header"),
        (b"\xff\n>r\nACGT\n", "sequence data before first '>' header"),
        ("AC>r\nACGT\n", "sequence data before first '>' header"),
        (">r\nACGT\n> \t\nACGT\n", "FASTA header line with empty id"),
        (">r\nACGT\n>s t\nNN\x1f-\n>\n", "record 's t' has no valid ACGT symbols"),
        (b">r\xe9\n\xe9\n", "record 'r\ufffd' has no valid ACGT symbols"),
        (">\nNN\n", "FASTA header line with empty id"),
    ])
    def test_error_messages(self, source, message):
        for chunk in CHUNKS:
            with mock.patch.object(seqio, "FASTA_CHUNK", chunk or seqio.FASTA_CHUNK):
                with pytest.raises(FastaError) as exc:
                    parse_fasta(source)
            assert str(exc.value) == message

    # Chunk edges (for the 64-character chunk of CHUNKS; pieces of 1 to 3
    # put an edge at every offset): a sequence line longer than a chunk, a
    # '>' inside a sequence line, \r | \n, and a dropped \x1f inside a
    # line, at its start and at its end.
    @pytest.mark.parametrize("text", [
        ">r\n" + "ACGT" * 50 + "\n>s\n" + "GATTACA" * 30,
        ">r\n" + "A" * 61 + ">x\n>s\nAC\n",
        ">r\n" + "C" * 60 + "\r\n>s\r\nGG\r\n",
        ">r\n" + "G" * 61 + "\x1fT\n",
        ">r\n" + "G" * 60 + "\n\x1fT\n",
        ">r\n" + "G" * 60 + "\x1f\nT\n",
        ">" + "r" * 70 + "\nAC\n",
    ], ids=["long-lines", "gt-in-line", "cr-lf", "x1f-inside", "x1f-at-start",
            "x1f-at-end", "long-header"])
    def test_chunk_edges(self, text):
        assert_parses_like_line_parser(text)

    # Inputs read differently from str.splitlines and str.strip: \v and \f
    # are whitespace inside a line, \x1c-\x1f are symbols to drop, and a
    # non-ASCII character is its UTF-8 bytes, each a symbol to drop.
    @pytest.mark.parametrize("text,want", [
        (">r\vs\nAC\n", [("r\vs", "AC", 0)]),
        (">r\nAC\f>s\nGT\n", [("r", "ACGT", 2)]),
        (">r\nAC\x1c>s\x1dGT\x1e\n", [("r", "ACGT", 5)]),
        (">r\x1f\nAC\x1f\nG\x1fT\n", [("r\x1f", "ACGT", 2)]),
        (">r\nAC\x85GT\n", [("r", "ACGT", 2)]),
        (">r\u2028s\nAC\u2028GT\n", [("r\u2028s", "ACGT", 3)]),
        (">r\xa0\nAC\xa0\n", [("r\xa0", "AC", 2)]),
    ], ids=["v-in-header", "f-before-gt", "x1c-x1e", "x1f-end-and-inside",
            "x85", "u2028", "xa0"])
    def test_byte_lines(self, text, want):
        assert line_parse_fasta(text) == want
        assert_parses_like_line_parser(text)

    def test_sources_agree_on_non_ascii_text(self):
        rng = np.random.default_rng(8)
        text = "".join(self.long_record(rng, i, d) for i, d in enumerate(
            (["\xe9"], ["\u3000", "N"], ["\xa0", "\x85"], ["\u2028", "\ufeff"]))
        ).replace(">rec ", ">r\xe9c\u3000")
        data = text.encode("utf-8")
        for chunk in CHUNKS:
            with mock.patch.object(seqio, "FASTA_CHUNK", chunk or seqio.FASTA_CHUNK):
                parsed = [[(r.id, r.seq, r.seq.dropped_count) for r in parse_fasta(source)]
                          for source in (text, data, io.StringIO(text), io.BytesIO(data))]
            assert parsed[1:] == parsed[:1] * 3, chunk
        assert [(r_id, dropped) for r_id, _, dropped in parsed[0]] == [
            ("r\xe9c\u30000", 2), ("r\xe9c\u30001", 4), ("r\xe9c\u30002", 4),
            ("r\xe9c\u30003", 6)]

    def test_utf8_header_id_from_file(self, tmp_path):
        path = tmp_path / "utf8.fa"
        path.write_bytes(">s\xe9q 1 \u2013 Bos\nACGT\n".encode("utf-8"))
        (rec,) = parse_fasta_file(path)
        assert rec.id == "s\xe9q 1 \u2013 Bos"
        with open(path, encoding="utf-8") as fh:
            assert parse_fasta(fh)[0].id == rec.id

    @staticmethod
    def one_record_fasta(n: int, seed: int) -> tuple[bytes, np.ndarray]:
        """A one-record FASTA of n random bases in 60-column lines, and its
        base codes."""
        codes = np.random.default_rng(seed).integers(0, 4, n, dtype=np.uint8)
        text = np.frombuffer(b"ACGT", dtype=np.uint8)[codes]
        return b">chr\n" + b"\n".join(text[i : i + 60].tobytes()
                                       for i in range(0, n, 60)) + b"\n", codes

    def test_clean_parse_allocation_peak(self):
        # the bytes are read a chunk of lines at a time into one base array
        # sized from the text: about one byte per base
        n = 2_000_000
        data, codes = self.one_record_fasta(n, 11)
        tracemalloc.start()
        try:
            (rec,) = parse_fasta(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rec.seq.bases, codes)
        assert peak <= 1.25 * n

    def test_file_parse_allocation_peak(self, tmp_path):
        # a file is read the same way, its base array sized from the file:
        # the text is never held whole, nor copied or translated whole
        n = 1_000_000
        data, codes = self.one_record_fasta(n, 12)
        path = tmp_path / "one.fa"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            (rec,) = parse_fasta_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rec.seq.bases, codes)
        assert peak <= 1.25 * n

    def test_accepts_bytes_and_file_objects(self):
        text = ">r\nACGT\n"
        for source in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
            (rec,) = parse_fasta(source)
            assert str(rec.seq) == "ACGT"

    def test_empty_input(self):
        with pytest.raises(FastaError):
            parse_fasta("   \n ")

    def test_data_before_header(self):
        with pytest.raises(FastaError):
            parse_fasta("ACGT\n>r\nACGT\n")

    def test_empty_header(self):
        with pytest.raises(FastaError):
            parse_fasta(">\nACGT\n")

    def test_record_without_valid_symbols(self):
        with pytest.raises(FastaError):
            parse_fasta(">r\nNNNN\n")

    def test_record_id_required(self):
        with pytest.raises(FastaError):
            FastaRecord(id="", seq=seq_of("ACGT"))


class TestSerializeFasta:
    def test_round_trip(self):
        records = [
            FastaRecord(id="one", seq=seq_of("ACGT" * 40)),
            FastaRecord(id="two words", seq=seq_of("GAATTC")),
        ]
        text = serialize_fasta(records)
        parsed = parse_fasta(text)
        assert [(r.id, str(r.seq)) for r in parsed] == [
            (r.id, str(r.seq)) for r in records
        ]

    def test_line_width(self):
        text = serialize_fasta(
            [FastaRecord(id="x", seq=seq_of("A" * 130))], width=60
        )
        lines = text.splitlines()
        assert [len(x) for x in lines[1:]] == [60, 60, 10]


class TestFetchSequence:
    def test_fetch_parses_and_caches(self, local_endpoint, tmp_path):
        rec = fetch_sequence("GOOD1", endpoint=local_endpoint, cache_dir=tmp_path)
        assert str(rec.seq) == "GAATTCACGT"
        assert (tmp_path / "GOOD1.fasta").exists()
        assert FastaHandler.hits == 1
        again = fetch_sequence("GOOD1", endpoint=local_endpoint, cache_dir=tmp_path)
        assert again.seq == rec.seq
        assert FastaHandler.hits == 1  # served from cache

    def test_env_var_overrides_cache_dir(self, local_endpoint, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv("PALINSCAN_CACHE", str(env_dir))
        fetch_sequence("GOOD1", endpoint=local_endpoint, cache_dir=tmp_path / "other")
        assert (env_dir / "GOOD1.fasta").exists()
        assert not (tmp_path / "other").exists()

    def test_http_error(self, local_endpoint, tmp_path):
        with pytest.raises(FetchError, match="404"):
            fetch_sequence("MISSING1", endpoint=local_endpoint, cache_dir=tmp_path)

    def test_empty_body(self, local_endpoint, tmp_path):
        with pytest.raises(FetchError, match="empty"):
            fetch_sequence("EMPTY1", endpoint=local_endpoint, cache_dir=tmp_path)

    def test_unreachable_host(self, tmp_path):
        with pytest.raises(FetchError):
            fetch_sequence("X1", endpoint="http://127.0.0.1:9/fasta",
                           cache_dir=tmp_path, timeout=0.5)

    def test_unsafe_accession(self, tmp_path):
        with pytest.raises(FetchError, match="unsafe"):
            fetch_sequence("../etc/passwd", cache_dir=tmp_path)

    def test_unparseable_body_is_not_cached(self, local_endpoint, tmp_path):
        for hits in (1, 2):  # each call asks the server again
            with pytest.raises(FastaError, match="before first '>' header"):
                fetch_sequence("HTML1", endpoint=local_endpoint, cache_dir=tmp_path)
            assert FastaHandler.hits == hits
            assert list(tmp_path.iterdir()) == []

    def test_stale_cache_file_is_fetched_again(self, local_endpoint, tmp_path):
        # a body cached unparsed, as older versions did, is replaced once
        (tmp_path / "GOOD1.fasta").write_bytes(b"<html>rate limited</html>")
        rec = fetch_sequence("GOOD1", endpoint=local_endpoint, cache_dir=tmp_path)
        assert str(rec.seq) == "GAATTCACGT"
        assert FastaHandler.hits == 1
        assert fetch_sequence("GOOD1", endpoint=local_endpoint, cache_dir=tmp_path) == rec
        assert FastaHandler.hits == 1

    def test_stale_cache_file_of_a_bad_body_is_removed(self, local_endpoint, tmp_path):
        (tmp_path / "HTML1.fasta").write_bytes(b"<html>rate limited</html>")
        with pytest.raises(FastaError, match="before first '>' header"):
            fetch_sequence("HTML1", endpoint=local_endpoint, cache_dir=tmp_path)
        assert FastaHandler.hits == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("accession, cause", [("SHORT1", http.client.IncompleteRead),
                                                  ("STALL1", TimeoutError)])
    def test_cut_body_is_a_fetch_error(self, local_endpoint, tmp_path, accession, cause):
        # SHORT1 closes after PARTIAL_BODY, STALL1 holds the connection past the timeout
        assert len(PARTIAL_BODY) < DECLARED_LENGTH
        with pytest.raises(FetchError, match=f"cannot read {local_endpoint}/{accession}:") as exc:
            fetch_sequence(accession, endpoint=local_endpoint, cache_dir=tmp_path, timeout=0.3)
        assert isinstance(exc.value.__cause__, cause)
        assert list(tmp_path.iterdir()) == []
