"""Sequence ingestion: FASTA parsing, remote fetch with caching, complements.

Sequences are stored as uint8 code arrays over the fixed alphabet A=0, C=1,
G=2, T=3, so that the complement of code ``c`` is ``3 - c``. Text becomes
codes through one byte table with ``bytes.translate``; parse_fasta reads
its source as ASCII bytes in chunks of whole lines and translates each
chunk's record bodies into one base array per record, so the text is never
held whole.
"""

from __future__ import annotations

import os
import re
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FastaError, FetchError

ALPHABET = "ACGT"
CACHE_ENV_VAR = "PALINSCAN_CACHE"
DEFAULT_ENDPOINT = "https://www.ebi.ac.uk/ena/browser/api/fasta"

# byte -> code lookup; 255 marks a symbol to drop, 254 ignorable whitespace
_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(ALPHABET):
    _CODE[ord(_c)] = _i
    _CODE[ord(_c.lower())] = _i
for _ws in " \t\r\n\v\f":
    _CODE[ord(_ws)] = 254
_CODE_TABLE = _CODE.tobytes()  # for bytes.translate, far faster than indexing

_DECODE = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)

# parse_fasta reads FASTA text the way str.splitlines and str.strip see it:
# the line breaks splitlines knows, the whitespace strip removes that ends no
# line, and \x1f, which strip removes at a line's ends but which is a dropped
# symbol inside a line. Record bodies are translated a chunk of whole lines
# at a time through _CODE_TABLE with _SKIPPED deleted; only a piece holding
# \x1f needs the line structure, read from its _FASTA_TABLE codes: bases
# 0..3 and dropped symbols 255 as in _CODE, then one code each for line
# breaks, other skipped whitespace and \x1f.
_BREAK, _INDENT, _UNIT_SEPARATOR = 254, 253, 252
_LINE_BREAKS = b"\n\r\v\f\x1c\x1d\x1e"
_SKIPPED = _LINE_BREAKS + b" \t"
_BLANK = _SKIPPED + b"\x1f"  # what str.strip removes, in ASCII
_FASTA_CODE = _CODE.copy()
_FASTA_CODE[list(_LINE_BREAKS)] = _BREAK
_FASTA_CODE[list(b" \t")] = _INDENT
_FASTA_CODE[0x1F] = _UNIT_SEPARATOR
_FASTA_TABLE = _FASTA_CODE.tobytes()
_LINE_BREAK_RE = re.compile(b"[" + re.escape(_LINE_BREAKS) + b"]")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")

# parse_fasta reads its source this many characters at a time, each piece
# cut after its last line break. Pieces of 2^16 and 2^17 parse the 10 Mbp
# benchmark FASTA about equally fast, 2^15 about 7% and 2^13 about 40%
# slower; a one-record file peaks at its base array plus about two pieces
FASTA_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class DnaSeq:
    """A cleaned DNA sequence over {A,C,G,T}.

    Attributes:
        bases: uint8 codes, one per base (A=0, C=1, G=2, T=3).
        source_id: free-text label of where the sequence came from.
        dropped_count: number of non-ACGT symbols removed during cleaning.
    """

    bases: np.ndarray
    source_id: str = ""
    dropped_count: int = 0

    def __post_init__(self):
        b = np.asarray(self.bases, dtype=np.uint8)
        if b.ndim != 1:
            raise ValueError("bases must be a one-dimensional code array")
        if b.size and b.max() > 3:
            raise ValueError("bases contain codes outside 0..3")
        object.__setattr__(self, "bases", b)

    @property
    def length(self) -> int:
        return int(self.bases.size)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return decode(self.bases)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DnaSeq):
            return NotImplemented
        return (
            self.bases.size == other.bases.size
            and bool(np.all(self.bases == other.bases))
        )

    @classmethod
    def from_string(cls, text: str, source_id: str = "") -> "DnaSeq":
        """Build a sequence from raw text, dropping and counting non-ACGT symbols.

        Whitespace is ignored silently; anything else outside {A,C,G,T}
        (case-insensitive) is removed and tallied in ``dropped_count``.
        """
        raw = text.encode("ascii", errors="replace")
        codes = np.frombuffer(raw.translate(_CODE_TABLE), dtype=np.uint8)
        keep = codes <= 3
        dropped = int(np.count_nonzero(codes == 255))
        return cls(bases=codes[keep], source_id=source_id, dropped_count=dropped)


def encode(text: str) -> np.ndarray:
    """Encode an ACGT string (strictly clean) into a uint8 code array."""
    codes = np.frombuffer(bytearray(text, "ascii").translate(_CODE_TABLE), dtype=np.uint8)
    if codes.size and codes.max() > 3:
        raise ValueError("encode() requires a clean ACGT string")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a uint8 code array back into an ACGT string."""
    return _DECODE[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


@dataclass(frozen=True)
class FastaRecord:
    id: str
    seq: DnaSeq = field(repr=False)

    def __post_init__(self):
        if not self.id:
            raise FastaError("FASTA record id must be non-empty")


def _ascii_stand_in(match: re.Match) -> str:
    """The ASCII character that parse_fasta treats like the non-ASCII one
    matched: a line break for those str.splitlines breaks at, \\x1f for
    other whitespace, and '?' (a dropped symbol) for the rest."""
    c = match.group()
    if c in "\x85\u2028\u2029":
        return "\n"
    return "\x1f" if c.isspace() else "?"


def _inner_separators(codes: np.ndarray) -> int:
    """How many \\x1f codes stand inside a line, between two characters
    that are neither whitespace nor a line break."""
    separators = np.flatnonzero(codes == _UNIT_SEPARATOR)
    if not separators.size:
        return 0
    stops = np.flatnonzero((codes <= 3) | (codes >= _BREAK))
    i = np.searchsorted(stops, separators)
    i = i[(i > 0) & (i < stops.size)]
    return int(np.count_nonzero((codes[stops[i - 1]] != _BREAK)
                                & (codes[stops[i]] != _BREAK)))


def _source_size(source) -> int:
    """Characters of a str or bytes source, or bytes of the file behind a
    file object; 0 when unknown."""
    if isinstance(source, (bytes, str)):
        return len(source)
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _line_chunks(source):
    """The source as (ASCII bytes, str or None) chunks of whole lines.

    Pieces of FASTA_CHUNK characters are read in turn and each is cut after
    its last line break; the rest is held and led into the next piece, so
    a line longer than a piece arrives whole. Only the last chunk may end
    without a line break. A str piece becomes ASCII one character per byte
    and is returned beside it, so header ids keep their characters.
    """
    if hasattr(source, "read"):
        # read(0) is the empty piece of the source's type, which ends the reads
        pieces = iter(lambda: source.read(FASTA_CHUNK), source.read(0))
    else:
        pieces = (source[at : at + FASTA_CHUNK] for at in range(0, len(source), FASTA_CHUNK))
    held: list = []  # (data, text) pieces of the next chunk
    for piece in pieces:
        if isinstance(piece, bytes):
            data, text = piece, None
        else:
            text = piece
            data = (text if text.isascii() else _NON_ASCII_RE.sub(_ascii_stand_in, text)
                    ).encode("ascii")
        cut = data.rfind(b"\n")
        if _LINE_BREAK_RE.search(data, cut + 1):  # another line break after it
            cut = max(data.rfind(c) for c in _LINE_BREAKS)
        cut += 1
        if not cut:  # the piece is all inside one line
            held.append((data, text))
            continue
        rest = None
        if cut < len(data):
            rest = data[cut:], None if text is None else text[cut:]
            data, text = memoryview(data)[:cut], None if text is None else text[:cut]
        held.append((data, text))
        del piece, data, text  # so that only the reader holds the chunk
        yield _joined(held)
        if rest:
            held.append(rest)
    if held:
        yield _joined(held)


def _joined(pieces: list) -> tuple[bytes, str | None]:
    """The held pieces as one chunk; empties the list, so that a chunk is
    held by its reader alone."""
    data = b"".join([d for d, _ in pieces])
    text = None if pieces[0][1] is None else "".join([t for _, t in pieces])
    pieces.clear()
    return data, text


def _header_lines(data: bytes):
    """(offset of the '>', end of its line) of each header line in data,
    which starts at the start of a line."""
    at = data.find(b">")
    while at >= 0:
        p = at - 1
        while p >= 0 and data[p] in b" \t\x1f":
            p -= 1
        if p >= 0 and data[p] not in _LINE_BREAKS:  # a '>' inside a sequence line
            at = data.find(b">", at + 1)
            continue
        eol = _LINE_BREAK_RE.search(data, at)
        end = eol.start() if eol else len(data)
        yield at, end
        at = data.find(b">", end)


class _Bases:
    """The base codes of the record being read, gathered in one array.

    start(room) readies the array for a record of up to `room` bases, the
    size of the source left to read (one base per byte of text), so a
    record never outgrows it unless that size was unknown or short; then
    it doubles. take() hands the array over, trimmed in place, when the
    record fills at least half of it, and otherwise copies the bases out
    and keeps the array for the next record.
    """

    def __init__(self):
        self.array = np.empty(0, dtype=np.uint8)
        self.size = 0

    def start(self, room: int) -> None:
        self.size = 0
        if room > self.array.size:
            self.array = np.empty(room, dtype=np.uint8)

    def add(self, codes: np.ndarray) -> None:
        end = self.size + codes.size
        if end > self.array.size:
            self.array.resize(max(end, 2 * self.array.size), refcheck=False)
        self.array[self.size : end] = codes
        self.size = end

    def take(self) -> np.ndarray:
        if 2 * self.size < self.array.size:
            return self.array[: self.size].copy()
        bases, self.array = self.array, np.empty(0, dtype=np.uint8)
        bases.resize(self.size, refcheck=False)
        return bases


def parse_fasta(source) -> list[FastaRecord]:
    """Parse FASTA text into records, cleaning each sequence.

    Lines are those of str.splitlines, stripped of whitespace; empty ones
    are skipped. A line starting with '>' is a header whose stripped rest is
    the record id; the lines up to the next header are its sequence.

    The text is read as ASCII bytes: non-ASCII bytes are dropped symbols,
    and non-ASCII characters of str input first become the ASCII character
    parse_fasta treats them like. It is read in chunks of whole lines
    (FASTA_CHUNK characters, extended to the end of a line), so the text
    is never held whole. Each piece of a record body in a chunk is one
    bytes.translate to base codes with whitespace and line breaks deleted,
    copied into the record's one base array; only a piece holding a symbol
    to drop or a \x1f is compressed and counted first. The base array is
    sized from what is left of the source, so a one-record file is read
    into it without growing and parsing peaks at about one byte per base.

    Args:
        source: bytes (read as ASCII, each other byte a replacement
            character), str, or a file-like object yielding either.

    Returns:
        One ``FastaRecord`` per header, in file order. Sequence lines are
        concatenated and upper-cased; whitespace inside them is skipped and
        any other non-ACGT symbol is dropped and counted per record. Each
        record's bases are a writable uint8 array of its own.

    Raises:
        FastaError: empty input, sequence data before the first header, a
            header with an empty id, or a record with zero valid symbols,
            whichever comes first in the text.
    """
    size = _source_size(source)
    records: list[FastaRecord] = []
    bases = _Bases()
    header, dropped = None, 0  # id and dropped symbols of the record being read

    def add(body: bytes) -> None:
        nonlocal dropped
        if header is None:
            if body.translate(None, _BLANK):
                raise FastaError("sequence data before first '>' header")
            return
        packed = body.translate(_CODE_TABLE, _SKIPPED)
        codes = np.frombuffer(packed, dtype=np.uint8)
        if 255 in packed:  # a symbol to drop or a \x1f
            if 0x1F in body:  # whether a \x1f is dropped depends on its line
                codes = np.frombuffer(body.translate(_FASTA_TABLE), dtype=np.uint8)
            dropped += int(np.count_nonzero(codes == 255)) + _inner_separators(codes)
            codes = codes[codes <= 3]
        bases.add(codes)

    def finish() -> None:
        if bases.size == 0:
            raise FastaError(f"record {header!r} has no valid ACGT symbols")
        records.append(FastaRecord(id=header, seq=DnaSeq(
            bases=bases.take(), source_id=header, dropped_count=dropped)))

    offset = 0  # of the chunk in the source
    for data, text in _line_chunks(source):
        start = 0
        for at, end in _header_lines(data):
            add(data[start:at])
            if header is not None:
                finish()
            if text is None:
                header = data[at + 1 : end].decode("ascii", errors="replace").strip()
            else:
                header = text[at + 1 : end].strip()
            if not header:
                raise FastaError("FASTA header line with empty id")
            dropped = 0
            bases.start(max(FASTA_CHUNK, size - offset - end))
            start = end
        offset += len(data)
        body = data[start:]
        del data, text  # hold one chunk at a time: its body, then the next
        add(body)
        del body
    if header is None:
        raise FastaError("empty FASTA input")
    finish()
    return records


def parse_fasta_file(path) -> list[FastaRecord]:
    with open(path, "rb") as fh:
        return parse_fasta(fh)


def reverse_complement(s: DnaSeq) -> DnaSeq:
    """Reverse-complement: output[i] = complement(s[length-1-i])."""
    rc = 3 - s.bases[::-1]
    return DnaSeq(bases=rc, source_id=s.source_id, dropped_count=s.dropped_count)


def _cache_path(cache_dir: Path, accession: str) -> Path:
    if not re.fullmatch(r"[A-Za-z0-9._-]+", accession):
        raise FetchError(f"accession {accession!r} contains unsafe characters")
    return cache_dir / f"{accession}.fasta"


def fetch_sequence(
    accession: str,
    endpoint: str = DEFAULT_ENDPOINT,
    cache_dir=None,
    timeout: float = 60.0,
) -> FastaRecord:
    """Fetch a sequence by accession, caching the raw FASTA on disk.

    The URL is ``endpoint`` with ``/accession`` appended. A cached copy (keyed
    by accession) bypasses the network entirely. The PALINSCAN_CACHE
    environment variable, when set, overrides ``cache_dir``; the fallback is
    ``~/.cache/palinscan``. Writes go through a temp file plus atomic rename.

    Raises:
        FetchError: network failure with no cached copy, or unknown accession.
        FastaError: response body is not parseable FASTA.
    """
    env_dir = os.environ.get(CACHE_ENV_VAR)
    if env_dir:
        cache_dir = Path(env_dir)
    elif cache_dir is not None:
        cache_dir = Path(cache_dir)
    else:
        cache_dir = Path.home() / ".cache" / "palinscan"
    cache_dir.mkdir(parents=True, exist_ok=True)

    path = _cache_path(cache_dir, accession)
    if path.exists():
        raw = path.read_bytes()
    else:
        url = endpoint.rstrip("/") + "/" + accession
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            raise FetchError(f"accession {accession!r} not found: HTTP {exc.code}") from exc
        except urllib.error.URLError as exc:
            raise FetchError(f"cannot reach {url}: {exc.reason}") from exc
        if not raw.strip():
            raise FetchError(f"empty response body for accession {accession!r}")
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".part")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    records = parse_fasta(raw)
    return records[0]
