"""Sequence ingestion: FASTA parsing and remote fetch with caching.

Sequences are stored as uint8 code arrays over the fixed alphabet A=0, C=1,
G=2, T=3, so that the complement of code ``c`` is ``3 - c``. Text is read
as bytes, str text encoded as UTF-8, and becomes codes through one byte
table with ``bytes.translate``. parse_fasta reads its source in chunks of
whole lines and translates each chunk's record bodies into one base array
per record, so the text is never held whole.

fetch_sequence reads a cached copy when there is one and loads the network
modules (urllib, http, ssl) only on a cache miss, so parsing, a scan and a
warm-cache fetch never import them. A fetched body is cached only if it
parses as FASTA, and every network failure, a timeout or a truncated body
included, is raised as FetchError.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FastaError, FetchError

ALPHABET = "ACGT"
CACHE_ENV_VAR = "PALINSCAN_CACHE"
DEFAULT_ENDPOINT = "https://www.ebi.ac.uk/ena/browser/api/fasta"

# Whitespace is what bytes.strip removes; lines end at \n, \r\n or \r,
# where bytes.splitlines splits them
_SKIPPED = b" \t\n\r\v\f"
_LINE_BREAKS = b"\n\r"
_LINE_BREAK_RE = re.compile(b"[" + _LINE_BREAKS + b"]")

# byte -> code lookup; 255 marks a symbol to drop
_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(ALPHABET):
    _CODE[ord(_c)] = _i
    _CODE[ord(_c.lower())] = _i
_CODE_TABLE = _CODE.tobytes()  # for bytes.translate, far faster than indexing

_DECODE = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)

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
        dropped_count: number of non-ACGT symbols removed during cleaning.
    """

    bases: np.ndarray
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


def _source_size(source) -> int:
    """Characters of a str or bytes-like source, or bytes of the file
    behind a file object; 0 when unknown."""
    if not hasattr(source, "read"):
        return len(source)
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _line_chunks(source):
    """The source as bytes chunks of whole lines.

    Pieces of FASTA_CHUNK characters are read in turn, a str piece encoded
    as UTF-8 and any other taken as bytes, and each is cut after its last
    line break; the rest is held and led into the next piece, so a line
    longer than a piece arrives whole. Only the last chunk may end without
    a line break.
    """
    if hasattr(source, "read"):
        # read(0) is the empty piece of the source's type, which ends the reads
        pieces = iter(lambda: source.read(FASTA_CHUNK), source.read(0))
    else:
        pieces = (source[at : at + FASTA_CHUNK] for at in range(0, len(source), FASTA_CHUNK))
    held: list = []  # pieces of the next chunk
    for piece in pieces:
        data = piece.encode("utf-8", errors="replace") if isinstance(piece, str) else bytes(piece)
        cut = max(map(data.rfind, _LINE_BREAKS)) + 1
        if not cut:  # the piece is all inside one line
            held.append(data)
            continue
        rest = data[cut:]
        if rest:
            data = memoryview(data)[:cut]
        held.append(data)
        del piece, data  # so that only the reader holds the chunk
        yield _joined(held)
        if rest:
            held.append(rest)
    if held:
        yield _joined(held)


def _joined(pieces: list) -> bytes:
    """The held pieces as one chunk; empties the list, so that a chunk is
    held by its reader alone."""
    data = b"".join(pieces)
    pieces.clear()
    return data


def _header_lines(data: bytes):
    """(offset of the '>', end of its line) of each header line in data,
    which starts at the start of a line."""
    at = data.find(b">")
    while at >= 0:
        p = at - 1
        while p >= 0 and data[p] in _SKIPPED:
            p -= 1
        if p >= 0 and not _LINE_BREAK_RE.search(data, p, at):  # a '>' inside a line
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

    The text is read as bytes, str text encoded as UTF-8. Lines end at
    \n, \r\n or \r and are stripped of the whitespace " \t\n\r\v\f";
    empty ones are skipped. A line starting with '>' is a header whose
    stripped rest, decoded as UTF-8, is the record id; the lines up to the
    next header are its sequence.

    The text is read in chunks of whole lines (FASTA_CHUNK characters,
    extended to the end of a line), so it is never held whole. Each piece
    of a record body in a chunk is one bytes.translate to base codes with
    whitespace deleted, copied into the record's one base array; only a
    piece holding a symbol to drop is compressed and counted first. The
    base array is sized from what is left of the source, so a one-record
    file is read into it without growing and parsing peaks at about one
    byte per base.

    Args:
        source: str, bytes-like, or a file-like object yielding either.

    Returns:
        One ``FastaRecord`` per header, in file order. Sequence lines are
        concatenated and upper-cased; whitespace inside them is skipped and
        every other byte outside ACGT is dropped and counted per record.
        Each record's bases are a writable uint8 array of its own.

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
            if body.strip(_SKIPPED):
                raise FastaError("sequence data before first '>' header")
            return
        packed = body.translate(_CODE_TABLE, _SKIPPED)
        codes = np.frombuffer(packed, dtype=np.uint8)
        if 255 in packed:  # a symbol to drop
            dropped += int(np.count_nonzero(codes == 255))
            codes = codes[codes <= 3]
        bases.add(codes)

    def finish() -> None:
        if bases.size == 0:
            raise FastaError(f"record {header!r} has no valid ACGT symbols")
        records.append(FastaRecord(id=header, seq=DnaSeq(bases=bases.take(),
                                                         dropped_count=dropped)))

    offset = 0  # of the chunk in the source
    for data in _line_chunks(source):
        start = 0
        for at, end in _header_lines(data):
            add(data[start:at])
            if header is not None:
                finish()
            header = data[at + 1 : end].strip(_SKIPPED).decode("utf-8", errors="replace")
            if not header:
                raise FastaError("FASTA header line with empty id")
            dropped = 0
            bases.start(max(FASTA_CHUNK, size - offset - end))
            start = end
        offset += len(data)
        body = data[start:]
        del data  # hold one chunk at a time: its body, then the next
        add(body)
        del body
    if header is None:
        raise FastaError("empty FASTA input")
    finish()
    return records


def parse_fasta_file(path) -> list[FastaRecord]:
    with open(path, "rb") as fh:
        return parse_fasta(fh)


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
    by accession) bypasses the network entirely: the network modules are
    imported only on a cache miss. The PALINSCAN_CACHE environment variable,
    when set, overrides ``cache_dir``; the fallback is ``~/.cache/palinscan``.
    A response body is cached only once it parses, through a temp file plus
    atomic rename, so a body that is not FASTA is fetched again next time. A
    cached file that does not parse is deleted and fetched again.

    Raises:
        FetchError: any network failure with no cached copy (unknown
            accession, unreachable host, timeout, truncated or empty body).
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
        try:
            return parse_fasta_file(path)[0]
        except FastaError:  # cached unparsed by an older version
            path.unlink(missing_ok=True)

    # imported on a cache miss only, so that every other path leaves the
    # network stack unloaded
    import http.client
    import tempfile
    import urllib.error
    import urllib.request

    url = endpoint.rstrip("/") + "/" + accession
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        raise FetchError(f"accession {accession!r} not found: HTTP {exc.code}") from exc
    except urllib.error.URLError as exc:
        raise FetchError(f"cannot reach {url}: {exc.reason}") from exc
    except (OSError, http.client.HTTPException) as exc:  # a timeout, a cut body
        raise FetchError(f"cannot read {url}: {exc}") from exc
    if not raw.strip():
        raise FetchError(f"empty response body for accession {accession!r}")
    record = parse_fasta(raw)[0]  # a body that does not parse is not cached

    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return record
