"""Sequence ingestion: FASTA parsing, remote fetch with caching, complements.

Sequences are stored as uint8 code arrays over the fixed alphabet A=0, C=1,
G=2, T=3, so that the complement of code ``c`` is ``3 - c``. Text becomes
codes through one byte table with ``bytes.translate``; parse_fasta reads
ASCII bytes and makes each clean record body its base array in that one
pass.
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
# symbol inside a line. Record bodies are translated through _CODE_TABLE with
# _SKIPPED deleted; only a body holding \x1f needs the line structure, read
# from its _FASTA_TABLE codes: bases 0..3 and dropped symbols 255 as in
# _CODE, then one code each for line breaks, other skipped whitespace and
# \x1f.
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


def parse_fasta(source) -> list[FastaRecord]:
    """Parse FASTA text into records, cleaning each sequence.

    Lines are those of str.splitlines, stripped of whitespace; empty ones
    are skipped. A line starting with '>' is a header whose stripped rest is
    the record id; the lines up to the next header are its sequence.

    The text is read as ASCII bytes with no line split: non-ASCII bytes are
    dropped symbols, and non-ASCII characters of str input first become the
    ASCII character parse_fasta treats them like. Each record body is one
    bytes.translate to base codes with whitespace and line breaks deleted,
    which is the base array itself unless the body holds a symbol to drop
    or a \x1f; only such a body is compressed and counted.

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
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        text, data = None, source
    else:
        # one ASCII byte per character, so offsets into data are offsets into text
        text = source
        ascii_text = text if text.isascii() else _NON_ASCII_RE.sub(_ascii_stand_in, text)
        data = ascii_text.encode("ascii")

    headers: list[tuple[int, int]] = []  # offset of each header's '>', end of its line
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
        headers.append((at, end))
        at = data.find(b">", end)

    if data[: headers[0][0] if headers else len(data)].translate(None, _BLANK):
        raise FastaError("sequence data before first '>' header")
    if not headers:
        raise FastaError("empty FASTA input")
    records: list[FastaRecord] = []
    view = memoryview(data)
    for k, (at, end) in enumerate(headers):
        if text is None:
            header = data[at + 1 : end].decode("ascii", errors="replace").strip()
        else:
            header = text[at + 1 : end].strip()
        if not header:
            raise FastaError("FASTA header line with empty id")
        body = bytearray(view[end : headers[k + 1][0] if k + 1 < len(headers) else len(data)])
        packed = body.translate(_CODE_TABLE, _SKIPPED)
        bases = np.frombuffer(packed, dtype=np.uint8)
        dropped = 0
        if 255 in packed:  # a symbol to drop or a \x1f
            codes = bases
            if 0x1F in body:  # whether a \x1f is dropped depends on its line
                codes = np.frombuffer(body.translate(_FASTA_TABLE), dtype=np.uint8)
            bases = codes[codes <= 3]
            dropped = int(np.count_nonzero(codes == 255)) + _inner_separators(codes)
        if bases.size == 0:
            raise FastaError(f"record {header!r} has no valid ACGT symbols")
        records.append(FastaRecord(id=header, seq=DnaSeq(
            bases=bases, source_id=header, dropped_count=dropped)))
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
