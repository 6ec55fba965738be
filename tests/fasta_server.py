"""A local HTTP endpoint for fetch tests: each accession, the last path
segment of a GET, picks one server behaviour."""

import contextlib
import http.server
import threading

# what each partial reply sends of the Content-Length it declares
PARTIAL_BODY = b">PART1\nGAATTC"
DECLARED_LENGTH = 100


class FastaHandler(http.server.BaseHTTPRequestHandler):
    """GOOD1: a FASTA record. EMPTY1: a blank body. HTML1: a 200 page that
    is not FASTA. SHORT1: declares DECLARED_LENGTH bytes, sends
    PARTIAL_BODY and closes. STALL1: the same, but holds the connection
    open until ``release`` is set. Anything else: 404. ``hits`` counts
    requests."""

    hits = 0
    release = threading.Event()

    def do_GET(self):
        type(self).hits += 1
        accession = self.path.rsplit("/", 1)[-1]
        if accession == "GOOD1":
            self._send(b">GOOD1 test record\nGAATTCACGT\n")
        elif accession == "EMPTY1":
            self._send(b"  \n")
        elif accession == "HTML1":
            self._send(b"<html>rate limited</html>")
        elif accession in ("SHORT1", "STALL1"):
            self.send_response(200)
            self.send_header("Content-Length", str(DECLARED_LENGTH))
            self.end_headers()
            self.wfile.write(PARTIAL_BODY)
            self.wfile.flush()
            if accession == "STALL1":
                self.release.wait(30)
        else:
            self.send_error(404)

    def _send(self, body: bytes) -> None:
        self.send_response(200)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving():
    """Serve FastaHandler on a free local port, with its counter reset;
    yields the endpoint URL that fetch_sequence appends accessions to."""
    FastaHandler.hits = 0
    FastaHandler.release = threading.Event()
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), FastaHandler)
    # a short poll interval, so that shutdown does not wait out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/fasta"
    finally:
        FastaHandler.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
