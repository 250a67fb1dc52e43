"""Sentence-matrix streams: line-delimited JSON with sorted keys.

The first line of a stream is a ``meta`` record echoing the
configuration and naming the binary matrix sidecar, if any.  Every other
line is one record whose matrix is inline, as nested arrays under
``"matrix"``, or an offset into the sidecar under ``"matrix_ref"``.

Both ends of the inline format live here.  ``write_record`` encodes each
distinct row once per run and splices the row texts into the line, whose
bytes stay those of ``json.dumps`` on the whole record.  ``read_stream``
walks each line key by key and leaves an inline matrix undecoded until it
has found its row texts.  A row text seen before, on any line of any
stream sharing the ``rows`` cache, is looked up by a digest of the text;
the rows a line has not seen before are decoded together.  An inline
matrix must be a non-empty list of equal-length, non-empty rows of JSON
numbers (not strings, booleans, null, NaN or Infinity), and an integer
must fit a float64.  Each record
gets its own read-only float64 matrix, bit-equal to
``np.asarray(json.loads(line)["matrix"], dtype=np.float64)``.
"""

import hashlib
import json
import os
import re

import numpy as np

from .errors import ParseError

_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
# The bytes a row text of JSON numbers may hold besides its brackets.
# Strings, true, false, null and Python's NaN and Infinity all need others.
_NUMBER_BYTES = b"0123456789+-.eE, \t\n\r"


def jsonl_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _matrix_json(matrix, row_text: dict) -> str:
    """``json.dumps(matrix.tolist())`` in compact form, encoding each
    distinct row once: ``row_text`` maps a row's bytes to its JSON text.
    Bytes, not values, key it, so ``-0.0`` and ``0.0`` stay apart."""
    texts = []
    for row in matrix:
        key = row.tobytes()
        text = row_text.get(key)
        if text is None:
            text = row_text[key] = json.dumps(row.tolist(), separators=(",", ":"))
        texts.append(text)
    return "[" + ",".join(texts) + "]"


def write_record(fh, record: dict, matrix, sidecar_fh, row_text: dict) -> None:
    """Write one stream line carrying ``matrix``: inline as nested arrays,
    or as an offset into the open binary sidecar when one is being
    written.  An inline line is byte-identical to ``jsonl_line`` of the
    record with ``matrix.tolist()`` under ``"matrix"``."""
    if sidecar_fh is not None:
        from .binio import write_array

        offset, nbytes = write_array(sidecar_fh, matrix)
        ref = {"offset": offset, "nbytes": nbytes}
        fh.write(jsonl_line({**record, "matrix_ref": ref}) + "\n")
        return
    fields = {key: jsonl_line(value) for key, value in record.items()}
    fields["matrix"] = _matrix_json(matrix, row_text)
    fh.write("{" + ",".join(f"{jsonl_line(k)}:{fields[k]}" for k in sorted(fields)) + "}\n")


def _row_spans(line: str, pos: int):
    """The (start, end) spans of the row texts of the list of lists at
    ``line[pos]``, and the end of that list; None when the value there is
    not a non-empty list of lists.  A row text runs to the first ``]``
    after its ``[``, so inside a nested array or a string holding ``]``
    it is cut short; ``_decode_rows`` rejects such a text."""
    if not line.startswith("[", pos):
        return None
    spans = []
    while True:
        start = _WS.match(line, pos + 1).end()
        end = line.find("]", start) + 1
        if not (end and line.startswith("[", start)):
            return None
        spans.append((start, end))
        pos = _WS.match(line, end).end()
        if line.startswith("]", pos):
            return spans, pos + 1
        if not line.startswith(",", pos):
            return None


def _decode_line(line: str):
    """``json.loads(line)``, except that in an object line a ``matrix``
    value that is a list of lists is not decoded: it comes back as the
    spans of its row texts.  Returns (value, spans or None).

    A line the key-by-key walk cannot read goes to ``json.loads``, which
    raises where the line is not JSON; a matrix it decodes is never a
    valid one, since a valid one always scans.
    """
    if line.startswith("{"):
        try:
            return _walk_object(line)
        except json.JSONDecodeError:
            pass
    return json.loads(line), None


def _walk_object(line: str):
    obj, spans = {}, None
    pos = _WS.match(line, 1).end()
    if line.startswith("}", pos):
        pos += 1
    else:
        while True:
            key, pos = _DECODER.raw_decode(line, pos)
            pos = _WS.match(line, pos).end()
            if not (isinstance(key, str) and line.startswith(":", pos)):
                raise json.JSONDecodeError("Expecting a key and ':'", line, pos)
            pos = _WS.match(line, pos + 1).end()
            scanned = _row_spans(line, pos) if key == "matrix" else None
            if scanned is None:
                obj[key], pos = _DECODER.raw_decode(line, pos)
                if key == "matrix":
                    spans = None
            else:
                spans, pos = scanned
                obj[key] = None
            pos = _WS.match(line, pos).end()
            if line.startswith(",", pos):
                pos = _WS.match(line, pos + 1).end()
            elif line.startswith("}", pos):
                pos += 1
                break
            else:
                raise json.JSONDecodeError("Expecting ',' delimiter", line, pos)
    if _WS.match(line, pos).end() != len(line):
        raise json.JSONDecodeError("Extra data", line, pos)
    return obj, spans


def _decode_rows(texts, line: str):
    """One float64 array of the row texts ``texts`` (bytes) of ``line``,
    decoded together.  Raises ``json.JSONDecodeError`` when ``line`` is
    not valid JSON, and ValueError or OverflowError when the rows are not
    equal-length, non-empty lists of numbers that fit a float64."""
    if any(text.translate(None, _NUMBER_BYTES) != b"[]" for text in texts):
        json.loads(line)  # raises where the line is not valid JSON
        raise ValueError("a row is not a list of numbers")
    values = json.loads(b"[" + b",".join(texts) + b"]")
    if not all(values):
        raise ValueError("a row is empty")
    return np.asarray(values, dtype=np.float64)


def _pack(line: str, spans, rows: dict):
    """The read-only float64 matrix of the row texts at ``spans``.

    ``rows`` maps the digest of a row text to a view of that row in the
    first matrix that held it.  The texts not in it are decoded together
    (``_decode_rows``) and then added to it.
    """
    texts = [line[s:e].encode() for s, e in spans]
    keys = [hashlib.blake2b(text, digest_size=16).digest() for text in texts]
    fresh = {}
    for key, text in zip(keys, texts):
        if key not in rows and key not in fresh:
            fresh[key] = text
    if len(fresh) == len(keys):
        # every row is new and distinct, so the batch is the matrix
        matrix = _decode_rows(list(fresh.values()), line)
    else:
        if fresh:
            fresh = dict(zip(fresh, _decode_rows(list(fresh.values()), line)))
        matrix = np.stack([rows[key] if key in rows else fresh[key] for key in keys])
    matrix.flags.writeable = False
    for key, row in zip(keys, matrix):
        if key in fresh:
            rows.setdefault(key, row)
    return matrix


def read_stream(path, rows: dict):
    """Read one JSONL stream; returns (meta record or None, data records).

    An inline ``matrix`` is packed into one read-only float64 array as its
    line is read, each distinct row text decoded once per ``rows`` cache
    (see ``_pack``), so the decoded values of only one line's new rows are
    alive at a time.
    """
    meta = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, spans = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise ParseError("not valid JSON", path=str(path), line=lineno) from exc
            matrix = None
            if spans is not None:
                try:
                    matrix = _pack(line, spans, rows)
                except json.JSONDecodeError as exc:
                    raise ParseError("not valid JSON", path=str(path), line=lineno) from exc
                except (ValueError, OverflowError) as exc:
                    matrix = exc
            if not isinstance(obj, dict):
                raise ParseError("record is not a JSON object", path=str(path), line=lineno)
            for key in ("id", "source"):
                if key in obj and not isinstance(obj[key], str):
                    raise ParseError(f"{key!r} is not a string", path=str(path), line=lineno)
            if "meta" in obj:
                if not isinstance(obj["meta"], dict):
                    raise ParseError("'meta' is not a JSON object", path=str(path), line=lineno)
                if meta is None:
                    meta = obj["meta"]
                continue
            if "matrix" in obj:
                if not isinstance(matrix, np.ndarray):
                    raise ParseError(
                        f"record {obj.get('id')!r}: 'matrix' is not a numeric array",
                        path=str(path),
                    ) from matrix
                obj["matrix"] = matrix
            records.append(obj)
    return meta, records


class MatrixSource:
    """Resolves a record's matrix, inline or via the stream's sidecar."""

    def __init__(self, stream_path, meta):
        self.stream_path = str(stream_path)
        self.sidecar_name = (meta or {}).get("matrix_file")
        if not isinstance(self.sidecar_name, (str, type(None))):
            raise ParseError("meta 'matrix_file' is not a string", path=self.stream_path)
        self.fh = None

    def matrix(self, record):
        if "matrix" in record:
            return record["matrix"]  # packed by read_stream
        ref = record.get("matrix_ref")
        if ref is None:
            raise ParseError(
                f"record {record.get('id')!r} carries neither 'matrix' nor 'matrix_ref'",
                path=self.stream_path,
            )
        offset = ref.get("offset") if isinstance(ref, dict) else None
        if type(offset) is not int or offset < 0:
            raise ParseError(
                f"record {record.get('id')!r}: 'matrix_ref' is not an object "
                "with a non-negative integer 'offset'",
                path=self.stream_path,
            )
        if self.fh is None:
            if not self.sidecar_name:
                raise ParseError(
                    "stream uses 'matrix_ref' but its meta line names no matrix_file",
                    path=self.stream_path,
                )
            sidecar = os.path.join(
                os.path.dirname(os.path.abspath(self.stream_path)), self.sidecar_name
            )
            self.fh = open(sidecar, "rb")
        from .binio import read_array

        return read_array(self.fh, offset)

    def close(self):
        if self.fh is not None:
            self.fh.close()
