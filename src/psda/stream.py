"""Sentence-matrix streams: line-delimited JSON with sorted keys.

``augment`` writes them and ``loss`` reads them; their format lives here
alone.  The first line of a stream is a ``meta`` record echoing the
configuration and naming the binary matrix sidecar, if any.  Every other
line is one record whose matrix is inline, as nested arrays under
``"matrix"``, or an offset into the sidecar under ``"matrix_ref"``.

``open_writer`` encodes each distinct inline row once per run and splices
the row texts into the line, whose bytes stay those of ``json.dumps`` on
the whole record.  ``read_stream`` returns every record with its matrix,
so a malformed matrix of either layout stops a reader before it uses any
record.  It decodes each distinct inline row text once per ``rows``
cache, which streams may share, and packs each record's matrix into its
own read-only float64 array, bit-equal to
``np.asarray(json.loads(line)["matrix"], dtype=np.float64)``.  An inline
matrix must be a non-empty list of equal-length, non-empty rows of JSON
numbers (not strings, booleans, null, NaN or Infinity), and an integer
must fit a float64.  A ``matrix_ref`` needs a non-negative integer
``offset`` at the start of an array in the sidecar, whose path the meta
line gives relative to the stream's directory.  ``read_pairs`` pairs each
augmented record with the original its ``source`` names.
"""

import contextlib
import hashlib
import json
import os
import re

import numpy as np

from . import binio
from .errors import ParseError, utf8_errors

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


def _named(exc: OSError, path) -> OSError:
    """``exc`` naming the output ``path`` rather than its temporary file."""
    return type(exc)(exc.errno, exc.strerror, path)


@contextlib.contextmanager
def open_writer(out, orig_out, matrix_out, config: dict):
    """Open the augmented stream ``out``, the original stream ``orig_out``
    and the binary sidecar ``matrix_out`` (either of the last two may be
    None), write both meta lines, each naming the sidecar by its path
    relative to that stream's directory, and yield (write_original,
    write_augmented), each writing one record with its matrix.  A matrix
    goes into the sidecar when there is one, and inline otherwise, where
    the line is byte-identical to ``jsonl_line`` of the record with
    ``matrix.tolist()`` under ``"matrix"``.  Without an original stream
    write_original does nothing.

    An output that is a regular file, or does not exist yet, is written
    under a temporary name beside its final one.  When the body ends
    without an exception, once all are closed, each earlier file is
    removed and the temporary one renamed into its place.  On any
    exception the temporary files are removed, so earlier files at those
    paths keep their bytes.  Any other output (a device such as
    /dev/null, a FIFO, a pipe) is opened and written as given."""
    # JSON text of each distinct inline row: every row written is a
    # vocabulary vector or a zero row, so most repeat across records
    row_text = {}
    renames = []  # (temporary path, final path, output as given)
    try:
        with contextlib.ExitStack() as stack:

            def create(path, mode, **kwargs):
                if os.path.exists(path) and not os.path.isfile(path):
                    # a device, a FIFO or a pipe: a file renamed into its
                    # place would replace the node, so it is written through
                    return stack.enter_context(open(path, "w" + mode, **kwargs))
                final = os.path.realpath(path)
                name = f".{os.path.basename(final)}.{os.urandom(4).hex()}.tmp"
                temp = os.path.join(os.path.dirname(final), name)
                try:
                    fh = stack.enter_context(open(temp, "x" + mode, **kwargs))
                except OSError as exc:
                    raise _named(exc, path) from None
                renames.append((temp, final, path))
                return fh

            sidecar_fh = create(matrix_out, "b") if matrix_out else None

            def writer(path, stream):
                if not path:
                    return lambda record, matrix: None
                matrix_file = None
                if matrix_out:
                    # relative to the stream's directory, where the reader
                    # joins it; from real paths, as ".." in the join crosses
                    # symlinks
                    stream_dir = os.path.dirname(os.path.abspath(path))
                    matrix_file = os.path.relpath(
                        os.path.realpath(matrix_out), os.path.realpath(stream_dir)
                    )
                fh = create(path, "", encoding="utf-8", newline="\n")
                meta = {"config": config, "matrix_file": matrix_file, "stream": stream}
                fh.write(jsonl_line({"meta": meta}) + "\n")

                def write(record: dict, matrix) -> None:
                    if sidecar_fh is not None:
                        offset, nbytes = binio.write_array(sidecar_fh, matrix)
                        ref = {"offset": offset, "nbytes": nbytes}
                        fh.write(jsonl_line({**record, "matrix_ref": ref}) + "\n")
                        return
                    fields = {key: jsonl_line(value) for key, value in record.items()}
                    fields["matrix"] = _matrix_json(matrix, row_text)
                    body = ",".join(f"{jsonl_line(k)}:{fields[k]}" for k in sorted(fields))
                    fh.write("{" + body + "}\n")

                return write

            write_original = writer(orig_out, "original")
            yield write_original, writer(out, "augmented")
        for temp, final, path in renames:
            try:
                # removed first, not replaced by os.replace: ext4 writes a
                # file renamed over another out to disk before the rename
                with contextlib.suppress(FileNotFoundError):
                    os.remove(final)
                os.rename(temp, final)
            except OSError as exc:
                raise _named(exc, path) from None
    finally:
        # whatever was not renamed into place
        for temp, _, _ in renames:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


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

    Every data record comes back with its matrix under ``"matrix"``, a
    read-only float64 array.  An inline matrix is packed as its line is
    read, each distinct row text decoded once per ``rows`` cache (see
    ``_pack``), so the decoded values of only one line's new rows are
    alive at a time.  The matrices under ``"matrix_ref"`` are read from
    the sidecar the meta line names once every line has been read.
    """
    path = str(path)
    meta = None
    records = []
    refs = []  # (record, offset) of each sidecar matrix
    with open(path, "r", encoding="utf-8") as fh, utf8_errors(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, spans = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise ParseError("not valid JSON", path=path, line=lineno) from exc
            matrix = None
            if spans is not None:
                try:
                    matrix = _pack(line, spans, rows)
                except json.JSONDecodeError as exc:
                    raise ParseError("not valid JSON", path=path, line=lineno) from exc
                except (ValueError, OverflowError) as exc:
                    matrix = exc
            if not isinstance(obj, dict):
                raise ParseError("record is not a JSON object", path=path, line=lineno)
            for key in ("id", "source"):
                if key in obj and not isinstance(obj[key], str):
                    raise ParseError(f"{key!r} is not a string", path=path, line=lineno)
            if "meta" in obj:
                if not isinstance(obj["meta"], dict):
                    raise ParseError("'meta' is not a JSON object", path=path, line=lineno)
                if meta is None:
                    meta = obj["meta"]
                continue
            rid = obj.get("id")
            if "matrix" in obj:
                if not isinstance(matrix, np.ndarray):
                    raise ParseError(
                        f"record {rid!r}: 'matrix' is not a numeric array", path=path
                    ) from matrix
                obj["matrix"] = matrix
            elif "matrix_ref" in obj:
                ref = obj["matrix_ref"]
                offset = ref.get("offset") if isinstance(ref, dict) else None
                if type(offset) is not int or offset < 0:
                    raise ParseError(
                        f"record {rid!r}: 'matrix_ref' is not an object "
                        "with a non-negative integer 'offset'",
                        path=path,
                    )
                refs.append((obj, offset))
            else:
                raise ParseError(
                    f"record {rid!r} carries neither 'matrix' nor 'matrix_ref'", path=path
                )
            records.append(obj)

    sidecar = (meta or {}).get("matrix_file")
    if not isinstance(sidecar, (str, type(None))):
        raise ParseError("meta 'matrix_file' is not a string", path=path)
    if refs:
        if not sidecar:
            raise ParseError(
                "stream uses 'matrix_ref' but its meta line names no matrix_file", path=path
            )
        with open(os.path.join(os.path.dirname(os.path.abspath(path)), sidecar), "rb") as fh:
            for obj, offset in refs:
                fh.seek(offset)
                if fh.read(len(binio.ARRAY_MAGIC)) != binio.ARRAY_MAGIC:
                    raise ParseError(
                        f"record {obj.get('id')!r}: 'matrix_ref' offset {offset} is not "
                        f"the start of an array in {sidecar}",
                        path=path,
                    )
                matrix = binio.read_array(fh, offset)
                matrix.flags.writeable = False
                obj["matrix"] = matrix
    return meta, records


def read_pairs(orig_path, aug_path):
    """Read an original and an augmented stream and pair their records.

    Originals are indexed by ``id``, and each augmented record is paired
    with the original its ``source`` names (its own ``id`` without one).
    Returns (augmented meta, pairs, unpaired): ``pairs`` lists
    (id, source, original matrix, augmented matrix) in augmented-stream
    order up to the first record that cannot be paired, and ``unpaired``
    is the ParseError for that record, or None when every record pairs.
    """
    # the decoded inline rows, shared by both streams: most rows of the
    # augmented stream repeat rows of the original one
    rows = {}
    _, orig_records = read_stream(orig_path, rows)
    originals = {}
    for rec in orig_records:
        rid = rec.get("id")
        if rid is None:
            raise ParseError("original record lacks an 'id'", path=str(orig_path))
        if rid in originals:
            raise ParseError(f"duplicate original id {rid!r}", path=str(orig_path))
        originals[rid] = rec["matrix"]
    aug_meta, aug_records = read_stream(aug_path, rows)
    if not aug_records:
        raise ParseError("augmented stream holds no records", path=str(aug_path))

    pairs = []
    for rec in aug_records:
        rid = rec.get("id")
        source = rec.get("source", rid)
        if source not in originals:
            return aug_meta, pairs, ParseError(
                f"augmented record {rid!r} names original {source!r}, "
                "which the original stream does not hold",
                path=str(aug_path),
            )
        pairs.append((rid, source, originals[source], rec["matrix"]))
    return aug_meta, pairs, None
