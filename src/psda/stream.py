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
record.  It reads a stream line by line and finds the row texts of a
decoded line's matrix in one scan.  Each row text is hashed once
(SHA-256 of its UTF-8 encoding), and only the texts whose digest is not
yet in the ``rows`` cache, which streams may share, are decoded, together.
Each record's matrix is filled from that cache into its own read-only
float64 array, bit-equal to
``np.asarray(json.loads(line)["matrix"], dtype=np.float64)``.  An inline
matrix must be a non-empty list of equal-length, non-empty rows of JSON
numbers (not strings, booleans, null, NaN or Infinity), and every number
must fit a finite float64: an integer too large and a literal such as
``1e999``, which JSON decoders read as an infinity, are rejected.  A
``matrix_ref`` needs a non-negative integer ``offset`` at the start of an
array in the sidecar, whose path the meta line gives relative to the
stream's directory, and that array may hold no NaN or Inf.
``read_pairs`` pairs each augmented record with the original its
``source`` names.
"""

import contextlib
import json
import os
import re
from hashlib import sha256

import numpy as np

from . import binio
from .errors import ParseError, utf8_errors

_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
# Deletes what a row text of JSON numbers may hold besides its brackets.
# Strings, true, false, null and Python's NaN and Infinity all need more.
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.eE, \t\n\r")


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
                    # the keys that sort before "matrix" and those after it,
                    # each dumped in one call, around the spliced rows
                    parts = [
                        jsonl_line({k: v for k, v in record.items() if k < "matrix"})[1:-1],
                        '"matrix":' + _matrix_json(matrix, row_text),
                        jsonl_line({k: v for k, v in record.items() if k > "matrix"})[1:-1],
                    ]
                    fh.write("{" + ",".join(part for part in parts if part) + "}\n")

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


def _row_texts(line: str, pos: int):
    """The texts inside the brackets of the rows of the list of lists at
    ``pos`` of ``line``, and the end of that list; None when the value
    there is not a non-empty list of lists.  A row runs from its ``[`` to
    the first ``]`` after it, so inside a nested array or a string holding
    ``]`` it is cut short; ``_decode_rows`` rejects such a text.
    Whitespace is matched only where a row is not opened at once by ``[``
    or followed at once by ``,`` or the closing ``]``."""
    if not line.startswith("[", pos):
        return None
    find = line.find
    texts = []
    pos += 1
    while True:
        if not line.startswith("[", pos):
            pos = _WS.match(line, pos).end()
            if not line.startswith("[", pos):
                return None
        end = find("]", pos)
        if end < 0:
            return None
        texts.append(line[pos + 1 : end])
        pos = end + 1
        sep = line[pos : pos + 1]
        if sep != "," and sep != "]":
            pos = _WS.match(line, pos).end()
            sep = line[pos : pos + 1]
        pos += 1
        if sep == "]":
            return texts, pos
        if sep != ",":
            return None


def _decode_line(line: str):
    """``json.loads(line)``, except that in an object line a ``matrix``
    value that is a list of lists is not decoded.  Returns (value, None),
    or (value, texts) with ``None`` under ``"matrix"`` and ``texts`` the
    texts inside the brackets of its rows (``_row_texts``).

    A line the walk cannot read goes to ``json.loads``, which raises
    where the line is not JSON; a matrix it decodes is never a valid
    one, since a valid one always scans.
    """
    if line.startswith("{"):
        try:
            return _walk_object(line)
        except json.JSONDecodeError:
            pass
    return json.loads(line), None


def _walk_object(line: str):
    """``_decode_line`` of an object line.  The keys before a ``matrix``
    whose rows scan are read one by one, and the keys after it in one
    ``raw_decode`` call; should those hold another ``matrix``, the last
    one counts, as in ``json.loads``, and the walk goes on key by key."""
    obj, found = {}, None
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
            scanned = _row_texts(line, pos) if key == "matrix" else None
            if scanned is None:
                obj[key], pos = _DECODER.raw_decode(line, pos)
                if key == "matrix":
                    found = None
            else:
                found, pos = scanned
                obj[key] = None
            pos = _WS.match(line, pos).end()
            if line.startswith(",", pos):
                pos = _WS.match(line, pos + 1).end()
                if scanned is not None:
                    # the keys after the matrix, decoded as one object; if
                    # they hold another "matrix" or do not end the line,
                    # the walk goes on key by key
                    tail = "{" + line[pos:]
                    rest, end = _DECODER.raw_decode(tail)
                    if rest and end == len(tail) and "matrix" not in rest:
                        obj.update(rest)
                        return obj, found
            elif line.startswith("}", pos):
                pos += 1
                break
            else:
                raise json.JSONDecodeError("Expecting ',' delimiter", line, pos)
    if _WS.match(line, pos).end() != len(line):
        raise json.JSONDecodeError("Extra data", line, pos)
    return obj, found


def _decode_rows(texts, line: str):
    """One float64 array of the row texts ``texts`` (inside their
    brackets) of ``line``, decoded together.  Raises
    ``json.JSONDecodeError`` when ``line`` is not valid JSON, ValueError
    when the rows are not equal-length, non-empty lists of numbers, and
    OverflowError when a number does not fit a finite float64."""
    joined = "[[" + "],[".join(texts) + "]]"
    # all but the brackets around each text must be number characters
    if joined.translate(_NUMBER_CHARS) != "[" + "[]" * len(texts) + "]":
        json.loads(line)  # raises where the line is not valid JSON
        raise ValueError("a row is not a list of numbers")
    values = json.loads(joined)
    if not all(values):
        raise ValueError("a row is empty")
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        # a literal such as 1e999, which the decoder reads as inf
        raise OverflowError("a number is beyond the float64 range")
    return values


def _pack(line: str, texts, rows: dict):
    """The read-only float64 matrix of the row texts ``texts`` of
    ``line``.

    ``rows`` maps the SHA-256 digest of a row text's UTF-8 encoding to a
    view of that row in the first matrix that held it.  Each text is
    hashed once; the texts not in ``rows`` are decoded together
    (``_decode_rows``) and join it, and the matrix is filled from it.
    """
    keys = [sha256(text.encode()).digest() for text in texts]
    fresh = {key: text for key, text in zip(keys, texts) if key not in rows}
    if fresh:
        rows.update(zip(fresh, _decode_rows(list(fresh.values()), line)))
    # a ValueError when the rows differ in length
    matrix = np.array([rows[key] for key in keys])
    matrix.flags.writeable = False
    if fresh:
        # views of the matrix, which its record keeps, not of the batch
        for i, key in enumerate(keys):
            if key in fresh:
                rows[key] = matrix[i]
    return matrix


def read_stream(path, rows: dict):
    """Read one JSONL stream; returns (meta record or None, data records).

    Every data record comes back with its matrix under ``"matrix"``, a
    read-only float64 array.  An inline matrix is packed as its line is
    read, each distinct row text decoded once per ``rows`` cache (see
    ``_pack``), so the decoded values of only one line's new rows are
    alive at a time.  The matrices under ``"matrix_ref"`` are read from
    the sidecar the meta line names once every line has been read.  Each
    fault of a matrix, a number beyond the float64 range inline or a NaN
    or Inf in the sidecar among them, is a ParseError naming the stream
    and the record.
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
                obj, found = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise ParseError("not valid JSON", path=path, line=lineno) from exc
            matrix = None
            if found is not None:
                try:
                    matrix = _pack(line, found, rows)
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
                if isinstance(matrix, OverflowError):
                    raise ParseError(
                        f"record {rid!r}: 'matrix' holds a number beyond the float64 range",
                        path=path,
                    ) from matrix
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
                if not np.isfinite(matrix).all():
                    raise ParseError(
                        f"record {obj.get('id')!r}: the 'matrix_ref' array in {sidecar} "
                        "holds NaN or Inf",
                        path=path,
                    )
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
