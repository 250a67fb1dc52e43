"""Tests for the stream reader: each inline matrix it packs is bit-equal
to a plain ``json.loads`` of its line, whatever the whitespace, the line
ends, the non-ASCII text or the other ``"matrix"`` keys around it, however
its rows repeat, and the malformed matrices it rejects are told apart
from lines that are not JSON; each sidecar matrix is bit-equal to the
array stored there; numbers beyond float64 and NaN or Inf in the sidecar
are rejected."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psda import binio
from psda.errors import ParseError
from psda.stream import read_stream

# Entries whose text or bits are easy to get wrong: both zeros, the
# smallest subnormal, the float64 limits, 17 significant digits, ints.
SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           0.30000000000000004, -1.2345678901234567e-5, 0, -7, 2**53 + 1, 10**20]
ENTRIES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**30), max_value=10**30),
)
# JSON whitespace that keeps a line one line: "\n" and "\r" end it.
GAPS = ["", " ", "\t", "  ", " \t "]


def reference(line: str) -> np.ndarray:
    return np.asarray(json.loads(line)["matrix"], dtype=np.float64)


def spaced(value, rnd: random.Random, decoy=None) -> str:
    """JSON text of ``value`` with random whitespace around every token,
    object keys in random order and strings written as they are, not
    escaped to ASCII.  With a ``decoy``, a top-level object gains a
    second ``"matrix"`` key holding it, before its own one, which
    ``json.loads`` keeps as the last."""

    def gap():
        return rnd.choice(GAPS)

    def item(key, v):
        return f"{gap()}{json.dumps(key, ensure_ascii=False)}{gap()}:{gap()}{spaced(v, rnd)}{gap()}"

    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        items = [item(k, value[k]) for k in keys]
        if decoy is not None:
            own = keys.index("matrix") if "matrix" in keys else len(keys)
            items.insert(rnd.randint(0, own), item("matrix", decoy))
        return "{" + (",".join(items) or gap()) + "}"
    if isinstance(value, list):
        return "[" + gap() + f"{gap()},{gap()}".join(spaced(v, rnd) for v in value) + gap() + "]"
    return json.dumps(value, ensure_ascii=False)


# Strings that need more than one UTF-8 byte a character, so that byte
# and character offsets part before the matrix; surrogates have no UTF-8.
LABELS = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x80, max_codepoint=0xD7FF),
        st.characters(min_codepoint=0xE000),
    )
)


@st.composite
def streams(draw):
    """Two streams drawing their rows from one pool, so rows repeat within
    a record, across records and across the streams.  Records carry
    non-ASCII labels, some a ``"matrix"`` key nested in another value,
    and some a second top-level ``"matrix"`` key (a decoy) before their
    own; the streams end their lines with LF or CRLF."""
    dim = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), min_size=1, max_size=6))
    rows = st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=5)
    out = []
    for name in ("orig", "aug"):
        picks = draw(st.lists(rows, min_size=1, max_size=4))
        records = [{"meta": {"stream": name}}]
        decoys = [None]
        for i, p in enumerate(picks):
            record = {"id": f"{name}{i}", "tokens": ["a]", "[b", "{c}"] * len(p),
                      "label": draw(LABELS), "matrix": [pool[k] for k in p]}
            if draw(st.booleans()):
                record["extra"] = {"matrix": [pool[k] for k in draw(rows)], "n": len(p)}
            records.append(record)
            decoys.append([pool[k] for k in draw(rows)] if draw(st.booleans()) else None)
        out.append((records, decoys, draw(st.sampled_from(["\n", "\r\n"]))))
    return out


@settings(max_examples=150, deadline=None)
@given(data=streams(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_packed_matrices_are_bit_equal_to_json_loads(tmp_path_factory, data, seed):
    rnd = random.Random(seed)
    root = tmp_path_factory.mktemp("streams", numbered=True)
    rows = {}
    for n, (records, decoys, newline) in enumerate(data):
        lines = [
            rnd.choice(GAPS) + spaced(rec, rnd, decoy) + rnd.choice(GAPS)
            for rec, decoy in zip(records, decoys)
        ]
        path = root / f"s{n}.jsonl"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        meta, got = read_stream(path, rows)
        assert meta == records[0]["meta"]
        assert len(got) == len(lines) - 1
        for line, rec, record in zip(lines[1:], got, records[1:]):
            want = reference(line)
            assert rec["matrix"].dtype == np.float64
            assert rec["matrix"].shape == want.shape
            assert rec["matrix"].tobytes() == want.tobytes()
            assert not rec["matrix"].flags.writeable
            assert {k: v for k, v in rec.items() if k != "matrix"} == {
                k: v for k, v in record.items() if k != "matrix"
            }


@pytest.mark.parametrize(
    "matrix, message",
    [
        ('[["]", 1.0]]', "not a numeric array"),
        ('[[1.0, {"a": [2.0]}]]', "not a numeric array"),
        ('[[1.0, [2.0]]]', "not a numeric array"),
        ('[[1.0], 2.0]', "not a numeric array"),
        ('[[1.0, 2.0]', "not valid JSON"),
        ('[[1.0,, 2.0]]', "not valid JSON"),
        ('[[1.0, 2.0] [3.0, 4.0]]', "not valid JSON"),
        ('[[1.0, "2.0]]', "not valid JSON"),
        # JSON decoders read these as infinities, or fail to convert them
        ("[[1.0, 1e999]]", "record 'x': 'matrix' holds a number beyond the float64 range"),
        ("[[2.0], [-1E400]]", "record 'x': 'matrix' holds a number beyond the float64 range"),
        ("[[1" + "0" * 400 + "]]", "record 'x': 'matrix' holds a number beyond the float64 range"),
    ],
)
def test_malformed_matrix_is_told_from_invalid_json(tmp_path, matrix, message):
    path = tmp_path / "s.jsonl"
    path.write_text('{"meta": {}}\n{"id": "x", "matrix": ' + matrix + "}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        read_stream(path, {})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_sidecar_values_are_rejected(tmp_path, value):
    bad = np.ones((2, 3))
    bad[1, 2] = value
    with open(tmp_path / "m.bin", "wb") as fh:
        offsets = [binio.write_array(fh, m)[0] for m in (np.ones((2, 3)), bad)]
    lines = [{"meta": {"matrix_file": "m.bin"}}] + [
        {"id": f"r{i}", "matrix_ref": {"offset": off}} for i, off in enumerate(offsets)
    ]
    path = tmp_path / "s.jsonl"
    path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_stream(path, {})
    assert str(info.value) == (
        f"{path}: record 'r1': the 'matrix_ref' array in m.bin holds NaN or Inf"
    )


def test_rows_are_shared_across_streams_and_read_only(tmp_path):
    rows = {}
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_text('{"id":"a","matrix":[[1.5,2.0],[0.0,1.0]]}\n', encoding="utf-8")
    second.write_text('{"id":"b","matrix":[[0.0,1.0],[1.5,2.0],[-0.0,1.0]]}\n', encoding="utf-8")
    (a,) = read_stream(first, rows)[1]
    (b,) = read_stream(second, rows)[1]
    assert len(rows) == 3
    # each record owns its matrix; the cache only views the first holder
    assert not np.shares_memory(a["matrix"], b["matrix"])
    assert np.shares_memory(rows[next(iter(rows))], a["matrix"])
    assert b["matrix"][2].tobytes() == np.array([-0.0, 1.0]).tobytes()
    with pytest.raises(ValueError):
        b["matrix"][0, 0] = 7.0


def test_sidecar_matrices_are_read_next_to_the_stream(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
    home.mkdir()
    elsewhere.mkdir()
    with open(home / "m.bin", "wb") as fh:
        offsets = [binio.write_array(fh, rng.normal(size=(n, 3)))[0] for n in (2, 5, 1)]
    # a sidecar of the same name in the working directory must not be read
    (elsewhere / "m.bin").write_bytes((home / "m.bin").read_bytes()[::-1])
    lines = [{"meta": {"matrix_file": "m.bin"}}] + [
        {"id": f"r{i}", "matrix_ref": {"offset": off}} for i, off in enumerate(offsets)
    ]
    (home / "s.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    monkeypatch.chdir(elsewhere)
    _, records = read_stream("../home/s.jsonl", {})
    with open(home / "m.bin", "rb") as fh:
        for rec, off in zip(records, offsets, strict=True):
            want = binio.read_array(fh, off)
            assert rec["matrix"].dtype == np.float64
            assert rec["matrix"].tobytes() == want.tobytes()
            assert rec["matrix"].shape == want.shape
            assert not rec["matrix"].flags.writeable
