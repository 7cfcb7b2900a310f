import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickcopula import (
    InsufficientData,
    InvalidParameter,
    MalformedInput,
    TickSeries,
    load_ticks,
    save_ticks,
)
from tickcopula.cli import read_paired_csv
from tickcopula.market_data import _CHUNK_ROWS

from conftest import seeded_day


def write_csv(path, rows, header="time,price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadTicks:
    def test_constant_price_gives_equal_log_prices(self, tmp_path):
        p = write_csv(tmp_path / "ticks.csv", ["1.0,100.0", "2.0,100.0"])
        s = load_ticks(p)
        assert np.allclose(s.log_prices, math.log(100.0))

    def test_duplicate_time_rejected_with_row_index(self, tmp_path):
        p = write_csv(tmp_path / "dup.csv", ["1.0,100.0", "1.0,101.0"])
        with pytest.raises(MalformedInput, match="row 2"):
            load_ticks(p)

    def test_backward_time_rejected(self, tmp_path):
        p = write_csv(tmp_path / "bad.csv", ["1.0,100.0", "0.5,101.0", "2.0,99.0"])
        with pytest.raises(MalformedInput, match="row 2"):
            load_ticks(p)

    def test_hand_computed_logs(self, tmp_path):
        rows = [f"0.5,{math.e}", f"1.5,{math.e**2:.17g}", f"2.0,{math.e**3:.17g}"]
        s = load_ticks(write_csv(tmp_path / "e.csv", rows))
        assert np.allclose(s.log_prices, [1.0, 2.0, 3.0], atol=1e-15)

    def test_non_positive_price_rejected(self, tmp_path):
        p = write_csv(tmp_path / "neg.csv", ["1.0,100.0", "2.0,-1.0"])
        with pytest.raises(MalformedInput, match="row 2"):
            load_ticks(p)
        p2 = write_csv(tmp_path / "zero.csv", ["1.0,0.0", "2.0,1.0"])
        with pytest.raises(MalformedInput, match="row 1"):
            load_ticks(p2)

    def test_crlf_and_header_case_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"Time,Price\r\n1.0,100.0\r\n2.0,101.0\r\n")
        s = load_ticks(p)
        assert len(s) == 2

    def test_wrong_header_rejected(self, tmp_path):
        p = write_csv(tmp_path / "hdr.csv", ["1.0,100.0"], header="when,cost")
        with pytest.raises(MalformedInput, match="header"):
            load_ticks(p)

    def test_single_row_insufficient(self, tmp_path):
        p = write_csv(tmp_path / "one.csv", ["1.0,100.0"])
        with pytest.raises(InsufficientData):
            load_ticks(p)

    def test_reserialization_idempotent(self, tmp_path, rng):
        times = np.cumsum(rng.exponential(1.0, 200))
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(200)))
        rows = [f"{t:.17g},{p:.17g}" for t, p in zip(times, prices)]
        src = write_csv(tmp_path / "src.csv", rows)
        first = load_ticks(src)
        save_ticks(first, tmp_path / "gen1.csv")
        second = load_ticks(tmp_path / "gen1.csv")
        save_ticks(second, tmp_path / "gen2.csv")
        third = load_ticks(tmp_path / "gen2.csv")
        # times survive bit-for-bit immediately; values are a fixed point of
        # the save/load map after the first pass
        assert np.array_equal(first.times, second.times)
        assert np.array_equal(second.times, third.times)
        assert np.array_equal(second.log_prices, third.log_prices)
        assert np.allclose(first.log_prices, second.log_prices, rtol=0, atol=1e-15)


class TestTickSeries:
    def test_rejects_non_increasing(self):
        with pytest.raises(MalformedInput):
            TickSeries([1.0, 1.0], [0.0, 0.1])

    def test_rejects_short(self):
        with pytest.raises(InsufficientData):
            TickSeries([1.0], [0.0])

    def test_rejects_nan(self):
        with pytest.raises(MalformedInput):
            TickSeries([1.0, 2.0], [0.0, np.nan])


# Fault kinds a tick row can carry, with the message fragment load_ticks names.
ROW_FAULTS = {
    "non-numeric": "non-numeric field",
    "short": "expected 2 fields",
    "nan": "non-finite value",
    "inf": "non-finite value",
    "negative": "non-positive price",
    "zero": "non-positive price",
    "duplicate": "duplicate time",
    "backward": "non-monotone time",
}


def faulty_line(kind, t):
    """A data line with one fault of ``kind``; the previous valid time is ``t - 1``."""
    return {
        "non-numeric": f"{t},abc",
        "short": f"{t}",
        "nan": f"{t},nan",
        "inf": f"inf,{t}",
        "negative": f"{t},-1.5",
        "zero": f"{t},0",
        "duplicate": f"{t - 1.0},1.0",
        "backward": f"{t - 1.5},1.0",
    }[kind]


class TestColumnarParse:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["ok", "blank", "spaces", *ROW_FAULTS]), min_size=2, max_size=25))
    def test_names_first_offending_row(self, kinds):
        # row-by-row oracle: rows count from 1 after the header, blank lines
        # included; each line only ever refers back to the last valid time
        lines, first, prev_t, n_ok = [], None, None, 0
        for row, kind in enumerate(kinds, start=1):
            if kind in ("blank", "spaces"):
                lines.append("" if kind == "blank" else " \t ")
                continue
            t = 1.0 if prev_t is None else prev_t + 1.0
            if kind == "ok" or (prev_t is None and kind in ("duplicate", "backward")):
                # with no earlier tick a repeated or earlier time is still valid
                lines.append(f"{t},{100.0 + row}")
                prev_t, n_ok = t, n_ok + 1
                continue
            lines.append(faulty_line(kind, t))
            if first is None:
                first = (row, ROW_FAULTS[kind])
        with tempfile.TemporaryDirectory() as d:
            path = write_csv(Path(d) / "ticks.csv", lines)
            if first is None:
                if n_ok < 2:
                    with pytest.raises(InsufficientData):
                        load_ticks(path)
                else:
                    assert len(load_ticks(path)) == n_ok
                return
            with pytest.raises(MalformedInput) as info:
                load_ticks(path)
        message = str(info.value)
        assert f"row {first[0]}" in message and f"row {first[0]}0" not in message
        assert first[1] in message

    def test_value_fault_before_unparsable_row_wins(self, tmp_path):
        p = write_csv(tmp_path / "mixed.csv", ["1.0,100.0", "", "3.0,100.0", "2.0,100.0", "x,1", "4.0"])
        with pytest.raises(MalformedInput, match="non-monotone time at row 4"):
            load_ticks(p)

    def test_same_row_faults_report_non_finite_first(self, tmp_path):
        p = write_csv(tmp_path / "both.csv", ["1.0,100.0", "0.5,nan"])
        with pytest.raises(MalformedInput, match="row 2: non-finite"):
            load_ticks(p)

    def test_bom_crlf_quotes_meta_and_extra_columns(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_bytes(b'\xef\xbb\xbf# source=vendor\r\n"time","price",venue\r\n'
                      b'"1.5","100.25",X\r\n\r\n2.5,"101",Y\r\n')
        s = load_ticks(p)
        assert s.times.tolist() == [1.5, 2.5]
        assert s.log_prices.tolist() == [math.log(100.25), math.log(101.0)]

    def test_non_utf8_bytes_rejected(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time,price\n1.0,100.0\n2.0,1\xe9\n")
        with pytest.raises(MalformedInput, match="UTF-8"):
            load_ticks(p)

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MalformedInput, match="header"):
            load_ticks(empty)
        with pytest.raises(InsufficientData):
            load_ticks(write_csv(tmp_path / "hdr.csv", [""]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=2, max_size=40, unique=True),
        st.floats(-700.0, 700.0),
    )
    def test_save_load_keeps_times_bit_exact(self, raw_times, level):
        times = np.sort(np.asarray(raw_times))
        log_prices = level + np.linspace(-1.0, 1.0, times.size)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ticks.csv"
            save_ticks(TickSeries(times, log_prices), path)
            back = load_ticks(path)
        assert np.array_equal(back.times, times)
        assert np.allclose(back.log_prices, log_prices, rtol=0, atol=1e-12)


# Line kinds of a generated data section; each fault maps to the message it must raise.
LINE_FAULTS = {
    "short": "expected {k} fields",
    "word": "non-numeric field",
    "hash": "expected {k} fields",  # a "#" line after the header is one field, not metadata
    "nan": "non-finite value",
    "inf": "non-finite value",
}
READERS = {
    "ticks": (("time", "price"), "venue", MalformedInput),
    "paired": (("t1", "x", "t2", "y"), "overlap,config", InvalidParameter),
}


@st.composite
def csv_files(draw, names, extra_header):
    """``(bytes, data lines, first fault)`` of a CSV mixing every accepted quirk with row faults.

    The time columns (``time``, ``t1``, ``t2``) increase by one per row, so the
    faults are only the drawn ones; the first is ``(row, message)`` with rows
    counted from 1 after the header, blank and whitespace-only lines included.
    """
    k = len(names)
    kinds = draw(st.lists(st.sampled_from(["ok", "quoted", "extra", "blank", "spaces", *LINE_FAULTS]),
                          max_size=25))
    lines, first, t = [], None, 0.0
    for row, kind in enumerate(kinds, start=1):
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", " \t ", "\x0c", "\u00a0"])))
            continue
        t += 1.0
        values = [draw(st.floats(1e-3, 1e6)) for _ in range(k)]
        fields = [repr(t if name.startswith("t") else v) for name, v in zip(names, values)]
        if kind in ("nan", "inf", "word"):
            fields[-1] = {"nan": "nan", "inf": "inf", "word": "abc"}[kind]
        if kind == "quoted":
            fields = [f'"{f}"' for f in fields]
        line = ",".join(fields[:-1] if kind == "short" else fields) + (",X,7" if kind == "extra" else "")
        lines.append("# mid-file" if kind == "hash" else line)
        if first is None and kind in LINE_FAULTS:
            first = (row, LINE_FAULTS[kind].format(k=k))
    header = ",".join(draw(st.sampled_from([n, f'"{n}"', n.upper()])) for n in names)
    header += draw(st.sampled_from(["", "," + extra_header]))
    meta = draw(st.lists(st.sampled_from(["# source=vendor", "#  note = a b ", "#"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([*meta, header, *lines]) + draw(st.sampled_from([newline, ""]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8"), lines, first


class TestStreamingReader:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(READERS)), st.data())
    def test_arrays_or_row_numbered_error(self, kind, data):
        names, extra_header, error = READERS[kind]
        raw, lines, first = data.draw(csv_files(names, extra_header))
        kept = [line for line in lines if line.strip()]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.csv"
            path.write_bytes(raw)
            read = load_ticks if kind == "ticks" else read_paired_csv
            if first is not None:
                with pytest.raises(error) as info:
                    read(path)
                assert f"row {first[0]}" in str(info.value) and f"row {first[0]}0" not in str(info.value)
                assert first[1] in str(info.value)
                return
            if len(kept) < (2 if kind == "ticks" else 1):
                with pytest.raises(InsufficientData if kind == "ticks" else InvalidParameter):
                    read(path)
                return
            got = read(path)
        want = np.loadtxt(kept, delimiter=",", usecols=range(len(names)), ndmin=2, quotechar='"',
                          comments=None).T
        if kind == "ticks":
            assert np.array_equal(got.times, want[0])
            assert np.array_equal(got.log_prices, np.log(want[1]))
        else:
            for name, column in zip(names, want):
                assert np.array_equal(getattr(got, name), column)


# SHA-256 of save_ticks output: the first n ticks of a seeded Poisson series.
# The counts straddle one writer chunk of 4096 rows; 2 is the shortest series.
TICKS_SHA256 = {
    2: "e4afd6fc4abe0440e9f6317085cfe63cd4eb544efc86228ff948306c633b35c5",
    4095: "61ead6c3ddfb6d0d16c76dab30c3d2c52da65f1ac9f06bccd16561ebbb9fece5",
    4096: "6905f9a1b4ccfcfc8c7d38f4cff6c62318ae9104b76c4dbb16d2e8deb193ae9a",
    4097: "df921da08cb46d52a26ad547b056e48f224d2e73c921f9a57cb66d82ec141fdf",
}


class TestSaveTicksBytes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log_price, row", [(800.0, 3), (-800.0, 2)], ids=["inf", "zero"])
    def test_unwritable_price(self, tmp_path, log_price, row):
        # exp(800) is inf and exp(-800) is 0: load_ticks would reject either
        log_prices = np.zeros(5)
        log_prices[row - 1:] = log_price
        series = TickSeries(np.arange(5.0), log_prices)
        with pytest.raises(InvalidParameter, match=f"tick {row} at time {row - 1.0!r}"):
            save_ticks(series, tmp_path / "t.csv")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", [2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_frozen_digest(self, tmp_path, n):
        a, _ = seeded_day()
        save_ticks(TickSeries(a.times[:n], a.log_prices[:n]), tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == TICKS_SHA256[n]
