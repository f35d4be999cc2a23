"""Tables as text: CSV and JSON cells from one numpy digit grid.

_digits gives each float cell its digits and decimal exponent: the 17
nearest for CSV, the shortest that read back for JSON; _round17 takes each
power of ten with its low part and the Dekker halves of its float from one
four-row table in one take.  Each cell is a row of a byte grid holding
every character its text can have, then the cell separator: a block's
grid starts from a template row (_template), and a block writes the
digits, the separator of each row's last cell and, only where it holds a
cell in scientific form, the exponents.  A mask row for the format
(_shown), which shows the cell separator too, picks the bytes a cell
shows by its shape; the count of digits it shows comes from the 4-digit
words of its digits (_digit_counts).  Only the grid and the mask rows
outlive a block's digit stage: np.compress gathers the bytes they show a
chunk of rows at a time (_gather), each chunk decoded in place and joined
once with the rest of the table.  The blocks of a table run on one thread
per CPU.
"""

from __future__ import annotations

import json
import math
import os
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

# cells per block: bounds each thread's scratch arrays.  Gathered whole, a
# 16,384-cell block took 6 MB more peak RSS than an 8,192-cell one; gathered
# _CHUNK cells at a time, with its digit-stage arrays gone, it takes less
# scratch memory than the smaller block did, for half the numpy calls a cell
_BLOCK = 1 << 14
_CHUNK = 1 << 11  # cells per np.compress of a block: bounds its int64 index
_GRID = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000", np.uint8)  # sign, "0.000", digits and points, exponent
_DIGITS = slice(6, 39, 2)  # digit j of 17 at column 6 + 2j; column 7 + 2j is a point after it
# "0000".."9999" as 4-byte words, indexed by value
_QUADS = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1) + 48).view(np.uint32).ravel()
_QUADS.flags.writeable = False  # shared by the block threads, like _GRID and the _shown masks
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a float into two 26-bit halves
# the separator after a cell and after a row's last cell (row 0, row 1),
# and the bytes of each that are shown: CSV's, then the layout
# json.dumps(indent=2) gives a row of cells at depth 2, where a row's last
# separator leads the next row
_CSV_SEPS = np.frombuffer(b",\n", np.uint8).reshape(2, 1), np.ones((2, 1), bool)
_ROW_LEAD, _CELL_SEP = "    [\n      ", ",\n      "
_ROW_SEP = "\n    ],\n" + _ROW_LEAD
_JSON_SEPS = (
    np.frombuffer((_CELL_SEP.ljust(len(_ROW_SEP)) + _ROW_SEP).encode(), np.uint8).reshape(2, -1),
    np.arange(len(_ROW_SEP)) < np.array([[len(_CELL_SEP)], [len(_ROW_SEP)]]),
)


def _emit_table(names, columns, metadata, fmt) -> str:
    """The table as text in fmt: CSV, a header of the names and each float
    cell as format(v, ".17g"), or JSON byte-identical to
    json.dumps({"columns", "rows", "metadata"}, indent=2) + "\\n".

    columns are equal-length 1-D columns, one per name, each of one kind:
    a float ndarray, whose masked cells (np.ma) are gaps, written empty in
    CSV and null in JSON; or a label column, a list or object array of
    str, each label written as it is in CSV and as its JSON string."""
    if fmt == "csv":
        return "".join([",".join(names) + "\n", *_blocks(columns, False)])
    # the first '"rows": []' is the key itself: only the names come
    # before it, and a JSON string holds no unescaped quote
    text = json.dumps({"columns": list(names), "rows": [], "metadata": metadata}, indent=2)
    head, _, tail = text.partition('"rows": []')
    chunks = _blocks(columns, True)
    if not chunks:
        return text + "\n"
    chunks[-1] = chunks[-1][: -len(",\n" + _ROW_LEAD)]  # the last row ends at its "]"
    return "".join([head, '"rows": [\n', _ROW_LEAD, *chunks, "\n  ]", tail, "\n"])


def _json_float(v):
    """json's text of a float: float.__repr__, or NaN, Infinity, -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _blocks(columns, shortest) -> list[str]:
    """The text of the cells of columns (see _emit_table) in row order,
    each followed by its separator (row 0 of _JSON_SEPS or _CSV_SEPS, or
    row 1 after a row's last cell), as one str per _CHUNK cells of each
    block of _BLOCK cells, the blocks written by _map_blocks.

    The label table holds the text of a gap, then that of each distinct
    label of each label column, one byte row each; a table with a label or
    gap cell has a code per cell, its row in that table (-1 for a float)."""
    seps, shown = _JSON_SEPS if shortest else _CSV_SEPS
    width, rows = len(columns), len(columns[0])
    floats = [getattr(column, "dtype", None) == float for column in columns]
    gaps = [getattr(column, "mask", False) for column in columns]  # np.ma's, read without importing np.ma
    values, code = np.zeros(rows * width), None  # column j of a flat table is [j::width]
    if not all(floats) or any(map(np.any, gaps)):
        code = np.full(rows * width, -1, np.int32)
    texts = [b"null" if shortest else b""]  # code 0: a gap
    for j, column in enumerate(columns):
        if floats[j]:
            values[j::width] = column  # a masked array's data
            if np.any(gaps[j]):
                values[j::width][gaps[j]] = code[j::width][gaps[j]] = 0
        else:  # each distinct label, in one hash pass (np.unique sorts str by Python compares)
            cells = list(column)
            index = {t: k for k, t in enumerate(dict.fromkeys(cells), len(texts))}
            code[j::width] = np.fromiter(map(index.__getitem__, cells), np.int32, rows)
            texts += [(encode_basestring_ascii(t) if shortest else t).encode("utf-8", "surrogatepass") for t in index]
    sizes = np.array([len(t) for t in texts])
    table = np.frombuffer(b"".join([t.ljust(sizes.max(), b"\0") for t in texts]), np.uint8).reshape(len(texts), -1)
    S = seps.shape[1]

    def block_rows(start):
        """The byte grid and mask rows of the _BLOCK cells of values from
        start on.  A float cell _digits does not settle takes _json_float
        (JSON, the shortest digits) or format(v, ".17g") (CSV); a label or
        gap cell takes its row of the label table by its code, as a float
        cell takes its mask row by its shape.  The grid and mask rows end in
        the cell separator (_template, _shown), so only a row's last cell
        writes its own, and only a block with a cell in scientific form
        writes exponent bytes.  Every other scratch array is gone when it
        returns."""
        x = values[start : start + _BLOCK]
        c = len(x)
        N, X, sure = _digits(x, shortest)
        odd = np.flatnonzero(~(sure | (x == 0)))  # a label or gap cell holds 0.0
        fallback = [(_json_float(v) if shortest else format(v, ".17g")).encode() for v in x[odd].tolist()]
        lengths = [len(t) for t in fallback]
        W = max([_GRID.size, table.shape[1], *lengths]) + S
        grid = np.empty((c, W), np.uint8)
        grid[:] = _template(W, shortest)
        m = _write_digits(grid, N)
        last = slice((width - 1 - start) % width, None, width)  # the cells that end a row
        grid[last, -S:] = seps[1]
        sci = (X < -4) | (X > 16 - shortest)  # from 1e16 in JSON, 1e17 in CSV
        big, fixed = False, X + 4
        if sci.any():  # only a scientific cell shows its exponent
            e = np.abs(X)
            grid[:, 40:44] = _QUADS[e].view(np.uint8).reshape(c, 4)  # "0eee", its first byte the sign
            grid[:, 40] = np.where(X < 0, ord("-"), ord("+"))
            big, fixed = e >= 100, np.where(sci, 0, fixed)
        shape = (((np.signbit(x) * 2 + sci) * 2 + big) * 21 + fixed) * 17 + m - 1
        show = np.take(_shown(W, shortest).reshape(-1, W), shape, axis=0)
        show[last, -S:] = shown[1]
        if fallback:
            padded = b"".join([t.ljust(W - S, b"\0") for t in fallback])
            grid[odd, :-S] = np.frombuffer(padded, np.uint8).reshape(-1, W - S)
            show[odd, :-S] = np.arange(W - S) < np.array(lengths)[:, None]
        if code is not None:
            at = np.flatnonzero(code[start : start + c] >= 0)
            k = code[start + at]
            grid[at, : table.shape[1]] = table[k]
            show[at, :-S] = np.arange(W - S) < sizes[k][:, None]
        return grid, show

    def block(start) -> list[str]:
        """The text of the _BLOCK cells of values from start on, gathered
        from their rows a chunk at a time (_gather).  It may run on a pool
        thread and calls only numpy, json and this module's private helpers;
        the amplitude evaluation blocks (cli._by_blocks) call the package's
        public functions on the same threads, so a tracer that wraps those
        sees calls from several threads at once."""
        return _gather(*block_rows(start))

    return [text for texts in _map_blocks(block, values.size, _BLOCK) for text in texts]


def _write_digits(grid, N):
    """Write the 17 digits of each N into its grid row (columns _DIGITS),
    and give the count of N's digits through its last nonzero one (the
    head digit is shown even in a zero)."""
    # N as 5 words, the head one "000d": its first 1, 5, 9, 13 and 17 digits, each
    # less 10**4 times the one before, a row each (numpy divides by one scalar a row
    # fast); gathered by words.T, the words come out column-major, so they are copied
    words = N // 10 ** np.arange(16, -4, -4)[:, None]
    words[1:] -= 10000 * words[:-1]
    grid[:, _DIGITS] = np.ascontiguousarray(_QUADS[words.T]).view(np.uint8).reshape(len(N), 20)[:, 3:]
    words[1:] += np.arange(0, 40000, 10000)[:, None]  # word j's entries of _digit_counts
    return _digit_counts()[words[1:]].max(axis=0, initial=1)


def _gather(grid, show) -> list[str]:
    """The bytes of grid that show shows, row by row, as text: one str per
    _CHUNK rows, which bounds the index np.compress builds (8 bytes per
    byte kept).  The rows end at a cell's end, so each chunk's bytes decode
    on their own, in place."""
    return [
        str(np.compress(show[s : s + _CHUNK].ravel(), grid[s : s + _CHUNK].ravel()), "utf-8", "surrogatepass")
        for s in range(0, len(grid), _CHUNK)
    ]


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


@cache
def _powers_of_ten(j: int):
    """(hi, lo, hh, hl) for 10**k, k = 16 j .. 16 j + 15, as four rows: hi
    the float nearest 10**k, lo the float nearest 10**k - hi, so hi + lo
    holds 10**k to about 2**-106, and hh, hl Dekker's split of hi (hh +
    hl = hi, each half of 26 bits)."""
    pairs = []
    for k in range(16 * j, 16 * j + 16):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int division rounds correctly
        p, q = hi.as_integer_ratio()
        pairs.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(pairs).T
    table = np.array([hi, lo, *_split(hi)])
    table.flags.writeable = False  # shared by the block threads
    return table


def _round17(a, X):
    """For a > 0 and decimal exponent X, v = a * 10**(16 - X): the integer
    nearest v, the floor of v, where v lies within 1e-9 of a half-integer
    (so that this rounding may differ from the exact one), and v minus its
    floor.

    The product is a * hi as a float and its exact rounding error (Dekker's
    two-product; hi, lo and hi's halves come from _powers_of_ten in one
    take), plus a * lo: about 2**-100 relative, far inside 1e-9 of a
    product below 2**60.  For a in 1e-240..1e240 every term is a normal
    float.
    """
    k = 16 - X
    j0 = int(k.min()) // 16
    table = np.hstack([_powers_of_ten(j) for j in range(j0, int(k.max()) // 16 + 1)])
    hi, lo, hh, hl = np.take(table, k - 16 * j0, axis=1)
    p = a * hi
    ah, al = _split(a)
    f = np.floor(p)
    r = (p - f) + ((((ah * hh - p) + ah * hl) + al * hh) + al * hl + a * lo)
    n = np.floor(r)
    frac = r - n
    low = f.astype(np.int64) + n.astype(np.int64)
    return low + (frac >= 0.5), low, np.abs(frac - 0.5) < 1e-9, frac


def _digits(x, shortest):
    """(N, X, sure) for the floats x: the digits of |x| as one 17-digit
    integer N, zeros after the last one, its decimal exponent X, and
    whether the two settle the cell's text (N = X = 0 where they do not,
    which is also the text of a zero).

    The 17 digits (shortest false) are the integer nearest v = |x| *
    10**(16 - X), from _round17, as format(x, ".17g") writes them.  The
    shortest digits are those float.__repr__ writes: the fewest that read
    back as x, the nearest v of those (Steele & White 1990; Gay 1990).
    v's rounding to 15, then to 16 digits reads back where its distance
    from v is inside half the float's gap on that side, in units of v; a
    power of two has half the gap below that it has above, so both
    roundings are tried.  Else the 17 digits do, as half a gap is always
    more than half a unit.  A near tie or a distance within 1e-9 of half
    a gap is not settled, nor is |x| outside 1e-240..1e240, nan or inf.
    """
    a = np.abs(x)
    sure = (a >= 1e-240) & (a <= 1e240)
    a = np.where(sure, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    N, low, tie, frac = _round17(a, X)
    off = (low >= 10**17).astype(np.int64) - (low < 10**16)
    if off.any():  # log10 rounded across a power of ten
        X += off
        N, low, tie, frac = _round17(a, X)
    sure &= ~tie & (low >= 10**16) & (N < 10**17)
    if shortest:
        above = np.spacing(a) / a * (low + frac) / 2  # half the gap above |x|, in units of v
        below = np.where(a.view(np.int64) & (2**52 - 1), above, above / 2)
        step = np.array([[100], [10]])  # v's roundings to 15 and to 16 digits
        q, t = np.divmod(low, step)
        t = t + frac  # v - q step; (q + 1) step - v is step - t
        down, up = below - t, above - (step - t)  # q step, (q + 1) step read back where positive
        ok = (down > 0) | (up > 0)
        near = (np.abs(down) < 1e-9) | (np.abs(up) < 1e-9) | (np.abs(step - 2 * t) < 1e-9)
        sure &= ~(near[0] | (near[1] & ~ok[0]))
        G = (q + ((up > 0) & ~((down > 0) & (2 * t < step)))) * step  # the nearer of the two that read back
        N = np.where(ok[0], G[0], np.where(ok[1], G[1], N))
        X = X + (N == 10**17)  # rounded up to the next power of ten
        N = np.where(N == 10**17, 10**16, N)
    if sure.all():
        return N, X, sure
    return np.where(sure, N, 0), np.where(sure, X, 0), sure


@cache
def _shown(width: int, shortest: bool = False):
    """The mask row of every cell shape, a width-byte row that shows the
    cell's bytes, nothing after them, and in its last columns the cell
    separator's shown bytes (row 0 of the format's seps), indexed by sign,
    scientific form, 3-digit exponent, exponent + 4 of a fixed-form cell
    and count of significant digits - 1, in that order (the block writer
    takes the rows by their flat index).  A fixed-form cell shows its
    integer digits, and with the shortest digits (JSON) one more, the
    ".0" of an integral value."""
    seps, shown = _JSON_SEPS if shortest else _CSV_SEPS
    no_yes = [False, True]
    neg, sci, big, X, m = np.meshgrid(no_yes, no_yes, no_yes, range(-4, 17), range(1, 18), indexing="ij", sparse=True)
    q = np.where(sci, 1, np.maximum(X + 1, 0))  # digits before the point
    m = np.where(sci, m, np.maximum(m, q + shortest))  # digits shown
    lead = ~sci & (X < 0)  # "0." and -X - 1 zeros before the digits
    show = np.zeros((2, 2, 2, 21, 17, width), bool)
    show[..., 0] = neg
    show[..., 1] = show[..., 2] = lead
    show[..., 3:6] = np.arange(3) < np.where(lead, -1 - X, 0)[..., None]
    show[..., _DIGITS] = np.arange(17) < m[..., None]
    show[..., 7:38:2] = (np.arange(1, 17) == q[..., None]) & (q < m)[..., None]
    show[..., 39:41] = show[..., 42:44] = sci[..., None]
    show[..., 41] = sci & big
    show[..., -seps.shape[1] :] = shown[0]
    show.flags.writeable = False
    return show


@cache
def _template(width: int, shortest: bool):
    """The byte row a block's grid starts from: _GRID, then zeros, then
    the cell separator (row 0 of the format's seps) in the last columns."""
    seps = (_JSON_SEPS if shortest else _CSV_SEPS)[0]
    row = np.zeros(width, np.uint8)
    row[: _GRID.size] = _GRID
    row[-seps.shape[1] :] = seps[0]
    row.flags.writeable = False
    return row


@cache
def _digit_counts():
    """For word j = 1..4 of a block's N, at 10**4 (j - 1) + its value, the
    count of N's digits through that word's last nonzero one (word j holds
    digits 4 j - 2 .. 4 j + 1), or 0 for the word 0."""
    # of a word's remainders by 10, 100, 1000 and 10**4, as many are nonzero
    # as it has digits through its last nonzero one
    lengths = np.count_nonzero(np.arange(10000) % 10 ** np.arange(1, 5)[:, None], axis=0)
    counts = np.where(lengths > 0, lengths + np.arange(1, 17, 4)[:, None], 0).astype(np.uint8).ravel()
    counts.flags.writeable = False
    return counts


def _map_blocks(fn, size, block) -> list:
    """[fn(start) for start in range(0, size, block)]: the blocks of a table
    (_blocks) or of an amplitude grid (cli._by_blocks), cut by index, never
    by CPU count.  More than one block is mapped over the _block_pool
    threads, where there are any; a single block runs inline and starts no
    thread."""
    starts = range(0, size, block)
    pool = _block_pool() if len(starts) > 1 else None
    return list((pool.map if pool else map)(fn, starts))


@cache
def _block_pool():
    """The threads of _map_blocks: one thread per CPU this process may run
    on, made by the first table or amplitude grid of more than one block;
    None on one CPU, where the blocks run inline in order."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cpus, thread_name_prefix="bmlandau-table")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_block_pool.cache_clear)
