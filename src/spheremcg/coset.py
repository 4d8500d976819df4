"""Coset enumeration for finite presentations, HLT strategy.

Each sweep scans the subgroup generators at the base coset and every
relator at every live coset, filling the first undefined slot, with
immediate coincidence merging through a union-find.  The run ends at its
first clean sweep, one without a tick (one per definition, deduction and
merge).  It doubles as a verification pass, having re-traced every
relator cycle and subgroup generator on the table.  By induction along
each relator, every letter of a relator then has a total, bijective
column.  So an entry still open belongs to a generator y in no relator,
and the index is infinite: new points on which the relator generators
act trivially, with y running off along an infinite ray, extend the
table to an action in which the subgroup fixes coset 0 with an infinite
orbit.  The run reports that as an overflow; filling the open entries
could only have defined cosets until a limit stopped the run.  Every
presentation the package builds has each generator in a relator.

A deduction pass (Felsch-style deduction processing inside HLT) follows
every scan of a sweep.  Each table entry a coincidence writes goes on a
stack; for a stacked entry (k, c) -> t the pass traces at k, without
defining, every relator cycle (a cyclic conjugate of a relator or its
inverse) of at most six letters that begins with column c.  A gap of
one is a deduction, which is stacked in turn; a closed trace with two
different ends is a coincidence.  Definitions and scan deductions are
not stacked: the sweeps trace them anyway, and stacking them cost more
than it saved.  Each fact the pass derives is a consequence of a
relator cycle traced from a coset, the same kind of fact a scan
derives, so results stay sound; completeness still rests on the final
clean sweep.  The cycles through an entry that start at its other end
are the inverses of cycles that start with c at k, so one direction
suffices.  On the even-n <a, b> certificates the pass cuts the cosets
defined about 84-fold (5,330 instead of 449,175 at n = 12).

From n = 5 on, those are t t, t si t si, the commutators and the braid
relations.  The two relators that grow with n, the sphere relator
(2(n-1) letters) and the full twist (n(n-1)), are left to the sweeps,
which still scan every relator at every live coset.  On the even-n
<a, b> certificates their cycles gave no deduction or coincidence out
of 2,763 traced at n = 8, 7,755 at n = 12, 19,221 at n = 16 and 68,253
at n = 24, and leaving them out cut the run from 13.1 to 10.5 ms at
n = 8 and from 1.27 to 0.86 s at n = 32 on a 2-core machine.  Since
the pass is only an acceleration, this keeps results sound and
complete.

The sweeps scan a coset's relators in the presentation's order with the
braid relations, of the shape x y x Y X Y, moved to the end; the
deduction pass keeps the presentation's order.  In HLT the scan order
can change the cosets defined by large factors (Holt-Eick-O'Brien,
Handbook of Computational Group Theory, ch. 5), and here it does: the
even-n <a, b> certificates define 5,330 instead of 12,091 cosets at
n = 12, and 382,271 instead of 987,551 at n = 50.  Each scan traces a
relator from a coset whatever the order, and the run still ends on a
clean sweep, so results stay sound and complete.

Two things keep each step cheap without changing which steps run.  A
merge of y into x moves every entry y c = d of y's row to x and points
the back-pointer d c^-1 at x when it still names y, as coset-table
merges usually do (Holt-Eick-O'Brien, Handbook of Computational Group
Theory, ch. 5), so later traces through it need no union-find lookup.
And the deduction pass traces a four-letter cycle (a commutator, or
t si t si), 73-82% of its cycles at n = 10..16, with an unrolled kernel
whose outcome is the generic trace's.  Every union-find reader resolves
an entry to its root, so neither changes a step, nor the statistics of
a run, which are derived: defined is the union-find's length, and the
live cosets are that less the merges, whose peak is max_alive.  The
table holds one row per defined coset, dead ones included: each
definition appends a blank row, and a merge blanks the row it empties.

Index-1 runs close early.  Every table entry is a consequence
(H w_i g = H w_j), so a word that leads coset 0 back to itself lies in
H.  The presentation's spanning words generate its group (for the
package's presentations t, s1 and a0 = s1..s(n-1), by the lemma in the
Presentation docstring), so once each of them leads coset 0 to itself,
H is the whole group.  The check runs right after each merge into
coset 0, tracing each spanning word from coset 0 through union-find
roots; the run stops at the first merge that passes it, instead of
collapsing every remaining coset, and returns the one-row table.  With
no spanning words given, each letter of the alphabet stands for one,
and the run waits until every column of coset 0 leads back to 0.
CosetTable.verify accepts every one-row table, so an index-1 result
rests on this bookkeeping of the enumeration itself and on the spanning
lemma, not on an independent check.

Termination is not guaranteed in general (the index may be infinite);
callers bound the run by coset count and wall time and must treat
overflow as inconclusive.  The coset count (max_cosets, --max-cosets)
is the number of the table's rows, dead cosets included, so it bounds
the table's memory, four bytes a column per row, as well as the work.
"""

from __future__ import annotations

import time
from array import array
from functools import lru_cache
from typing import NamedTuple

from .presentation import Presentation
from .words import Word, format_word

UNDEF = -1
DEFAULT_MAX_COSETS, DEFAULT_MAX_TIME = 10**6, 60.0


@lru_cache(maxsize=64)
def _layout(generators: tuple[int, ...], relators: tuple[Word, ...]):
    """The table's columns for one presentation.

    The letters are each generator followed by its inverse, so column
    c ^ 1 is the inverse of column c.  Returns the letters, the column of
    each letter, the relators as columns in the order the sweeps scan
    them, and, per first column, a record of every distinct cyclic
    conjugate of a relator or its inverse, in the order the deduction
    pass traces them.  Only relators of at most six letters get records;
    the longer ones (the sphere relator from n = 5 on, the full twist
    from n = 4 on) are left to the sweeps.  The scan list is the relators in the presentation's
    order with the braid relations, of the shape x y x Y X Y, moved to
    the end (a stable sort); the records keep the presentation's order.
    A record starts with the cycle's last index.  A four-letter cycle
    c0 c1 c2 c3 is then flat: c1, c2, c3 and their inverse columns.  A
    two- or six-letter cycle carries its columns and inverts them as it
    goes.
    """
    letters = tuple(g for gen in generators for g in (gen, -gen))
    col = {letter: k for k, letter in enumerate(letters)}
    rel_cols = tuple(tuple(col[letter] for letter in rel) for rel in relators)
    buckets: list[dict[tuple, None]] = [{} for _ in letters]
    for rc in (rc for rc in rel_cols if len(rc) <= 6):
        for cols in (rc, tuple(c ^ 1 for c in reversed(rc))):
            for s in range(len(cols)):
                cycle = cols[s:] + cols[:s]
                if len(cycle) == 4:
                    rest = cycle[1:]
                    record = (3, *rest, *(c ^ 1 for c in rest))
                else:
                    record = (len(cycle) - 1, cycle)
                buckets[cycle[0]][record] = None
    scan = tuple(sorted(rel_cols, key=_is_braid))  # stable: braid last
    return letters, col, scan, tuple(tuple(bucket) for bucket in buckets)


def _is_braid(cols: tuple[int, ...]) -> bool:
    """Whether a relator, as columns, reads x y x Y X Y."""
    return len(cols) == 6 and cols[2:] == (cols[0], cols[1] ^ 1, cols[0] ^ 1, cols[1] ^ 1)


class EnumerationStats(NamedTuple):
    defined: int
    max_alive: int
    collapses: int
    seconds: float

    def counts(self) -> str:
        """The counts as `enumerate` and an overflowed index row print them."""
        return f"defined={self.defined} max_alive={self.max_alive} collapses={self.collapses}"


class CosetTable(NamedTuple):
    """Completed action of the generators on right cosets, coset 0 = subgroup."""

    letters: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, coset: int, word: Word, col: dict[int, int] | None = None) -> int:
        """The coset the word leads to from the given one; col, the column
        of each letter, is built from the letters unless given."""
        col = col or {letter: k for k, letter in enumerate(self.letters)}
        for letter in word:
            coset = self.rows[coset][col[letter]]
        return coset

    def verify(self, pres: Presentation, subgens: tuple[Word, ...]) -> bool:
        """Path-independent check of the finished table.

        It checks that the table is a permutation action in which every
        relator and subgroup generator closes.  This says nothing for a
        one-row table, where every trace returns to coset 0: an index-1
        result rests on the enumerator's bookkeeping and on the
        presentation's spanning words generating its group.
        """
        col = {letter: k for k, letter in enumerate(self.letters)}
        for row in self.rows:
            if any(not 0 <= t < len(self.rows) for t in row):
                return False
        for k, letter in enumerate(self.letters):
            kinv = col[-letter]
            for i, row in enumerate(self.rows):
                if self.rows[row[k]][kinv] != i:
                    return False
        for rel in pres.relators:
            for i in range(len(self.rows)):
                if self.trace(i, rel, col) != i:
                    return False
        return all(self.trace(0, w, col) == 0 for w in subgens)


class EnumerationResult(NamedTuple):
    status: str  # "finished" | "overflow"
    index: int | None
    table: CosetTable | None
    stats: EnumerationStats
    reason: str | None = None  # what stopped an overflowed run


class _Overflow(Exception):
    """A run stopped without a table; the message is the reason."""


class _IndexOne(Exception):
    """Every spanning word fixes coset 0: the subgroup is the whole group."""


class _Enumerator:
    def __init__(self, pres: Presentation, subgens: tuple[Word, ...],
                 max_cosets: int, max_time: float):
        self.subgens = subgens
        self.max_cosets, self.max_time = max_cosets, max_time
        self.deadline = time.monotonic() + max_time
        self.letters, self.col, self.rel_cols, self.cycles = _layout(
            pres.generators, pres.relators)
        self.width = len(self.letters)
        # no spanning words: every letter stands for one
        self.span_cols = (tuple(tuple(self.col[letter] for letter in w)
                                for w in pres.spanning)
                          or tuple((c,) for c in range(self.width)))
        self.blank_row = array("i", [UNDEF]) * self.width
        self.table = self.blank_row[:]  # coset 0's row, a copy: it grows
        self.parent = array("i", [0])
        self.stack: list[tuple[int, int]] = []
        self.max_alive = 1
        self.collapses = 0
        self.ticks = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(self, coset: int, c: int) -> int:
        new = len(self.parent)
        if new >= self.max_cosets:
            raise _Overflow(f"coset limit {self.max_cosets}")
        width = self.width
        row = new * width
        table = self.table
        # extended in place, so every reference to the table stays valid;
        # a memoryview of it would make the resize raise BufferError
        table += self.blank_row
        self.parent.append(new)
        alive = new + 1 - self.collapses
        if alive > self.max_alive:
            self.max_alive = alive
        table[coset * width + c] = new
        table[row + (c ^ 1)] = coset
        self.tick()
        return new

    def tick(self) -> None:
        """One tick per definition, deduction and merge; a sweep without one is clean."""
        self.ticks += 1
        if self.ticks % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Overflow(f"time limit {self.max_time:g}s")

    def scan(self, coset: int, cols: tuple[int, ...]) -> None:
        """Trace one relation cycle at a coset, filling as it goes.

        Forward and backward pointers advance over defined entries; the
        gap is either closed by one deduction, reported as a coincidence,
        or plugged by defining a coset at the first hole.
        """
        table, width, parent, find = self.table, self.width, self.parent, self.find
        i, j = 0, len(cols) - 1
        f = b = coset
        while True:
            while i <= j:
                t = table[f * width + cols[i]]
                if t == UNDEF:
                    break
                f = t if parent[t] == t else find(t)
                i += 1
            while j >= i:
                t = table[b * width + (cols[j] ^ 1)]
                if t == UNDEF:
                    break
                b = t if parent[t] == t else find(t)
                j -= 1
            if j < i:  # closed, by the forward trace alone or from both ends
                if f != b:
                    self.coincide(f, b)
                return
            if i == j:
                # both half-edges open: write the pair as a deduction
                table[f * width + cols[i]] = b
                table[b * width + (cols[i] ^ 1)] = f
                self.tick()
                return
            f = self.define(f, cols[i])
            i += 1

    def coincide(self, a: int, b: int) -> None:
        """Merge two cosets and every pair their rows force together,
        stacking each entry written for the deduction pass."""
        table, width, deduced = self.table, self.width, self.stack.append
        parent, find, blank_row = self.parent, self.find, self.blank_row
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if parent[x] != x:
                x = find(x)
            if parent[y] != y:
                y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            self.collapses += 1
            # y is no longer a root and the loop reads only roots' rows,
            # so y's row is taken and blanked at once
            row = y * width
            moved = table[row:row + width]
            table[row:row + width] = blank_row
            xrow = x * width
            for c, d in enumerate(moved):
                if d == UNDEF:
                    continue
                if parent[d] != d:
                    d = find(d)
                e = table[xrow + c]
                if e == UNDEF:
                    table[xrow + c] = d
                    deduced((x, c))
                elif (e if parent[e] == e else find(e)) != d:
                    stack.append((e, d))
                back = d * width + (c ^ 1)
                m = table[back]
                if m == y:
                    table[back] = x  # the back-pointer follows the merge
                elif m == UNDEF:
                    table[back] = x
                    deduced((d, c ^ 1))
                elif (m if parent[m] == m else find(m)) != x:
                    stack.append((m, x))
            # coset 0 is always a root, since merges keep the smaller number
            if x == 0 and self.spans_base():
                raise _IndexOne
            self.tick()

    def spans_base(self) -> bool:
        """Whether each spanning word, traced from coset 0 through
        union-find roots, is defined at every step and ends at coset 0."""
        table, width, find = self.table, self.width, self.find
        for cols in self.span_cols:
            f = 0
            for c in cols:
                f = table[f * width + c]
                if f == UNDEF:
                    return False
                f = find(f)
            if f != 0:
                return False
        return True

    def deduce(self) -> None:
        """Drain the deduction stack.

        For a stacked entry (k, c) -> t, trace at k every relator cycle
        that begins with column c, from t at its second letter, without
        defining: a gap of one is a deduction, which is stacked in turn;
        a closed trace with two different ends is a coincidence.  A
        four-letter cycle c c1 c2 c3 is traced by an unrolled kernel with
        the same outcome: forward from t over c1, c2, c3 while defined,
        then back from k over the inverses of c3, c2, c1 while defined.
        """
        table, width, stack = self.table, self.width, self.stack
        parent, find = self.parent, self.find
        while stack:
            k, c = stack.pop()
            t = table[k * width + c]
            if t == UNDEF:  # k has since been merged away
                continue
            if parent[t] != t:
                t = find(t)
            krow, trow = k * width, t * width
            for record in self.cycles[c]:
                if record[0] == 3:
                    _, c1, c2, c3, i1, i2, i3 = record
                    e = table[trow + c1]
                    if e == UNDEF:  # open at c1: a gap of one needs c3, c2 back
                        e = table[krow + i3]
                        if e == UNDEF:
                            continue
                        b = e if parent[e] == e else find(e)
                        e = table[b * width + i2]
                        if e == UNDEF:
                            continue
                        b = e if parent[e] == e else find(e)
                        e = table[b * width + i1]
                        if e == UNDEF:
                            self.write_deduction(t, c1, b)
                            continue
                        f, b = t, (e if parent[e] == e else find(e))
                    else:
                        f = e if parent[e] == e else find(e)
                        e = table[f * width + c2]
                        if e == UNDEF:  # open at c2: a gap of one needs c3 back
                            e = table[krow + i3]
                            if e == UNDEF:
                                continue
                            b = e if parent[e] == e else find(e)
                            e = table[b * width + i2]
                            if e == UNDEF:
                                self.write_deduction(f, c2, b)
                                continue
                            b = e if parent[e] == e else find(e)
                        else:
                            f = e if parent[e] == e else find(e)
                            e = table[f * width + c3]
                            if e == UNDEF:  # open at c3 only
                                e = table[krow + i3]
                                if e == UNDEF:
                                    self.write_deduction(f, c3, k)
                                    continue
                                b = e if parent[e] == e else find(e)
                            else:
                                f, b = (e if parent[e] == e else find(e)), k
                    if f != b:
                        self.coincide(f, b)
                        break
                    continue
                j, cols = record
                f, i = t, 1
                while i <= j:
                    e = table[f * width + cols[i]]
                    if e == UNDEF:
                        break
                    f = e if parent[e] == e else find(e)
                    i += 1
                b = k
                while j >= i:
                    e = table[b * width + (cols[j] ^ 1)]
                    if e == UNDEF:
                        break
                    b = e if parent[e] == e else find(e)
                    j -= 1
                if j < i:
                    if f != b:
                        self.coincide(f, b)
                        break
                elif i == j:
                    self.write_deduction(f, cols[i], b)

    def write_deduction(self, f: int, c: int, b: int) -> None:
        """Fill the gap of one between f and b in column c, both halves,
        and stack the entry for the deduction pass."""
        width = self.width
        self.table[f * width + c] = b
        self.table[b * width + (c ^ 1)] = f
        self.stack.append((f, c))
        self.tick()

    def run(self) -> None:
        """Sweep until a sweep makes no tick; an entry it leaves open
        shows the index infinite, which standardized() reports.

        Raises _IndexOne when a coincidence closes coset 0 under every
        spanning word, and _Overflow when a limit is hit.
        """
        sub_cols = [tuple(self.col[letter] for letter in w)
                    for w in self.subgens]
        stack, parent = self.stack, self.parent
        while True:
            ticks = self.ticks
            for cols in sub_cols:
                self.scan(0, cols)
                if stack:
                    self.deduce()
            for coset in range(len(parent)):
                if parent[coset] != coset:
                    continue
                for cols in self.rel_cols:
                    self.scan(coset, cols)
                    if stack:
                        self.deduce()
                    if parent[coset] != coset:
                        break
            if self.ticks == ticks:
                return

    def standardized(self) -> CosetTable:
        """Breadth-first renumbering from the subgroup coset; this makes
        the finished table independent of the discovery history; an open
        entry is an overflow, since it shows the index infinite."""
        width, table, find = self.width, self.table, self.find
        order: dict[int, int] = {0: 0}
        queue = [0]
        rows: list[list[int]] = []
        for coset in queue:  # the queue grows as the loop runs
            row = []
            for c in range(width):
                t = table[coset * width + c]
                if t == UNDEF:
                    raise _Overflow("infinite index (entry open after a clean sweep)")
                t = find(t)
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                row.append(t)
            rows.append(row)
        if len(order) != len(self.parent) - self.collapses:
            raise RuntimeError("standardized table dropped a live coset")
        final = tuple(tuple(order[t] for t in row) for row in rows)
        return CosetTable(self.letters, final)


def enumerate_cosets(pres: Presentation, subgens: tuple[Word, ...] = (),
                     max_cosets: int = DEFAULT_MAX_COSETS,
                     max_time: float = DEFAULT_MAX_TIME) -> EnumerationResult:
    """Index of the subgroup generated by subgens, by coset enumeration.

    Returns a finished result with the index and a verified standardized
    table, or an overflow result carrying the run statistics and the
    reason the run stopped: the coset limit, the time limit, or an entry
    left open after a clean sweep.  A run closes at index 1, with a
    one-row table, once each of the presentation's spanning words leads
    coset 0 back to itself.  That "verified" proves nothing by itself,
    as CosetTable.verify passes every one-row table: the result rests on
    the close's bookkeeping and on the spanning words generating the
    group.
    """
    alphabet = pres.alphabet()
    for w in subgens:
        for letter in w:
            if letter not in alphabet:
                raise ValueError(f"subgroup word letter {format_word((letter,))} "
                                 "outside the alphabet")
    start = time.monotonic()
    enum = _Enumerator(pres, tuple(subgens), max_cosets, max_time)
    try:
        enum.run()
        table = enum.standardized()
    except _IndexOne:
        table = CosetTable(enum.letters, ((0,) * enum.width,))
    except _Overflow as exc:
        table, reason = None, str(exc)
    stats = EnumerationStats(len(enum.parent), enum.max_alive, enum.collapses,
                             time.monotonic() - start)
    if table is None:
        return EnumerationResult("overflow", None, None, stats, reason)
    if not table.verify(pres, tuple(subgens)):
        raise RuntimeError("finished table failed verification")
    return EnumerationResult("finished", table.index, table, stats)
