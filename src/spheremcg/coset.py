"""Coset enumeration for finite presentations, HLT strategy.

Each sweep scans the subgroup generators at the base coset and every
relator at every live coset, filling the first undefined slot, with
immediate coincidence merging through a union-find.  Only when a sweep
makes no definition, deduction or coincidence are the remaining empty
entries of the live cosets defined, all in one fill pass; the sweeps then
resume.  The run ends on a sweep with no events over a complete table:
that clean sweep doubles as a verification pass, since it has re-traced
every relator cycle and subgroup generator on the finished table.

Index-1 runs close early.  Every table entry is a consequence
(H w_i g = H w_j), so once every generator maps coset 0 to itself, every
generator lies in H and H is the whole group; the enumeration stops right
after the merge into coset 0 that makes this so, instead of collapsing
every remaining coset, and returns the one-row table.  CosetTable.verify
accepts every one-row table, so an index-1 result rests on this
bookkeeping of the enumeration itself, not on an independent check.

Termination is not guaranteed in general (the index may be infinite);
callers bound the run by coset count and wall time and must treat
overflow as inconclusive.
"""

from __future__ import annotations

import mmap
import time
from array import array
from dataclasses import dataclass

from .presentation import Presentation
from .words import Word

UNDEF = -1

# Rows the table holds at first; it doubles as needed.
INITIAL_ROWS = 64
# Largest table kept in a heap array; a larger one moves to a mapping.
SMALL_TABLE_BYTES = 1 << 20


def _anonymous_map(size: int) -> mmap.mmap:
    """Private anonymous memory, allocated page by page as it is written."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)


@dataclass(frozen=True)
class EnumerationStats:
    defined: int
    max_alive: int
    collapses: int
    seconds: float


@dataclass(frozen=True)
class CosetTable:
    """Completed action of the generators on right cosets, coset 0 = subgroup."""

    letters: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, coset: int, word: Word) -> int:
        col = {letter: k for k, letter in enumerate(self.letters)}
        for letter in word:
            coset = self.rows[coset][col[letter]]
        return coset

    def verify(self, pres: Presentation, subgens: tuple[Word, ...]) -> bool:
        """Path-independent check of the finished table.

        It checks that the table is a permutation action in which every
        relator and subgroup generator closes.  This says nothing for a
        one-row table, where every trace returns to coset 0.
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
                if self.trace(i, rel) != i:
                    return False
        return all(self.trace(0, w) == 0 for w in subgens)


@dataclass(frozen=True)
class EnumerationResult:
    status: str  # "finished" | "overflow"
    index: int | None
    table: CosetTable | None
    stats: EnumerationStats


class _Overflow(Exception):
    pass


class _IndexOne(Exception):
    """Every generator fixes coset 0: the subgroup is the whole group."""


class _Enumerator:
    def __init__(self, pres: Presentation, subgens: tuple[Word, ...],
                 max_cosets: int, max_time: float):
        self.pres = pres
        self.subgens = subgens
        self.max_cosets = max_cosets
        self.deadline = time.monotonic() + max_time
        self.letters = tuple(g for gen in pres.generators for g in (gen, -gen))
        self.col = {letter: k for k, letter in enumerate(self.letters)}
        self.width = len(self.letters)
        self.blank_row = array("i", [UNDEF]) * self.width
        self.table: array | memoryview = self.blank_row * INITIAL_ROWS
        self.mapping: mmap.mmap | None = None
        self.parent = array("i", [0])
        self.count = 1
        self.alive = 1
        self.defined = 1
        self.max_alive = 1
        self.collapses = 0
        self.events = 0
        self.ticks = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(self, coset: int, c: int) -> int:
        if self.alive >= self.max_cosets:
            raise _Overflow
        new = self.count
        self.count += 1
        width = self.width
        row = new * width
        if row + width > len(self.table):
            self.grow()
        table = self.table
        table[row:row + width] = self.blank_row
        self.parent.append(new)
        self.alive += 1
        self.defined += 1
        if self.alive > self.max_alive:
            self.max_alive = self.alive
        self.events += 1
        table[coset * width + c] = new
        table[row + (c ^ 1)] = coset
        self.tick()
        return new

    def grow(self) -> None:
        """Double the table; callers re-read self.table after define().

        A table past SMALL_TABLE_BYTES moves from its heap array to an
        anonymous mapping.  Where the platform has mremap, the mapping
        doubles in place: its rows are neither copied nor left resident
        behind it.  A heap buffer grown by realloc sometimes was both, so
        the peak memory of a large enumeration depended on the heap
        layout earlier work had left.  Small tables stay on the heap,
        since every fresh mapping page costs a page fault.  Without
        mremap the rows are copied into a new mapping.  Rows past
        self.count hold stale entries until define() blanks them.
        """
        size = 2 * len(self.table) * self.blank_row.itemsize
        if size <= SMALL_TABLE_BYTES:
            self.table *= 2
            return
        if self.mapping is None:
            self.mapping = _anonymous_map(size)
            self.mapping[:size // 2] = self.table
            self.table = memoryview(self.mapping).cast("i")
            return
        self.table.release()
        try:
            self.mapping.resize(size)
        except (OSError, SystemError):
            old, self.mapping = self.mapping, _anonymous_map(size)
            self.mapping[:len(old)] = old
            old.close()
        self.table = memoryview(self.mapping).cast("i")

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % 1024 == 0 and time.monotonic() > self.deadline:
            raise _Overflow

    def scan(self, coset: int, cols: tuple[int, ...]) -> None:
        """Trace one relation cycle at a coset, filling as it goes.

        Forward and backward pointers advance over defined entries; the
        gap is either closed by one deduction, reported as a coincidence,
        or plugged by defining a coset at the first hole.
        """
        table, width = self.table, self.width
        i, j = 0, len(cols) - 1
        f = b = coset
        while True:
            while i <= j:
                t = table[f * width + cols[i]]
                if t == UNDEF:
                    break
                f = self.find(t)
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                    self.events += 1
                return
            while j >= i:
                t = table[b * width + (cols[j] ^ 1)]
                if t == UNDEF:
                    break
                b = self.find(t)
                j -= 1
            if j < i:
                if f != b:
                    self.coincide(f, b)
                    self.events += 1
                return
            if i == j:
                # both half-edges open: write the pair as a deduction
                table[f * width + cols[i]] = b
                table[b * width + (cols[i] ^ 1)] = f
                self.events += 1
                self.tick()
                return
            f = self.define(f, cols[i])
            table = self.table
            i += 1

    def coincide(self, a: int, b: int) -> None:
        table, width = self.table, self.width
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            self.alive -= 1
            self.collapses += 1
            row = y * width
            for c in range(width):
                d = table[row + c]
                if d == UNDEF:
                    continue
                table[row + c] = UNDEF
                d = self.find(d)
                e = table[x * width + c]
                if e == UNDEF:
                    table[x * width + c] = d
                elif self.find(e) != d:
                    stack.append((e, d))
                m = table[d * width + (c ^ 1)]
                if m == UNDEF:
                    table[d * width + (c ^ 1)] = x
                elif self.find(m) != x:
                    stack.append((m, x))
            # coset 0 is always a root, since merges keep the smaller number
            if x == 0 and all(t != UNDEF and self.find(t) == 0
                              for t in table[:width]):
                raise _IndexOne
            self.tick()

    def live_cosets(self):
        for i in range(self.count):
            if self.parent[i] == i:
                yield i

    def run(self) -> None:
        """Sweep until a sweep over a complete table has no events.

        Raises _IndexOne when a coincidence closes coset 0 under every
        generator, and _Overflow when a limit is hit.
        """
        rel_cols = [tuple(self.col[letter] for letter in rel)
                    for rel in self.pres.relators]
        sub_cols = [tuple(self.col[letter] for letter in w)
                    for w in self.subgens]
        while True:
            self.events = 0
            for cols in sub_cols:
                self.scan(self.find(0), cols)
            for coset in self.live_cosets():
                for cols in rel_cols:
                    self.scan(self.find(coset), cols)
                    if self.parent[coset] != coset:
                        break
            if self.events:
                continue
            # the sweep found nothing: fill every empty entry, then sweep
            # again; a fill pass with nothing to fill means the clean
            # sweep just made ran over a complete table
            for coset in self.live_cosets():
                for c in range(self.width):
                    if self.table[coset * self.width + c] == UNDEF:
                        self.define(coset, c)
            if self.events == 0:
                return

    def standardized(self) -> CosetTable:
        """Breadth-first renumbering from the subgroup coset; this makes
        the finished table independent of the discovery history."""
        width = self.width
        order: dict[int, int] = {self.find(0): 0}
        queue = [self.find(0)]
        rows: list[list[int]] = []
        k = 0
        while k < len(queue):
            coset = queue[k]
            k += 1
            row = []
            for c in range(width):
                t = self.find(self.table[coset * width + c])
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                row.append(t)
            rows.append(row)
        assert len(order) == self.alive
        final = tuple(tuple(order[t] for t in row) for row in rows)
        return CosetTable(self.letters, final)


def enumerate_cosets(pres: Presentation, subgens: tuple[Word, ...] = (),
                     max_cosets: int = 10**6,
                     max_time: float = 60.0) -> EnumerationResult:
    """Index of the subgroup generated by subgens, by coset enumeration.

    Returns a finished result with the index and a verified standardized
    table, or an overflow result carrying the run statistics.
    """
    alphabet = pres.alphabet()
    for w in subgens:
        for letter in w:
            if letter not in alphabet:
                raise ValueError(f"subgroup word letter {letter} outside the alphabet")
    start = time.monotonic()
    enum = _Enumerator(pres, tuple(subgens), max_cosets, max_time)
    try:
        enum.run()
        table = enum.standardized()
    except _IndexOne:
        table = CosetTable(enum.letters, ((0,) * enum.width,))
    except _Overflow:
        table = None
    stats = EnumerationStats(enum.defined, enum.max_alive, enum.collapses,
                             time.monotonic() - start)
    if table is None:
        return EnumerationResult("overflow", None, None, stats)
    if not table.verify(pres, tuple(subgens)):
        raise RuntimeError("finished table failed verification")
    return EnumerationResult("finished", table.index, table, stats)
