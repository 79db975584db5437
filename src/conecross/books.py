"""Book drawings: spine orders, page assignments and circle graphs.

A k-page book drawing places the vertices on a circle (the circular model
of the spine) and draws every edge as a chord inside one of k disks.  Two
chords on the same page cross exactly when their endpoints interleave
around the circle.  Everything here is a pure function over immutable
values.

The interleave rule has one home, the chord kernel ``chord_masks``: on a
spine order, one bitmask per chord of the later chords it interleaves,
pages aside.  It costs O(n + m) big-integer operations of m bits each for
m chords, not a test of all O(m^2) chord pairs.  ``circle_graph`` reads
its pairs straight off the kernel, with no drawing built, and
``BookDrawing.crossing_masks`` cuts the kernel down to pages.
``count_crossings`` sums the masks' ``int.bit_count()``, which needs
Python >= 3.10, as ``pyproject.toml`` requires.

Rotating or reflecting a spine order changes no crossing, so order
searches take one canonical order per class.  That rule lives in
``canonical_orders``.  ``pages._prefix_search`` pins vertex 0 first and
needs no reflection check: its prefix bound cuts every mirror image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .graphs import Multigraph, json_int, json_int_map, json_object

BOOK_FORMAT = "conecross-book-v1"


@dataclass(frozen=True)
class CyclicOrder:
    """A spine order: ``seq[p]`` is the vertex at position p, read cyclically."""

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.seq) != list(range(len(self.seq))):
            raise ValueError("order is not a permutation of 0..n-1")

    @staticmethod
    def natural(n: int) -> "CyclicOrder":
        return CyclicOrder(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.seq)

    def position_map(self) -> list[int]:
        pos = [0] * self.n
        for p, v in enumerate(self.seq):
            pos[v] = p
        return pos


def canonical_orders(n: int) -> Iterator[CyclicOrder]:
    """All canonical cyclic orders of 0..n-1; there are (n-1)!/2 for n >= 3.

    Canonical: vertex 0 comes first, and the vertex after it is smaller
    than the last one.
    """
    if n <= 2:
        yield CyclicOrder.natural(n)
        return
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield CyclicOrder((0,) + perm)


@dataclass(frozen=True)
class BookDrawing:
    """A spine order plus a page index for every edge instance."""

    graph: Multigraph
    order: CyclicOrder
    pages: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order.n != self.graph.n:
            raise ValueError("order size does not match vertex count")
        if len(self.pages) != self.graph.m:
            raise ValueError("need one page per edge instance")
        if any(p < 0 for p in self.pages):
            raise ValueError("page indices must be non-negative")

    @property
    def page_count(self) -> int:
        """Pages in use; a drawing without edges uses one."""
        return len(set(self.pages)) or 1

    def crossing_masks(self) -> list[int]:
        """masks[i]: bit j set for every later instance j > i on i's page
        whose chord interleaves i's.

        These are the chord masks of ``chord_masks`` cut down to pages; a
        drawing on one page, whatever its label, keeps them whole.
        """
        masks = chord_masks(self.graph, self.order)
        if self.page_count == 1:
            return masks
        on_page: dict[int, int] = {}
        bit = 1
        for page in self.pages:
            on_page[page] = on_page.get(page, 0) | bit
            bit <<= 1
        return [mask & on_page[page] for mask, page in zip(masks, self.pages)]

    def crossing_pairs(self) -> list[tuple[int, int]]:
        """Unordered instance-id pairs on a common page that interleave,
        sorted."""
        return _mask_pairs(self.crossing_masks())

    def to_json_dict(self) -> dict:
        return {
            "format": BOOK_FORMAT,
            "graph": self.graph.to_json_dict(),
            "order": list(self.order.seq),
            "pages": {str(i): p for i, p in enumerate(self.pages)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "BookDrawing":
        data = json_object(data, BOOK_FORMAT)
        graph = Multigraph.from_json_dict(data["graph"])
        order = CyclicOrder(tuple(json_int(v, "order") for v in data["order"]))
        pages_map = json_int_map(data["pages"], "pages")
        if sorted(pages_map) != list(range(graph.m)):
            raise ValueError("pages must cover edge ids 0..M-1")
        pages = tuple(json_int(pages_map[i], "pages") for i in range(graph.m))
        return BookDrawing(graph, order, pages)

    @staticmethod
    def from_json(text: str) -> "BookDrawing":
        return BookDrawing.from_json_dict(json.loads(text))


def one_page_drawing(g: Multigraph, order: CyclicOrder | None = None) -> BookDrawing:
    if order is None:
        order = CyclicOrder.natural(g.n)
    return BookDrawing(g, order, (0,) * g.m)


def chord_masks(g: Multigraph, order: CyclicOrder) -> list[int]:
    """masks[i]: bit j set for every later instance j > i whose chord
    interleaves i's on ``order``, pages aside.

    Cut the circle at spine position 0 so that chord i runs from position
    lo to hi > lo.  A chord interleaves it when exactly one of its ends
    lies strictly between them, so the XOR of the end masks at positions
    lo+1..hi-1 holds those chords, plus the ones sharing an end with i,
    which are removed.  Two prefix XORs give that range in one step.  The
    parallel copies of a pair are one run of bits with one span.
    """
    if order.n != g.n:
        raise ValueError("order size does not match vertex count")
    pos = order.position_map()
    ends = [0] * g.n
    spans = []
    bit = 0
    for a, b, mult in g.edges:
        lo, hi = (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
        run = ((1 << mult) - 1) << bit
        ends[lo] |= run
        ends[hi] |= run
        spans.append((lo, hi, mult))
        bit += mult
    # upto[p]: XOR of the end masks at positions before p.
    upto = [0]
    for mask in ends:
        upto.append(upto[-1] ^ mask)
    masks = []
    later = -2  # the bits above instance 0
    for lo, hi, mult in spans:
        inside = (upto[hi] ^ upto[lo + 1]) & ~(ends[lo] | ends[hi])
        for _ in range(mult):
            masks.append(inside & later)
            later <<= 1
    return masks


def _mask_pairs(masks: list[int]) -> list[tuple[int, int]]:
    """(i, j) for every bit j of masks[i], sorted."""
    out = []
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out.append((i, low.bit_length() - 1))
            mask ^= low
    return out


def count_crossings(d: BookDrawing) -> int:
    return sum(mask.bit_count() for mask in d.crossing_masks())


def circle_graph(g: Multigraph, order: CyclicOrder) -> list[tuple[int, int]]:
    """Edges of the chord interleaving graph, whose vertices are g's
    ``g.m`` edge instances: the 1-page drawing's crossing pairs, sorted,
    read off ``chord_masks``.  It depends on the order only, not on pages."""
    return _mask_pairs(chord_masks(g, order))
