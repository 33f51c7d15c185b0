"""Stack-based span recorder the suite installs *from outside* the program.

Nothing in ``src/`` knows about this module.  The suite names entry points
(``module:function`` or ``module:Class.method``), and :meth:`Tracer.install`
replaces each with a timing wrapper:

* a class method is replaced on the class **and on every subclass that
  overrides it**, so ``CryptoBackend.verify`` covers all three backends;
* a module-level function is replaced in its home module **and in every
  loaded ``repro.*`` module whose attribute is the original object**, so
  ``from ..crypto.hashing import hash_fields`` call sites are reached too.

:meth:`Tracer.uninstall` puts every attribute back.

Each wrapped call is one span: name, layer, start, end, parent span id and
(where the entry names one) the argument carrying a block or digest, whose
digest prefix is the request id shared by all spans of that block.  Exact
per-(name, parent name) aggregates are kept for *all* spans; the last
:data:`RING_SPANS` raw spans are kept in a ring for the trace file.

Aggregates live in two tables: spans opened while a *root* span is open
(the timed region) and spans outside it (set-up, post-run audit).  Only the
first table feeds the per-layer split, so it telescopes to the root's
duration: a span's self time is its duration minus its children's.

Wrapper cost is calibrated at start-up on an empty function and taken back
out (see :meth:`Tracer.calibrate`), so a parent making a million cheap
wrapped calls is not billed for a million wrapper prologues.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Raw spans kept for the trace file (aggregates are exact regardless).
RING_SPANS = 100_000

#: Layer totals may miss the root span by this share before the run fails.
SUM_TOLERANCE = 0.02

#: Only attributes of modules under this package are ever rebound.
PACKAGE = "repro"

_clock = time.perf_counter


class Entry(NamedTuple):
    """One entry point to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``req`` is the positional index of the argument carrying the block or
    digest (the request id), or ``None``.  ``measure(args, result)`` returns
    an integer added to the span name's ``weight`` (items in a batch, bytes
    produced, 1 for a truthy result...), or ``None`` for plain call counts.
    """

    layer: str
    target: str
    req: Optional[int] = None
    measure: Optional[Callable[[tuple, object], int]] = None


class Aggregate(NamedTuple):
    """Exact totals of one (span name, parent span name) pair."""

    name: str
    layer: str
    parent: str
    calls: int
    total_s: float
    child_s: float
    child_calls: int
    weight: int


def self_seconds(
    total_s: float,
    child_s: float,
    calls: int,
    child_calls: int,
    inner_s: float = 0.0,
    outer_s: float = 0.0,
) -> float:
    """Self time of a group of spans with wrapper cost removed.

    Each of the group's ``calls`` measured ``inner_s`` of its own wrapper
    between the two clock reads; each of its ``child_calls`` wrapped
    children cost it ``outer_s`` outside the child's own clock reads.
    """
    return total_s - child_s - calls * inner_s - child_calls * outer_s


class Tracer:
    """Records spans for wrapped entry points; see the module docstring."""

    def __init__(self, ring: int = RING_SPANS) -> None:
        self._names: List[Tuple[str, str]] = [("<outside>", "")]
        self._index: Dict[str, int] = {"<outside>": 0}
        # frame = [name idx, span id, child seconds, wrapped child calls]
        self._stack: List[list] = [[0, 0, 0.0, 0]]
        self._next_id = [1]
        self._in_root: Dict[int, list] = {}
        self._outside: Dict[int, list] = {}
        self._table = [self._outside]
        # The ring is five preallocated parallel lists indexed by span id
        # modulo its size.  A deque of per-span tuples would hand the cyclic
        # GC 100k long-lived containers to re-scan, which alone doubled the
        # traced run's wall clock.
        self._ring_size = ring
        self._ring = [[None] * ring for _ in range(5)]
        self._patched: List[Tuple[object, str, object, object]] = []
        self.root_s = 0.0
        self.inner_s = 0.0
        self.outer_s = 0.0

    # ------------------------------------------------------------ wrapping

    def _name_index(self, name: str, layer: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self._names)
            self._names.append((name, layer))
        return idx

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        req: Optional[int] = None,
        measure: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(
                f"{name}: a generator or coroutine returns before its work "
                f"is done; wrap the function that consumes it"
            )
        idx = self._name_index(name, layer)
        stack = self._stack
        next_id = self._next_id
        table = self._table
        ring_parent, ring_idx, ring_t0, ring_t1, ring_req = self._ring
        ring_size = self._ring_size
        clock = _clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [idx, sid, 0.0, 0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                parent[2] += took
                parent[3] += 1
                aggs = table[0]
                key = (idx << 12) | parent[0]
                cell = aggs.get(key)
                if cell is None:
                    cell = aggs[key] = [0, 0.0, 0.0, 0, 0]
                cell[0] += 1
                cell[1] += took
                cell[2] += frame[2]
                cell[3] += frame[3]
                if measure is not None:
                    cell[4] += measure(args, result)
                slot = sid % ring_size
                ring_parent[slot] = parent[1]
                ring_idx[slot] = idx
                ring_t0[slot] = t0
                ring_t1[slot] = t1
                ring_req[slot] = (
                    args[req] if req is not None and len(args) > req else None
                )

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name: str, layer: str):
        """Open a root span: spans inside it feed the per-layer split."""
        if self._table[0] is self._in_root:
            raise RuntimeError("root spans do not nest")
        idx = self._name_index(name, layer)
        parent = self._stack[-1]
        sid = self._next_id[0]
        self._next_id[0] = sid + 1
        frame = [idx, sid, 0.0, 0]
        self._stack.append(frame)
        self._table[0] = self._in_root
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._table[0] = self._outside
            self._stack.pop()
            took = t1 - t0
            self.root_s += took
            key = (idx << 12) | parent[0]
            cell = self._in_root.setdefault(key, [0, 0.0, 0.0, 0, 0])
            cell[0] += 1
            cell[1] += took
            cell[2] += frame[2]
            cell[3] += frame[3]
            slot = sid % self._ring_size
            for column, value in zip(self._ring, (parent[1], idx, t0, t1, None)):
                column[slot] = value

    def wrap_root(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` run inside :meth:`root` (for ``Simulation.run``)."""

        def rooted(*args, **kwargs):
            with self.root(name, layer):
                return fn(*args, **kwargs)

        rooted.__name__ = getattr(fn, "__name__", name)
        rooted.__doc__ = fn.__doc__
        rooted.__wrapped__ = fn
        return rooted

    # ---------------------------------------------------------- installing

    def install(self, entries: Iterable[Entry], roots: Iterable[Entry] = ()) -> None:
        """Wrap every entry (and run every root inside a root span)."""
        for entry, is_root in [(e, False) for e in entries] + [(r, True) for r in roots]:
            module_name, _, path = entry.target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if not owner_name:
                self._install_function(module, attr, entry, is_root)
            else:
                self._install_method(getattr(module, owner_name), attr, entry, is_root)

    def _wrapper_for(self, fn: Callable, name: str, entry: Entry, is_root: bool) -> Callable:
        if is_root:
            return self.wrap_root(fn, name, entry.layer)
        return self.wrap(fn, name, entry.layer, entry.req, entry.measure)

    def _install_function(self, module, attr: str, entry: Entry, is_root: bool) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper_for(original, attr, entry, is_root)
        for other, key in _package_attributes(original):
            setattr(other, key, wrapper)
            self._patched.append((other, key, original, wrapper))

    def _install_method(self, cls: type, attr: str, entry: Entry, is_root: bool) -> None:
        found = False
        for owner in [cls] + _subclasses(cls):
            original = vars(owner).get(attr)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            if not inspect.isfunction(original):
                raise TypeError(
                    f"{owner.__name__}.{attr} is not a plain method; wrap "
                    f"static/class methods and properties by hand"
                )
            name = f"{owner.__name__}.{attr}"
            wrapper = self._wrapper_for(original, name, entry, is_root)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original, wrapper))
            found = True
        if not found:
            raise AttributeError(f"{entry.target}: no class defines {attr!r}")

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced — including
        copies a module imported by name after the install."""
        for owner, attr, original, wrapper in reversed(self._patched):
            setattr(owner, attr, original)
            if inspect.ismodule(owner):
                for other, key in _package_attributes(wrapper):
                    setattr(other, key, original)
        self._patched.clear()

    def patched(self) -> List[Tuple[object, str]]:
        """(owner, attribute) of everything currently replaced."""
        return [(owner, attr) for owner, attr, _, _ in self._patched]

    # --------------------------------------------------------- calibration

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Measure what one wrapped call costs, on an empty method.

        The probe is shaped like the entry points (a bound method taking a
        source and a message, the message being the request-id argument).
        ``inner_s`` is what lands between the wrapper's own clock reads
        (billed to the span itself); ``outer_s`` is the rest of the added
        cost (billed to the parent).  Best of ``rounds``, because the
        number wanted is the wrapper's cost, not the scheduler's.
        """
        probe = Tracer(ring=self._ring_size)
        empty = _Probe().handle
        wrapped = probe.wrap(empty, "calibrate", "", req=1)
        message = object()
        inner = outer = float("inf")
        for _ in range(rounds):
            t0 = _clock()
            for _i in range(calls):
                empty(1, message)
            bare = _clock() - t0
            probe._outside.clear()
            t0 = _clock()
            for _i in range(calls):
                wrapped(1, message)
            timed = _clock() - t0
            measured = next(iter(probe._outside.values()))[1]
            inner = min(inner, max(0.0, (measured - bare) / calls))
            outer = min(outer, max(0.0, (timed - measured) / calls))
        self.inner_s = inner
        self.outer_s = outer

    # -------------------------------------------------------------- results

    def aggregates(self, in_root: bool = True) -> List[Aggregate]:
        """Exact per-(name, parent) totals of one table."""
        table = self._in_root if in_root else self._outside
        rows = []
        for key, (calls, total, child, child_calls, weight) in table.items():
            name, layer = self._names[key >> 12]
            rows.append(
                Aggregate(name, layer, self._names[key & 0xFFF][0], calls,
                          total, child, child_calls, weight)
            )
        return rows

    def span_count(self) -> int:
        return self._next_id[0] - 1

    def by_name(self, in_root: bool = True) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, corrected self seconds
        and weight, summed over parents."""
        out: Dict[str, Dict[str, float]] = {}
        for agg in self.aggregates(in_root):
            row = out.setdefault(
                agg.name,
                {"layer": agg.layer, "calls": 0, "total_s": 0.0, "self_s": 0.0, "weight": 0},
            )
            row["calls"] += agg.calls
            row["total_s"] += agg.total_s
            row["weight"] += agg.weight
            row["self_s"] += self_seconds(
                agg.total_s, agg.child_s, agg.calls, agg.child_calls,
                self.inner_s, self.outer_s,
            )
        return out

    def layer_split(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self seconds (wrapper cost removed) and share.

        Raises if the uncorrected self times do not telescope to the root
        spans' duration within :data:`SUM_TOLERANCE` — that would mean a
        span escaped the stack discipline and the split cannot be trusted.
        """
        raw = 0.0
        layers: Dict[str, Dict[str, float]] = {}
        for agg in self.aggregates(in_root=True):
            raw += agg.total_s - agg.child_s
            row = layers.setdefault(agg.layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += agg.calls
            row["self_s"] += self_seconds(
                agg.total_s, agg.child_s, agg.calls, agg.child_calls,
                self.inner_s, self.outer_s,
            )
        if self.root_s <= 0.0:
            raise RuntimeError("no root span was recorded")
        if abs(raw - self.root_s) > SUM_TOLERANCE * self.root_s:
            raise RuntimeError(
                f"layer self times sum to {raw:.4f}s but the root spans took "
                f"{self.root_s:.4f}s"
            )
        for row in layers.values():
            row["self_s"] = max(0.0, row["self_s"])
        explained = sum(row["self_s"] for row in layers.values())
        for row in layers.values():
            row["share"] = row["self_s"] / explained if explained else 0.0
        return layers

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Write aggregates and the ring of raw spans as one JSON file."""
        last = self.span_count()
        spans = []
        for sid in range(max(1, last - self._ring_size + 1), last + 1):
            parent, idx, t0, t1, req = (col[sid % self._ring_size] for col in self._ring)
            spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": self._names[idx][0],
                    "layer": self._names[idx][1],
                    "start": t0,
                    "end": t1,
                    "request": _request_id(req),
                }
            )
        doc = {
            "calibration": {"inner_s": self.inner_s, "outer_s": self.outer_s},
            "root_s": self.root_s,
            "span_count": self.span_count(),
            "aggregates": [agg._asdict() for agg in self.aggregates(True)],
            "aggregates_outside_root": [agg._asdict() for agg in self.aggregates(False)],
            "spans": spans,
        }
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Probe:
    """Calibration target: an entry-point-shaped method that does nothing."""

    def handle(self, src: int, msg: object) -> None:
        return None


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


def _package_attributes(obj: object) -> List[Tuple[object, str]]:
    """(module, name) of every loaded package module attribute that is ``obj``."""
    return [
        (module, key)
        for module in list(sys.modules.values())
        if module is not None and _in_package(getattr(module, "__name__", ""))
        for key, value in list(vars(module).items())
        if value is obj
    ]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        if _in_package(sub.__module__) and sub not in found:
            found.append(sub)
            found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def _request_id(obj: object) -> Optional[str]:
    """Digest prefix of whatever block/digest-bearing object a span saw."""
    for _ in range(3):
        if isinstance(obj, (bytes, bytearray)):
            return bytes(obj[:4]).hex()
        if obj is None:
            return None
        nxt = getattr(obj, "digest", None)
        if callable(nxt):  # e.g. ByzantineProof.digest()
            nxt = None
        if nxt is None:
            nxt = getattr(obj, "block", None)
        obj = nxt
    return None
