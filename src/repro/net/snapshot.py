"""Copy-on-branch snapshot/restore of a simulated world.

:meth:`repro.net.simulator.Simulation.snapshot` is the entry point; the
model-checking explorer (:mod:`repro.check.explorer`) is the consumer.
"""

from __future__ import annotations

import io
import pickle
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import SimulationError
from ..obs import NULL_OBS

if TYPE_CHECKING:
    from .simulator import Simulation


class SimulatorSnapshot:
    """Copy-on-branch snapshot/restore of a :class:`Simulation` world.

    The model-checking explorer (:mod:`repro.check.explorer`) branches a
    run at every scheduling decision: capture once, execute one candidate
    event, recurse, restore, execute the next.  That forces a precise
    definition of "the world":

    * **Roots** — objects whose ``__dict__`` is captured and written back
      in place on restore: the simulation itself, every node, the attached
      adversary, and caller-supplied ``extra_roots`` (invariant monitor,
      metrics collector, mempools).  Restoring *in place* is what keeps
      closures and bound methods alive — the harness wires callbacks like
      ``monitor.wrap_commit`` and ``tracker._on_deliver`` (a node's bound
      method) at construction time, and those references must stay valid
      across every restore.
    * **Pins** — objects captured *by identity* (restore hands back the
      live object itself): the roots, each node's network facade, and the
      immutable environment (configs, wave geometry, latency model, crypto
      backend).  A bound method found in captured state re-binds to the
      pinned live object, not to a stale private copy.
    * **Values** — blocks, batches, messages, and the Schnorr group define
      ``__deepcopy__ = self`` (they are frozen), and observability objects
      are shared sinks that alias themselves; both fall out of the copy
      automatically.  The event queue is plain data under the simulation's
      ``__dict__`` and is captured whole, a half-drained bucket included.

    Two deliberate exclusions keep snapshots cheap without affecting
    behaviour: the key deal's one verified-claims memo
    (:mod:`repro.crypto.memo`, reached from every backend and coin) copies
    to itself and so is shared across branches as it is across replicas (it
    holds only *successful* verifications of immutable claims — a branch
    can observe speed, never a different verdict), and observability
    counters keep accumulating across restores (they are telemetry about
    the exploration, not simulation state).

    One snapshot may be restored any number of times: every restore
    materializes the captured state afresh, so branches never alias each
    other's mutable state.

    Mechanically, capture pickles the root ``__dict__``s with a
    ``persistent_id`` hook that swaps every pinned object, callable, and
    self-aliasing value (``__deepcopy__`` returning ``self``) for an index
    into a live-object table — the C pickler walks the mutable state an
    order of magnitude faster than ``copy.deepcopy``, which profiling
    shows is where a model-checking run otherwise spends ~90% of its
    time.  State that refuses to pickle is a
    :class:`~repro.errors.SimulationError` naming its type.
    """

    #: Per-node attributes pinned by identity (immutable environment).
    _NODE_PINS = ("obs", "system", "protocol", "backend", "wave")

    __slots__ = ("_roots", "_table", "_table_ids", "_blob")

    def __init__(
        self, sim: Simulation, extra_roots: Sequence[object] = ()
    ) -> None:
        roots: List[object] = [sim]
        roots.extend(sim.nodes)
        if sim.adversary is not None:
            roots.append(sim.adversary)
        for root in extra_roots:
            if root is not None:
                roots.append(root)
        pins: dict = {}

        def pin(obj: object) -> None:
            if obj is not None:
                pins[id(obj)] = obj

        for root in roots:
            if not hasattr(root, "__dict__"):
                raise SimulationError(
                    f"snapshot root {root!r} has no __dict__ to capture "
                    "(slotted objects must be reached through a pin instead)"
                )
            pin(root)
        pin(sim.latency)
        pin(sim.obs)
        pin(NULL_OBS)
        for node in sim.nodes:
            pin(getattr(node, "net", None))
            for name in self._NODE_PINS:
                pin(getattr(node, name, None))
        self._roots = roots
        self._table: List[object] = list(pins.values())
        self._table_ids: dict = {
            id(obj): i for i, obj in enumerate(self._table)
        }
        buf = io.BytesIO()
        try:
            _SnapshotPickler(buf, self).dump(
                [root.__dict__ for root in roots]
            )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SimulationError(
                f"snapshot state does not pickle ({type(exc).__name__}: {exc})"
            ) from exc
        self._blob = buf.getvalue()

    def _persistent_id(self, obj: object) -> Optional[int]:
        """Swap shared identities out of the pickled graph.

        Pinned objects, callables (closures and bound methods capture only
        roots or immutable values, so they are atoms), and frozen values
        whose ``__deepcopy__`` returns ``self`` are stored as indexes into
        the live-object table and resolved back by identity on restore.

        The pickler consults this hook for *every* object it encounters,
        so the type-level verdict is cached in :data:`_PIN_BY_TYPE` — the
        common case (plain data) costs two dict lookups.
        """
        idx = self._table_ids.get(id(obj))
        if idx is not None:
            return idx
        cls = obj.__class__
        pin = _PIN_BY_TYPE.get(cls)
        if pin is None:
            pin = _PIN_BY_TYPE[cls] = bool(
                callable(obj) or getattr(cls, "__deepcopy__", None)
            )
        if pin:
            idx = len(self._table)
            self._table.append(obj)
            self._table_ids[id(obj)] = idx
            return idx
        return None

    def restore(self) -> None:
        """Rewind every root to the captured state, in place."""
        fresh = _SnapshotUnpickler(io.BytesIO(self._blob), self).load()
        for root, state in zip(self._roots, fresh):
            root.__dict__.clear()
            root.__dict__.update(state)


#: class → "pin by identity" verdict: callables and self-aliasing frozen
#: values (types defining ``__deepcopy__``, which in this codebase always
#: return ``self``).  Shared across snapshots — it is a property of the
#: type, not of the run.
_PIN_BY_TYPE: dict = {}


class _SnapshotPickler(pickle.Pickler):
    def __init__(self, buf: io.BytesIO, snap: SimulatorSnapshot) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._snap = snap

    def persistent_id(self, obj: object) -> Optional[int]:
        return self._snap._persistent_id(obj)


class _SnapshotUnpickler(pickle.Unpickler):
    def __init__(self, buf: io.BytesIO, snap: SimulatorSnapshot) -> None:
        super().__init__(buf)
        self._snap = snap

    def persistent_load(self, pid: int) -> object:
        return self._snap._table[pid]
