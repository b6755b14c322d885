"""In-memory spans around calls into the program's public functions.

The tracer patches functions from outside the program: every ``hocroute``
module attribute that refers to a traced function is swapped for a wrapper
that records one span per call, so calls through ``from .x import f`` are
caught too. Spans are kept in flat arrays (name, parent, start, end) and
summarised when the run ends; nothing is written while work is timed.

Every time in the benchmark is read from ``clock``, the CPU time of the
calling thread. The benchmark is one thread that waits on nothing but
the page cache, so on an idle machine this equals wall time; on a shared
virtual machine it leaves out the time the host takes the CPU away, which
made wall times of identical passes differ by up to 30%.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from contextlib import contextmanager
from time import thread_time as clock
from typing import Callable, Iterator

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_ids, parents, starts, ends = self._stack, self.name_ids, self.parents, self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextmanager
    def instrument(self, functions: dict[str, tuple[object, str]]) -> Iterator[None]:
        """Trace each ``name -> (owner, attribute)`` while the block runs.

        A module-level function is replaced in every loaded ``hocroute``
        module that holds it; a method is replaced on its class. A dotted
        attribute such as ``json.dumps`` swaps the module that ``owner``
        imported for a copy whose function is traced, for ``owner`` alone.
        """
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "hocroute" or n.startswith("hocroute.")]
        try:
            for name, (owner, attr) in functions.items():
                if "." in attr:
                    imported, fn = attr.split(".")
                    original = getattr(owner, imported)
                    proxy = types.ModuleType(original.__name__)
                    proxy.__dict__.update(vars(original))
                    setattr(proxy, fn, self.wrap(name, getattr(original, fn)))
                    undo.append((owner, imported, original))
                    setattr(owner, imported, proxy)
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                if isinstance(owner, type):
                    holders = [(owner, attr)]
                else:
                    holders = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
                for holder, a in holders:
                    undo.append((holder, a, original))
                    setattr(holder, a, wrapper)
            yield
        finally:
            for holder, a, original in reversed(undo):
                setattr(holder, a, original)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name over spans
        ``[lo, hi)``. Self time is a span's duration minus its children's."""
        hi = len(self) if hi is None else hi
        names = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        durations = (np.frombuffer(self.ends)[lo:hi] - np.frombuffer(self.starts)[lo:hi])
        children = np.zeros(hi - lo)
        nested = parents >= lo
        np.add.at(children, parents[nested] - lo, durations[nested])
        out = {}
        for nid, name in enumerate(self.names):
            mine = names == nid
            if mine.any():
                out[name] = {
                    "calls": int(mine.sum()),
                    "total_s": float(durations[mine].sum()),
                    "self_s": float((durations[mine] - children[mine]).sum()),
                }
        return out

    def with_child(self, parent: str, child: str, lo: int = 0, hi: int | None = None) -> tuple[float, float]:
        """Total seconds of ``parent`` spans that do / do not have a direct
        ``child`` span, over spans ``[lo, hi)``."""
        hi = len(self) if hi is None else hi
        names = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        durations = np.frombuffer(self.ends)[lo:hi] - np.frombuffer(self.starts)[lo:hi]
        pid, cid = self._name_ids.get(parent), self._name_ids.get(child)
        has_child = np.zeros(hi - lo, dtype=bool)
        if cid is not None:
            mark = (names == cid) & (parents >= lo)
            has_child[parents[mark] - lo] = True
        mine = names == pid
        return float(durations[mine & has_child].sum()), float(durations[mine & ~has_child].sum())
