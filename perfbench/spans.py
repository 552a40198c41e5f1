"""Span recording for the traced benchmark run.

Layers are timed from outside the package: each public function is replaced,
under the name its caller looks it up by, with a wrapper that opens a span on
entry and closes it on return.  Spans (name, start, end, parent) are kept in
memory and written out when the run ends; per-layer figures are derived from
them afterwards, so the wrappers themselves do as little as possible.
"""

from __future__ import annotations

import gzip
import time
import tracemalloc

MIB = 1024 * 1024


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.macs: dict[int, int] = {}       # span index -> computed MACs
        self.peak_mib: dict[str, float] = {}  # span name -> largest traced peak
        self.tape_nodes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def innermost(self) -> str:
        return self.names[self._stack[-1]] if self._stack else "unattributed"

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # a class attribute that is only inherited is deleted again, not copied down
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, macs=None, on_return=None,
             memory: bool = False) -> bool:
        """Replace ``owner.attr`` by a spanned wrapper; False if it does not exist.

        ``macs(args, kwargs, result)`` gives the call's computed MAC count,
        ``on_return(args, kwargs, result)`` records counters, and ``memory``
        records the tracemalloc peak above the traced size at entry.
        """
        orig = getattr(owner, attr, None)
        if not callable(orig):
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            i = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(i)
            if memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
                if peak > tracer.peak_mib.get(name, 0.0):
                    tracer.peak_mib[name] = peak
            if macs is not None:
                tracer.macs[i] = macs(args, kwargs, out)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        self._set(owner, attr, wrapper)
        return True

    def wrap_record_op(self, owner) -> bool:
        """Charge each backward closure to the op span that recorded it."""
        orig = getattr(owner, "record_op", None)
        if not callable(orig):
            return False
        tracer = self

        def record_op(backward_fn, outputs):
            tracer.tape_nodes += 1
            bw_name = tracer.innermost() + ".bwd"

            def timed(g):
                i = tracer.open(bw_name)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(i)

            return orig(timed, outputs)

        self._set(owner, "record_op", record_op)
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- derived figures ---------------------------------------------------------

    def self_and_total_ns(self) -> tuple[list[int], list[int]]:
        """Per span: (self time, inclusive time).  Self time is the span's
        duration minus the part of it its child spans cover."""
        total = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(total)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += total[i]
        return [t - c for t, c in zip(total, child)], total

    def has_ancestor(self, i: int, prefix: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p].startswith(prefix):
                return True
            p = self.parents[p]
        return False

    def write(self, path: str) -> None:
        """Write every span as CSV: index, parent, name, start and end in ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns,macs\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts,
                                                    self.ends, self.parents)):
                fh.write(f"{i},{p},{name},{s},{e},{self.macs.get(i, '')}\n")
