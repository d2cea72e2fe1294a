"""In-memory span tracer with exact, additive self-time accounting.

Spans nest per thread.  A span's self time is its duration minus the time
its child spans cover, so over one client thread the self times of all spans
plus the time outside any span add up to the wall time.

Worker threads (the MC shard pool) have no span of their own to nest in.  A
span that opens on an empty worker stack is a *remote root*: it belongs to
the span open on the client thread at that moment (the pool's caller).  When
that parent closes, the union of its remote roots' intervals counts as child
time, and the self times inside the remote subtrees are scaled by
union / (sum of remote root durations).  Wall time during which any worker is
inside a span is thereby shared among the worker layers in proportion to
their thread time, and the additivity above still holds.

Spans are aggregated as they close (per key: calls, inclusive time, self
time), so memory does not grow with the number of calls.  Each span carries
a layer name, which the caller uses to open spans only at layer boundaries.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# A span frame is a list, the cheapest mutable record:
KEY, LAYER, START, CHILD, REMOTE = range(5)
# REMOTE holds [(start, end, self-time sink)] of worker-thread remote roots.


class _ThreadState:
    __slots__ = ("stack", "sink", "agg", "counts", "depth")

    def __init__(self):
        self.stack = []      # open frames, innermost last
        self.sink = {}       # key -> self time (clock units)
        self.agg = {}        # key -> [calls, inclusive time]
        self.counts = defaultdict(int)  # free-form counters
        self.depth = defaultdict(int)   # scope name -> open spans of that scope


class Tracer:
    """Collects spans from the client thread and from its worker threads.

    `clock` returns the current time as a number; tests pass a fake clock.
    The thread that calls `reset()` is the client thread.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded; the calling thread becomes the client.

        Call it only while no worker thread is inside a span.
        """
        with self._lock:
            self._states = {}
        self._client = self.state()

    def state(self) -> _ThreadState:
        """This thread's state, created on first use after each reset."""
        st = self._states.get(threading.get_ident())
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states[threading.get_ident()] = st
        return st

    def begin(self, st: _ThreadState, key: str, layer: str, scope: str | None = None) -> list:
        """Open a span on thread state `st` (from `state()`); returns its frame."""
        if not st.stack and st is not self._client:
            st.sink = {}  # remote root: its own sink
        if scope is not None:
            st.depth[scope] += 1
        frame = [key, layer, self.clock(), 0, None]
        st.stack.append(frame)
        return frame

    def end(self, st: _ThreadState, frame: list, scope: str | None = None) -> float:
        """Close `frame`, the innermost span of `st`; returns its duration."""
        end = self.clock()
        stack = st.stack
        stack.pop()
        if scope is not None:
            st.depth[scope] -= 1
        key = frame[KEY]
        dur = end - frame[START]
        child = frame[CHILD]
        sink = st.sink
        remote = frame[REMOTE]
        if remote:
            union = union_length((s, e) for s, e, _ in remote)
            total = sum(e - s for s, e, _ in remote)
            scale = union / total if total else 0.0
            for _, _, remote_sink in remote:
                for k, t in remote_sink.items():
                    sink[k] = sink.get(k, 0) + t * scale
            child += union
        sink[key] = sink.get(key, 0) + dur - child
        agg = st.agg.get(key)
        if agg is None:
            agg = st.agg[key] = [0, 0]
        agg[0] += 1
        agg[1] += dur
        if stack:
            stack[-1][CHILD] += dur
        elif st is not self._client:
            client_stack = self._client.stack
            if client_stack:
                parent = client_stack[-1]
                with self._lock:
                    if parent[REMOTE] is None:
                        parent[REMOTE] = []
                    parent[REMOTE].append((frame[START], end, sink))
        return dur

    def parent_key(self) -> str | None:
        """Key of the innermost open span on this thread, if any."""
        stack = self.state().stack
        return stack[-1][KEY] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self.state().counts[name] += amount

    def in_scope(self, scope: str) -> bool:
        return self.state().depth[scope] > 0

    def snapshot(self) -> dict:
        """Merged totals over all threads: self, incl, calls per key, counts."""
        out = {"self": defaultdict(float), "incl": defaultdict(float),
               "calls": defaultdict(int), "counts": defaultdict(int)}
        with self._lock:
            states = list(self._states.values())
        for key, t in self._client.sink.items():
            out["self"][key] += t
        for st in states:
            for key, (calls, incl) in st.agg.items():
                out["calls"][key] += calls
                out["incl"][key] += incl
            for key, n in st.counts.items():
                out["counts"][key] += n
        return out
