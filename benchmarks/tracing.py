"""In-memory span recorder that wraps beamest's public functions from outside.

Each wrapped name is patched where its caller looks it up (for example
``beamest.estimator.measure_block``, which ``run_estimation`` resolves at call
time), so nothing under ``src/`` changes.  A span is ``(id, parent, name,
phase, start, end)``; spans nest through a stack because the benchmark runs a
single thread.  Spans stay in compact arrays until :meth:`Tracer.save` writes
them out at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.phase = 0
        self._stack = [0]
        self._next_id = 1
        self._id = array("q")
        self._parent = array("q")
        self._name = array("h")
        self._phase = array("b")
        self._t0 = array("d")
        self._t1 = array("d")
        # (phase, counter name) -> integer total, for counts a span cannot carry
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` under span ``name``.

        ``before(args)`` runs ahead of the call and its result is handed to
        ``after(tracer, args, state)`` once the call returns; both stay outside
        the span's own interval.
        """
        original = owner.__dict__[attr]
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1]
            stack.append(span)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._id.append(span)
                self._parent.append(parent)
                self._name.append(index)
                self._phase.append(self.phase)
                self._t0.append(t0)
                self._t1.append(t1)
                if after is not None:
                    after(self, args, state)

        self._patches.append((owner, attr, original, wrapper))

    def count(self, key: str, value: int) -> None:
        self.counters[(self.phase, key)] += value

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name call counts per phase and self time, from the recorded spans.

        A span's self time is its duration minus the durations of its direct
        children; children never outlive their parent on one thread, so that
        equals the part of the interval no child covers.
        """
        import numpy as np

        ids = np.frombuffer(self._id, dtype=np.int64)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        names = np.frombuffer(self._name, dtype=np.int16)
        phases = np.frombuffer(self._phase, dtype=np.int8)
        duration = np.frombuffer(self._t1) - np.frombuffer(self._t0)
        child_time = np.bincount(parents, weights=duration, minlength=self._next_id)
        self_time = duration - child_time[ids]
        n_names, n_phases = len(self.names), int(phases.max(initial=0)) + 1
        calls = np.zeros((n_names, n_phases), dtype=np.int64)
        np.add.at(calls, (names, phases), 1)
        self_s = np.zeros((n_names, n_phases))
        np.add.at(self_s, (names, phases), self_time)
        top = parents == 0
        covered = np.bincount(phases[top], weights=duration[top], minlength=n_phases)
        return {
            "calls": {name: calls[i].tolist() for i, name in enumerate(self.names)},
            "self_s": {name: self_s[i].tolist() for i, name in enumerate(self.names)},
            "covered_s": covered.tolist(),
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            id=np.frombuffer(self._id, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int16),
            phase=np.frombuffer(self._phase, dtype=np.int8),
            start=np.frombuffer(self._t0), end=np.frombuffer(self._t1))
