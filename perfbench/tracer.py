"""Span tracer that wraps the package's layer boundaries from outside.

The tracer installs wrappers around the public names that ``engine`` looks
up at call time (and around the ``brute`` entry points the benchmark calls),
records one span per call and restores the originals on ``uninstall``.
Nothing under ``src/`` is edited.  A target that no longer exists, for
example after a refactor removed ``split_prefixes``, is reported in
``absent`` and every metric built on it is marked absent instead of failing
the run; a counting hook that no longer fits its call is reported in
``hook_errors`` and leaves the operation alone.

Spans are kept in memory as ``(id, parent_id, name, start_ns, end_ns)``
tuples and folded into per-operation totals when the operation ends.  Raw
spans are kept up to ``SPAN_CAP`` and written out at the end of the run.
Only the process that installed the tracer records: a forked pool worker
inherits the wrappers but calls straight through, so kernel time spent in
workers shows up as waiting in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

#: Raw spans kept for the trace file; per-operation totals cover every span.
SPAN_CAP = 20_000


def _league_n(size) -> int:
    return int(getattr(size, "n", size))


def _on_classify(op, args, result, dur_ns):
    if getattr(result, "name", None) == "SEARCH":
        op.counts["search_profiles"] += 1


def _on_count_completions(op, args, result, dur_ns):
    key = getattr(args[0], "takes", args[0])
    op.profile_ns[key] += dur_ns
    op.profile_completions[key] += result


def _on_split_prefixes(op, args, result, dur_ns):
    op.counts["tasks"] += len(result)


def _on_season_sweep(op, args, result, dur_ns):
    n = _league_n(args[0])
    op.counts["encodings"] += 3 ** (n * (n - 1))


def _on_completion_sweep(op, args, result, dur_ns):
    n = _league_n(args[1])
    op.counts["assignments"] += 6 ** ((n - 1) * (n - 2) // 2)


#: (owner, attribute, span name, hook).  ``owner`` is ``module`` or
#: ``module:Class``.  ``engine.count_tied`` is wrapped in both namespaces:
#: the benchmark calls the package name, ``resume`` calls the engine one.
TARGETS = (
    ("league_ties.engine", "iter_profiles", "profiles.iter_profiles", None),
    ("league_ties.engine", "classify_profile", "profiles.classify_profile", _on_classify),
    ("league_ties.engine", "representation_factor", "profiles.representation_factor", None),
    ("league_ties.engine", "doubling_factor", "profiles.doubling_factor", None),
    ("league_ties.engine", "count_completions", "search.count_completions", _on_count_completions),
    ("league_ties.engine", "split_prefixes", "search.split_prefixes", _on_split_prefixes),
    ("league_ties.engine", "eulerian_count", "eulerian.eulerian_count", None),
    ("league_ties.engine", "count_tied", "engine.count_tied", None),
    ("league_ties", "count_tied", "engine.count_tied", None),
    ("league_ties", "resume", "engine.resume", None),
    ("league_ties.engine:CheckpointLedger", "load", "engine.CheckpointLedger.load", None),
    ("league_ties.engine:CheckpointLedger", "append", "engine.CheckpointLedger.append", None),
    ("league_ties", "count_tied_bruteforce", "brute.count_tied_bruteforce", _on_season_sweep),
    ("league_ties", "count_completions_bruteforce", "brute.count_completions_bruteforce",
     _on_completion_sweep),
)


class _OpState:
    """Hook counters of the operation in progress."""

    def __init__(self) -> None:
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.profile_ns: defaultdict[object, int] = defaultdict(int)
        self.profile_completions: defaultdict[object, int] = defaultdict(int)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Records spans around the wrapped layer boundaries of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.absent: list[str] = []
        self.kept: list[tuple[int, int | None, str, int, int]] = []
        self.kept_truncated = False
        self.nesting_errors: list[str] = []
        self.hook_errors: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [id, name, start_ns]
        self._spans: list[tuple[int, int | None, str, int, int]] = []
        self._next_id = 0
        self._op = _OpState()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = set()
        for owner_name, attr, span, hook in TARGETS:
            owner = _resolve(owner_name)
            original = None
            if owner is not None:
                original = (vars(owner).get(attr) if inspect.isclass(owner)
                            else getattr(owner, attr, None))
            if inspect.isfunction(original):
                setattr(owner, attr, self._wrap(original, span, hook))
                self._installed.append((owner, attr, original))
                wrapped.add(span)
        self.absent = sorted({span for _, _, span, _ in TARGETS} - wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, span: str, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if os.getpid() != self.pid:
                    yield from inner
                    return
                while True:
                    frame = self._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            frame = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur_ns = self._exit(frame)
            if hook is not None:
                try:
                    hook(self._op, args, result, dur_ns)
                except Exception as exc:  # a changed signature must not fail the operation
                    self.hook_errors.append(f"{span}: {type(exc).__name__}: {exc}")
            return result
        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> int:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            self.nesting_errors.append(f"{frame[1]} closed while {popped[1]} was open")
        sid, name, start = frame
        parent = self._stack[-1][0] if self._stack else None
        self._spans.append((sid, parent, name, start, end))
        return end - start

    def end_op(self) -> dict:
        """Fold the finished operation's spans; return its per-name totals.

        The result maps ``inclusive``/``self``/``calls`` to per-span-name
        dicts and carries the hook counters.  Nesting is checked here: every
        child span lies inside its parent and no self time is negative.
        """
        spans, self._spans = self._spans, []
        op, self._op = self._op, _OpState()
        if self._stack:
            self.nesting_errors.append(f"spans still open at operation end: {self._stack}")
            self._stack.clear()
        bounds = {sid: (start, end) for sid, _, _, start, end in spans}
        inclusive: defaultdict[str, int] = defaultdict(int)
        child_ns: defaultdict[int, int] = defaultdict(int)
        calls: defaultdict[str, int] = defaultdict(int)
        for sid, parent, name, start, end in spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent is None:
                continue
            p_start, p_end = bounds[parent]
            if not p_start <= start <= end <= p_end:
                self.nesting_errors.append(f"span {sid} ({name}) outside its parent {parent}")
            child_ns[parent] += end - start
        self_ns: defaultdict[str, int] = defaultdict(int)
        for sid, _, name, start, end in spans:
            own = end - start - child_ns[sid]
            if own < 0:
                self.nesting_errors.append(f"span {sid} ({name}) has negative self time")
            self_ns[name] += own
        room = SPAN_CAP - len(self.kept)
        self.kept.extend(spans[:max(room, 0)])
        self.kept_truncated |= len(spans) > room
        return {"inclusive": inclusive, "self": self_ns, "calls": calls, "op": op}
