"""The one scheduler that spreads tasks over worker processes."""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator, Sequence

_Groups = Sequence[Sequence[Hashable]]


def check_workers(workers: object) -> None:
    """Refuse a worker count that is not an int of at least 1; a bool is not one.

    Every entry point that takes ``workers`` calls this before it starts
    any process, so a bad value fails the same way wherever it is passed.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")


def shared_results(groups: _Groups, workers: int, run: Callable) -> Iterator[tuple]:
    """``run(task)`` for every task of ``groups``, here and in up to ``workers - 1`` children.

    Each result's first item is its task.  Each process claims the next whole
    group, in the order given, from a shared counter until none is left.
    Children fork before this process runs anything and send each result up
    a one-way pipe, which this process drains between its own tasks.  A task
    whose result never arrived (a child died) is run here once every pipe is
    closed.  Closing the generator early stops the children.
    """
    # Imported here: the package import and a one-worker run load neither
    # multiprocessing nor the ctypes behind ``Value`` (a test checks it).
    from multiprocessing import Pipe, Process, Value
    from multiprocessing.connection import wait

    claimed = Value("i", 0)
    children: list[Process] = []
    live = []
    try:
        for _ in range(min(workers, len(groups)) - 1):
            reader, writer = Pipe(duplex=False)
            child = Process(target=_child, args=(groups, claimed, writer, run), daemon=True)
            child.start()
            writer.close()  # the child holds the only writer, so its exit reads as EOF
            children.append(child)
            live.append(reader)

        missing = {task for group in groups for task in group}

        def received(timeout: float | None) -> Iterator[tuple]:
            for reader in wait(live, timeout):
                try:
                    result = reader.recv()
                except EOFError:
                    live.remove(reader)
                    reader.close()
                    continue
                missing.discard(result[0])
                yield result

        for group in _claims(groups, claimed):
            for task in group:
                missing.discard(task)
                yield run(task)
                yield from received(0)
        while live:
            yield from received(None)
        for task in missing:
            yield run(task)
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
            child.join()
        for reader in live:
            reader.close()


def _claims(groups: _Groups, claimed) -> Iterator[Sequence[Hashable]]:
    """Groups claimed through the shared counter, one at a time, until none is left."""
    while True:
        with claimed.get_lock():
            index = claimed.value
            claimed.value = index + 1
        if index >= len(groups):
            return
        yield groups[index]


def _child(groups: _Groups, claimed, results, run: Callable) -> None:
    """Child process: run the tasks of each claimed group, sending each result."""
    with results:
        for group in _claims(groups, claimed):
            for task in group:
                results.send(run(task))
