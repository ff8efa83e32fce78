"""Generic cartesian parameter sweeps, serial or process-parallel.

Used by the experiment definitions and the ablation benches: run a callable
over the cartesian product of named parameter lists and collect results
keyed by the parameter tuple.

With ``workers=N`` the combinations are dispatched in chunks to a
``ProcessPoolExecutor``. Results come back in *product order* regardless of
worker completion order, so a parallel sweep is a drop-in replacement for a
serial one. Each worker process carries its own
:mod:`repro.backend.plancache` — on Linux (fork start method) workers
inherit whatever the parent already warmed.

Failures can be captured per combination (``on_error="capture"``): a
failing combo yields a :class:`SweepFailure` record in its slot instead of
aborting the whole sweep — what a 2000-point paper-figure grid needs when
one corner hits an infeasible RWA budget.
"""

from __future__ import annotations

import itertools
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

ON_ERROR = ("raise", "capture")


@dataclass(frozen=True)
class SweepFailure:
    """One failed sweep combination (``on_error="capture"`` mode).

    Attributes:
        params: The keyword arguments of the failing call.
        error: ``repr`` of the raised exception.
        traceback: Formatted traceback text for debugging.
    """

    params: dict[str, Any]
    error: str
    traceback: str

    def __bool__(self) -> bool:
        """Failures are falsy so ``if result:`` filters them naturally."""
        return False


class SweepCombinationError(RuntimeError):
    """A combination failed inside a worker process (``on_error="raise"``).

    Wraps the worker-side traceback text (the original exception object may
    not survive pickling back to the parent). ``params`` names the failing
    combination, ``error`` is the ``repr`` of the original exception and
    ``traceback`` the formatted worker-side traceback. The error itself
    pickles with all three intact (it may cross process boundaries again,
    e.g. in nested sweeps).
    """

    def __init__(self, params: dict[str, Any], error: str, tb: str) -> None:
        self.params = dict(params)
        self.error = error
        self.traceback = tb
        super().__init__(
            f"sweep combination {params!r} failed: {error}\n{tb}"
        )

    def __reduce__(self):
        """Pickle via the 3-argument constructor (the default exception
        reduction would replay only the formatted message)."""
        return (self.__class__, (self.params, self.error, self.traceback))


def _run_combo(
    fn: Callable[..., Any],
    params: dict[str, Any],
    capture: bool,
) -> tuple[Any, bool]:
    """Evaluate one combination; returns (payload, ok)."""
    try:
        return fn(**params), True
    except Exception as exc:  # noqa: BLE001 — per-combo isolation is the point
        if not capture:
            raise
        return (
            SweepFailure(
                params=params,
                error=repr(exc),
                traceback=_traceback.format_exc(),
            ),
            False,
        )


def _run_chunk(
    fn: Callable[..., Any],
    names: list[str],
    combos: list[tuple],
    on_error: str,
) -> list[tuple[Any, bool]]:
    """Worker entry point: evaluate a chunk of combinations in order.

    Always captures exceptions (worker-side tracebacks rarely pickle); the
    parent re-raises for ``on_error="raise"``.
    """
    return [
        _run_combo(fn, dict(zip(names, combo)), capture=True)
        for combo in combos
    ]


def sweep(
    fn: Callable[..., Any],
    parameters: Mapping[str, Sequence],
    workers: int | None = None,
    chunk_size: int | None = None,
    on_error: str = "raise",
) -> dict[tuple, Any]:
    """Evaluate ``fn`` on every combination of ``parameters``.

    Args:
        fn: Called with one keyword argument per parameter name. Must be
            picklable (module-level function or :func:`functools.partial`
            of one) when ``workers`` is set.
        parameters: ``name -> list of values``; iteration order of the
            mapping fixes the key-tuple order.
        workers: ``None``/``0``/``1`` runs serially in-process (bit-exact
            seed behaviour); ``N > 1`` dispatches to a process pool.
        chunk_size: Combinations per worker task; defaults to spreading the
            product over ``4 × workers`` tasks (at least 1 per task).
        on_error: ``"raise"`` (default) propagates the first failure in
            product order; ``"capture"`` stores a :class:`SweepFailure` in
            the failing combo's slot and keeps going.

    Returns:
        ``{(v1, v2, ...): fn(name1=v1, name2=v2, ...)}`` in product order —
        identical ordering whether serial or parallel.
    """
    if not parameters:
        raise ValueError("sweep needs at least one parameter")
    if on_error not in ON_ERROR:
        raise ValueError(f"on_error must be one of {ON_ERROR}, got {on_error!r}")
    names = list(parameters)
    combos = list(itertools.product(*(parameters[n] for n in names)))
    results: dict[tuple, Any] = {}

    if workers is None or workers <= 1:
        for combo in combos:
            payload, _ok = _run_combo(
                fn, dict(zip(names, combo)), capture=on_error == "capture"
            )
            results[combo] = payload
        return results

    if chunk_size is None:
        chunk_size = max(1, len(combos) // (workers * 4) or 1)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = [combos[i : i + chunk_size] for i in range(0, len(combos), chunk_size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_chunk, fn, names, chunk, on_error) for chunk in chunks
        ]
        # Collect in submission order: product-order determinism.
        for chunk, future in zip(chunks, futures):
            try:
                chunk_results = future.result()
            except Exception as exc:  # noqa: BLE001 — pool-level failure
                # The whole chunk died at pool level (worker killed →
                # BrokenProcessPool, or the chunk's result failed to
                # pickle/unpickle). No worker-side payloads exist, so
                # synthesize one failure per slot to keep the product-order
                # contract; "raise" surfaces the chunk's first combination.
                tb = _traceback.format_exc()
                if on_error == "raise":
                    raise SweepCombinationError(
                        dict(zip(names, chunk[0])), repr(exc), tb
                    ) from exc
                for combo in chunk:
                    results[combo] = SweepFailure(
                        params=dict(zip(names, combo)),
                        error=repr(exc),
                        traceback=tb,
                    )
                continue
            for combo, (payload, ok) in zip(chunk, chunk_results):
                if not ok and on_error == "raise":
                    raise SweepCombinationError(
                        payload.params, payload.error, payload.traceback
                    )
                results[combo] = payload
    return results
