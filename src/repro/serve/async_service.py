"""Asyncio front end: awaitable submissions over the deterministic core.

:class:`AsyncDecodeService` wraps a :class:`~repro.serve.service.DecodeService`
for event-loop callers: ``await submit(...)`` performs admission
control inline (it is cheap and synchronous) and returns the ticket
*plus* an awaitable for the terminal verdict; a background pump task
runs dispatch cycles -- off the event loop via
:func:`asyncio.to_thread`, so BLAS-heavy solves never block admission
-- whenever there is backlog.

The split keeps the robustness logic testable: everything that decides
*what happens to a frame* lives in the synchronous core and is covered
by the deterministic overload tests; this module only adds scheduling
(futures, the pump task, graceful shutdown) and inherits the core's
zero-unanswered-frames contract -- ``aclose`` drains the backlog, so
every pending future resolves before the loop is released.  The
contract survives *ungraceful* shutdown too: if the pump task is
cancelled mid-cycle (event-loop teardown, task group abort), every
still-pending future resolves with a terminal ``shed``/``"shutdown"``
verdict instead of dangling forever.

Typical use::

    service = DecodeService(executor="process", cycle_budget=16)
    ...register tenants and streams...
    async with AsyncDecodeService(service) as srv:
        ticket, verdict = await srv.decode("skin-7", frame, deadline_s=0.1)
        if ticket.admitted:
            print((await verdict).status)
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np

from .service import DecodeService, FrameVerdict, SubmitTicket

__all__ = ["AsyncDecodeService"]


class AsyncDecodeService:
    """Awaitable facade over a :class:`~repro.serve.service.DecodeService`.

    Use as an async context manager (starts the pump on enter, drains
    and stops it on exit), or call :meth:`start` / :meth:`aclose`
    explicitly.  One pump task per instance; submissions from any
    number of coroutines are serialised through an ``asyncio.Lock``
    because the core is deliberately single-threaded.
    """

    def __init__(self, service: DecodeService):
        self._service = service
        if service.on_verdict is not None:
            raise ValueError(
                "the wrapped DecodeService already has an on_verdict "
                "callback; AsyncDecodeService needs to own it"
            )
        service.on_verdict = self._on_verdict
        self._lock = asyncio.Lock()
        self._wakeup: asyncio.Event | None = None
        self._pump_task: asyncio.Task | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._tickets: dict[int, SubmitTicket] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = False

    @property
    def service(self) -> DecodeService:
        """The wrapped deterministic core (reports, alerts, accounting)."""
        return self._service

    # -- lifecycle ----------------------------------------------------------
    async def __aenter__(self) -> "AsyncDecodeService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def start(self) -> None:
        """Start the background pump task (idempotent)."""
        if self._pump_task is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._closing = False
        self._pump_task = asyncio.create_task(self._pump())

    async def aclose(self) -> None:
        """Drain the backlog, resolve every pending future, stop the pump.

        Safe to call after the pump task was cancelled externally: the
        cancellation is absorbed, the core still drains, and any future
        the drain could not answer (its frame was lost with the
        cancelled cycle) resolves with a terminal ``"shutdown"``
        verdict.
        """
        if self._pump_task is None:
            return
        self._closing = True
        assert self._wakeup is not None
        self._wakeup.set()
        with contextlib.suppress(asyncio.CancelledError):
            await self._pump_task
        self._pump_task = None
        # The core's stop() rejects future submissions and drains, so
        # no admitted frame is left without a verdict.
        async with self._lock:
            await asyncio.to_thread(self._service.stop)
        # Belt and braces: anything still unresolved (e.g. the pump was
        # cancelled mid-cycle and the drain could not re-answer it)
        # gets the terminal shutdown verdict rather than dangling.
        self._resolve_pending_shutdown()

    # -- submission ---------------------------------------------------------
    async def submit(
        self,
        stream: str,
        frame: np.ndarray,
        deadline_s: float | None = None,
    ) -> tuple[SubmitTicket, "asyncio.Future[FrameVerdict] | None"]:
        """Admit one frame; returns ``(ticket, verdict_future)``.

        The future is ``None`` when the ticket was rejected (rejection
        *is* the terminal answer).  Otherwise it resolves with the
        frame's :class:`~repro.serve.service.FrameVerdict` once a
        dispatch cycle produces it.
        """
        if self._pump_task is None:
            raise RuntimeError("service not started; use 'async with'")
        async with self._lock:
            ticket = self._service.submit(stream, frame, deadline_s)
            future: asyncio.Future | None = None
            if ticket.admitted:
                assert self._loop is not None
                future = self._loop.create_future()
                self._futures[ticket.seq] = future
                self._tickets[ticket.seq] = ticket
        assert self._wakeup is not None
        self._wakeup.set()
        return ticket, future

    async def decode(
        self,
        stream: str,
        frame: np.ndarray,
        deadline_s: float | None = None,
    ) -> tuple[SubmitTicket, FrameVerdict | None]:
        """Submit and await the terminal verdict in one call.

        Returns ``(ticket, verdict)``; ``verdict`` is ``None`` when the
        submission was rejected at admission.
        """
        ticket, future = await self.submit(stream, frame, deadline_s)
        if future is None:
            return ticket, None
        return ticket, await future

    # -- internals ----------------------------------------------------------
    def _on_verdict(self, verdict: FrameVerdict) -> None:
        """Core callback: resolve the matching future (thread-safe)."""
        future = self._futures.pop(verdict.seq, None)
        self._tickets.pop(verdict.seq, None)
        if future is None or future.done():
            return
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(
            lambda: None if future.done() else future.set_result(verdict)
        )

    def _resolve_pending_shutdown(self) -> None:
        """Resolve every dangling future with a terminal shutdown verdict.

        Runs on the event loop thread (cancellation handler / aclose
        epilogue), so futures are resolved directly.  The synthetic
        verdict is honest: ``shed`` with reason ``"shutdown"`` -- the
        service died before (or while) deciding the frame, and the
        caller must not wait forever for an answer that can no longer
        arrive.
        """
        for seq, future in sorted(self._futures.items()):
            ticket = self._tickets.get(seq)
            if future.done():
                continue
            stream = "" if ticket is None else ticket.stream
            state = self._service._streams.get(stream)
            future.set_result(
                FrameVerdict(
                    seq=seq,
                    stream=stream,
                    tenant="" if ticket is None else ticket.tenant,
                    priority=0 if state is None else state.priority,
                    status="shed",
                    reason="shutdown",
                )
            )
        self._futures.clear()
        self._tickets.clear()

    async def _pump(self) -> None:
        """Run dispatch cycles while there is backlog; sleep otherwise.

        Cancellation mid-cycle is terminal for the pump but must not be
        terminal for the *callers*: every future still pending when the
        cancel lands resolves with the ``shed``/``"shutdown"`` verdict
        before the cancellation propagates.
        """
        assert self._wakeup is not None
        try:
            while True:
                if self._service.backlog == 0:
                    if self._closing:
                        return
                    self._wakeup.clear()
                    await self._wakeup.wait()
                    continue
                async with self._lock:
                    await asyncio.to_thread(self._service.run_cycle)
                # Yield so submitters interleave between cycles.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            self._resolve_pending_shutdown()
            raise
