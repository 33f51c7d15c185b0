"""Tests for repro.net.dispatch: the handler FIFO of the asyncio runtimes."""

import asyncio

from repro.net.dispatch import Dispatcher


def run(scenario):
    async def main():
        dispatch = Dispatcher(asyncio.get_running_loop())
        await scenario(dispatch)

    asyncio.run(main())


class TestDispatcher:
    def test_calls_run_in_push_order_on_a_later_tick(self):
        log = []

        async def scenario(dispatch):
            for i in range(5):
                dispatch.push(log.append, i)
            assert log == []  # never inside push
            await asyncio.sleep(0)
            assert log == [0, 1, 2, 3, 4]

        run(scenario)

    def test_a_handler_is_never_re_entered_by_what_it_pushes(self):
        log = []

        async def scenario(dispatch):
            def handler(depth):
                log.append(("enter", depth))
                if depth < 3:
                    dispatch.push(handler, depth + 1)
                log.append(("leave", depth))

            dispatch.push(handler, 0)
            await asyncio.sleep(0.01)
            assert log == [(w, d) for d in range(4) for w in ("enter", "leave")]

        run(scenario)

    def test_a_drain_leaves_what_its_handlers_push_to_the_next_tick(self):
        # a handler that always pushes a successor must not starve the loop
        ticks = []

        async def scenario(dispatch):
            def forever():
                ticks.append("handler")
                dispatch.push(forever)

            dispatch.push(forever)
            for _ in range(3):
                await asyncio.sleep(0)
                ticks.append("loop")
            dispatch.close()
            assert ticks.count("handler") <= 4 and ticks[-1] == "loop"

        run(scenario)

    def test_push_later_waits_and_zero_delay_joins_the_fifo(self):
        log = []

        async def scenario(dispatch):
            dispatch.push_later(0.05, log.append, "late")
            dispatch.push(log.append, "first")
            dispatch.push_later(0.0, log.append, "second")
            await asyncio.sleep(0.01)
            assert log == ["first", "second"]
            await asyncio.sleep(0.08)
            assert log == ["first", "second", "late"]

        run(scenario)

    def test_a_failing_handler_does_not_stop_the_ones_behind_it(self):
        log = []
        failures = []

        async def scenario(dispatch):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: failures.append(context["exception"])
            )
            dispatch.push(log.append, 1)
            dispatch.push(lambda: 1 / 0)
            dispatch.push(log.append, 2)
            await asyncio.sleep(0.01)
            assert log == [1, 2]
            assert [type(exc) for exc in failures] == [ZeroDivisionError]

        run(scenario)

    def test_close_drops_the_queue_and_later_pushes(self):
        log = []

        async def scenario(dispatch):
            dispatch.push(log.append, "queued")
            dispatch.push_later(0.01, log.append, "timer")
            dispatch.close()
            dispatch.push(log.append, "after")
            await asyncio.sleep(0.03)
            assert log == []

        run(scenario)
