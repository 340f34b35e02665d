"""The open-loop generator keeps its schedule and flags falling behind."""

import asyncio
import time

from openloop import OpenLoop


def test_sends_every_due_request_in_order():
    sent = []
    loop = OpenLoop(rate=200.0, late_limit=0.05)

    async def main():
        start = time.perf_counter() + 0.01
        count = await loop.run(start, start + 0.25,
                               lambda i, due: sent.append((i, due)))
        return start, count

    start, count = asyncio.run(main())
    assert count == 50 == len(sent) == len(loop.late)
    assert [i for i, __ in sent] == list(range(50))
    for index, due in sent:
        assert abs(due - (start + index / 200.0)) < 1e-9
    assert min(loop.late) >= 0.0
    assert not loop.behind


def test_a_generator_that_stalls_is_flagged_and_catches_up():
    loop = OpenLoop(rate=1000.0, late_limit=0.005)
    sent = []

    def send(index, due):
        sent.append(index)
        if index == 5:
            time.sleep(0.05)  # the generator's own process stalls

    async def main():
        start = time.perf_counter() + 0.01
        return await loop.run(start, start + 0.1, send)

    assert asyncio.run(main()) == 100
    # requests due during the stall went out late, at once, in order
    assert sent == list(range(100))
    assert max(loop.late) >= 0.04
    assert loop.behind
