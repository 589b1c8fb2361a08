"""The discrete-event loop every serve and cluster run is driven by."""

from repro.serve import EventLoop


class TestEventLoop:
    def test_runs_events_in_time_order(self):
        loop, seen = EventLoop(), []
        for time_ms in (3.0, 1.0, 2.0):
            loop.at(time_ms, lambda t=time_ms: seen.append((t, loop.now_ms)))
        loop.run()
        assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert loop.pending == 0

    def test_equal_times_run_in_scheduling_order(self):
        loop, seen = EventLoop(), []
        for name in "abc":
            loop.at(5.0, seen.append, name)
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_handlers_schedule_later_events(self):
        loop, seen = EventLoop(), []

        def tick(n):
            seen.append(loop.now_ms)
            if n:
                loop.at(loop.now_ms + 2.0, tick, n - 1)

        loop.at(1.0, tick, 2)
        loop.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_clock_never_moves_backwards(self):
        loop, seen = EventLoop(), []
        loop.at(4.0, lambda: loop.at(1.0, lambda: seen.append(loop.now_ms)))
        loop.run()
        assert seen == [4.0]

    def test_nested_run_defers_to_the_running_loop(self):
        loop, seen = EventLoop(), []

        def outer():
            loop.at(2.0, seen.append, "inner")
            loop.run()                   # returns at once: already running
            seen.append("outer done")

        loop.at(1.0, outer)
        loop.run()
        assert seen == ["outer done", "inner"]
