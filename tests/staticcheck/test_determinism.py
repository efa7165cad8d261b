"""SC001/SC002: the determinism pass over fixture corpora."""

from __future__ import annotations

from repro.staticcheck.config import StaticcheckConfig


def by_rule(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


class TestSC001:
    def test_direct_wall_clock_in_hw(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step(n):
                """Step."""
                return time.time() + n
            '''})
        hits = by_rule(found, "SC001")
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[-1] == "time.time"
        assert "wall clock" in hits[0].message

    def test_interprocedural_chain_across_modules(self, run_passes):
        found = run_passes({
            "hw/engine.py": '''
                """Fixture."""
                from repro.support.clocks import now

                def step(n):
                    """Step."""
                    return now() + n
                ''',
            "support/clocks.py": '''
                """Fixture."""
                import time

                def now():
                    """Now."""
                    return time.time()
                ''',
        })
        hits = by_rule(found, "SC001")
        assert len(hits) == 1
        assert hits[0].chain == ["repro.hw.engine:step",
                                 "repro.support.clocks:now", "time.time"]
        assert hits[0].path.endswith("support/clocks.py")

    def test_renamed_import_still_caught(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            from time import perf_counter as pc

            def step():
                """Step."""
                return pc()
            '''})
        assert [f.sink for f in by_rule(found, "SC001")] == \
            ["time.perf_counter"]

    def test_local_alias_still_caught(self, run_passes):
        found = run_passes({"monitor/mod.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                t = time.clock_gettime_ns
                return t(0)
            '''})
        assert [f.sink for f in by_rule(found, "SC001")] == \
            ["time.clock_gettime_ns"]

    def test_environ_and_id_flagged(self, run_passes):
        found = run_passes({"osim/mod.py": '''
            """Fixture."""
            import os

            def step(obj):
                """Step."""
                return os.environ.get("X"), id(obj)
            '''})
        sinks = sorted(f.sink for f in by_rule(found, "SC001"))
        assert sinks == ["builtins.id", "os.environ.get"]

    def test_seeded_random_allowed_unseeded_flagged(self, run_passes):
        found = run_passes({"hw/rng.py": '''
            """Fixture."""
            import random

            def good(seed):
                """Good."""
                return random.Random(seed).random()

            def bad():
                """Bad."""
                return random.random()
            '''})
        hits = by_rule(found, "SC001")
        assert [f.symbol for f in hits] == ["repro.hw.rng:bad"]

    def test_excluded_observer_layer_not_flagged(self, run_passes):
        found = run_passes({
            "hw/engine.py": '''
                """Fixture."""
                from repro.telemetry.export import stamp

                def step():
                    """Step."""
                    return stamp()
                ''',
            "telemetry/export.py": '''
                """Fixture."""
                import time

                def stamp():
                    """Host-side export timestamp."""
                    # repro-lint: disable=SC001 -- host-side export stamp
                    return time.time()
                ''',
        })
        # The traversal stops at the observer; the read itself is
        # waived by its pragma (the file-local arm sees every file).
        assert by_rule(found, "SC001") == []
        waived = [f for f in found if f.rule == "SC001"]
        assert [f.symbol for f in waived] == ["repro.telemetry.export:stamp"]

    def test_untracked_layer_not_a_root(self, run_passes):
        # apps/ is not a determinism root, so no charged chain leads
        # here; only the file-local arm reports the direct reference.
        found = run_passes({"apps/tool.py": '''
            """Fixture."""
            import time

            def stamp():
                """Stamp."""
                return time.time()
            '''})
        hits = by_rule(found, "SC001")
        assert [f.chain for f in hits] == \
            [["repro.apps.tool:stamp", "time.time"]]
        assert "reachable from cycle-charged code" not in hits[0].message

    def test_pragma_suppresses_with_justification(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                # repro-lint: disable=SC001 -- fixture waiver
                return time.time()
            '''})
        hits = [f for f in found if f.rule == "SC001"]
        assert len(hits) == 1
        assert hits[0].suppressed
        assert hits[0].justification == "fixture waiver"

    def test_request_tracer_root_beats_telemetry_exclude(self, run_passes):
        # Mirrors the repository's policy: the request tracer stamps
        # trace ids at SDK and monitor hook sites on the charged path,
        # so repro/telemetry/requests.py is a determinism root even
        # though the rest of telemetry/ is excluded observer code.
        config = StaticcheckConfig(
            determinism_roots=("repro/hw/", "repro/monitor/",
                               "repro/osim/",
                               "repro/telemetry/requests.py"),
            determinism_exclude=("repro/telemetry/core.py",
                                 "repro/telemetry/export.py",
                                 "repro/profiler/"))
        files = {
            "telemetry/requests.py": '''
                """Fixture."""
                import time

                def trace_id(seq):
                    """A tracer that cheats with host time."""
                    return time.monotonic() + seq
                ''',
            "telemetry/export.py": '''
                """Fixture."""
                import time

                def stamp():
                    """Host-side export timestamp: legitimately excluded."""
                    # repro-lint: disable=SC001 -- host-side export stamp
                    return time.time()
                ''',
        }
        hits = by_rule(run_passes(files, config), "SC001")
        assert [f.sink for f in hits] == ["time.monotonic"]
        assert hits[0].symbol == "repro.telemetry.requests:trace_id"
        assert "wall clock" in hits[0].message

    def test_disable_rule_via_config(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                return time.time()
            '''}, StaticcheckConfig(disable=("SC001",)))
        assert by_rule(found, "SC001") == []


class TestSC002:
    def test_set_loop_feeding_charge(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def sweep(counter, frames):
                """Sweep."""
                live = set(frames)
                for frame in live:
                    counter.charge(frame, 'epc')
                return 0
            '''})
        hits = by_rule(found, "SC002")
        assert len(hits) == 1
        assert "live" in hits[0].sink

    def test_sorted_set_loop_allowed(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def sweep(counter, frames):
                """Sweep."""
                live = set(frames)
                for frame in sorted(live):
                    counter.charge(frame, 'epc')
                return 0
            '''})
        assert by_rule(found, "SC002") == []

    def test_set_loop_without_charges_allowed(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def count(frames):
                """Count."""
                total = 0
                for frame in set(frames):
                    total += frame
                return total
            '''})
        assert by_rule(found, "SC002") == []
