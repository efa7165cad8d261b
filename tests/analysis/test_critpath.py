"""Critical-path analysis: breakdowns, percentiles, attribution rules."""

from __future__ import annotations

from repro.analysis.critpath import (CLASSES, critical_path, critpath_class,
                                     interference_report, latency_tables,
                                     percentile, pick_steal_pair,
                                     request_breakdown)
from repro.bench.report import requests_section


def _request(seq=0, name="call", tenant="1", begin=0, end=1000, *,
             categories=None, steals=None, segments=None, error=False):
    return {"id": f"t/cpu0/{seq}", "seq": seq, "vcpu": 0, "name": name,
            "tenant": tenant, "begin": begin, "end": end, "error": error,
            "categories": categories or {}, "steals": steals or {},
            "segments": segments or []}


def _document(requests, tenants=None, label="t"):
    return {"version": 1, "kind": "hyperenclave-requests",
            "traces": [{"label": label, "tenants": tenants or {},
                        "requests": requests}]}


class TestClassMap:
    def test_known_categories_fold_into_the_five_classes(self):
        assert critpath_class("swap-in") == "swap-stall"
        assert critpath_class("eenter:gu") == "world-switch"
        assert critpath_class("sdk-ecall") == "marshalling"
        assert critpath_class("hypercall") == "kernel"
        assert critpath_class("enclave-memory") == "enclave-compute"

    def test_mapping_is_total(self):
        assert critpath_class("no-such-category") == "other"
        assert critpath_class("exception:gu") == "enclave-compute"
        for category in ("memcpy", "tlb-shootdown", "demand-paging"):
            assert critpath_class(category) in CLASSES

    def test_breakdown_preserves_the_total(self):
        request = _request(categories={"swap-in": 700, "memcpy": 200,
                                       "mystery": 100})
        breakdown = request_breakdown(request)
        assert sum(breakdown.values()) == 1000
        assert breakdown["swap-stall"] == 700
        assert breakdown["other"] == 100


class TestCriticalPath:
    def test_follows_the_heaviest_child(self):
        light = {"kind": "ocall", "begin": 10, "end": 20, "segments": []}
        deep = {"kind": "swap_in", "begin": 120, "end": 420, "segments": []}
        heavy = {"kind": "page_fault", "begin": 100, "end": 600,
                 "segments": [deep]}
        request = _request(end=1000, segments=[light, heavy])
        hops = critical_path(request)
        assert [h["kind"] for h in hops] == \
            ["request", "page_fault", "swap_in"]
        assert hops[0]["cycles"] == 1000
        assert hops[1]["self_cycles"] == 500 - 300

    def test_tie_breaks_on_the_earliest_child(self):
        first = {"kind": "eenter", "begin": 0, "end": 100, "segments": []}
        second = {"kind": "eexit", "begin": 200, "end": 300, "segments": []}
        request = _request(end=400, segments=[first, second])
        hops = critical_path(request)
        assert hops[1]["kind"] == "eenter"


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile([7], 0.99) == 7
        assert percentile([], 0.5) == 0


class TestLatencyTables:
    def test_tail_cause_names_the_dominant_class(self):
        fast = [_request(seq=i, end=100,
                         categories={"enclave-memory": 100})
                for i in range(9)]
        slow = _request(seq=9, end=10_000,
                        categories={"swap-in": 9_000, "memcpy": 1_000})
        rows = latency_tables(_document(fast + [slow]))
        (row,) = rows
        assert row["count"] == 10
        assert row["p50"] == 100
        assert row["p99"] == 10_000
        assert row["tail_class"] == "swap-stall"
        assert "swap-stall" in row["tail_cause"]

    def test_groups_by_tenant_and_name_with_display_names(self):
        requests = [_request(seq=0, tenant="1", name="get"),
                    _request(seq=1, tenant="2", name="get"),
                    _request(seq=2, tenant="1", name="put")]
        rows = latency_tables(_document(requests,
                                        tenants={"1": "tenant-a"}))
        assert [(r["tenant"], r["name"]) for r in rows] == \
            [("tenant-a", "get"), ("tenant-a", "put"), ("2", "get")]


class TestInterference:
    def test_cross_tenant_pairs_beat_self_steals(self):
        requests = [
            _request(seq=0, tenant="2",
                     steals={"1->1": 50, "1->2": 5}),
            _request(seq=1, tenant="1",
                     categories={"swap-in": 400, "memory": 600}),
        ]
        (entry,) = interference_report(
            _document(requests, tenants={"1": "a", "2": "b"}))
        assert entry["victim"] == "a"
        assert entry["aggressor"] == "b"
        (row,) = entry["rows"]
        assert row == {"victim": "a", "aggressor": "b",
                       "frames_stolen": 5,
                       "victim_requests_stalled": 1,
                       "victim_swap_stall_cycles": 400}

    def test_tie_breaks_on_the_smallest_tenant_key(self):
        # Equal counts: max(sorted(...)) keeps the first maximal entry,
        # i.e. the lexically smallest key, so ties never depend on the
        # order steals were recorded in.
        requests = [_request(steals={"a->b": 3, "c->b": 3})]
        (entry,) = interference_report(_document(requests))
        assert entry["victim"] == "a"
        assert entry["aggressor"] == "b"

    def test_self_steals_alone_name_the_thrashing_tenant(self):
        chosen, victim, aggressor = pick_steal_pair({"1->1": 30})
        assert chosen == {"1->1": 30}
        assert (victim, aggressor) == ("1", "1")

    def test_cross_steals_outweigh_larger_self_steals(self):
        chosen, victim, aggressor = pick_steal_pair(
            {"1->1": 50, "2->2": 40, "1->2": 10})
        assert chosen == {"1->2": 10}
        assert (victim, aggressor) == ("1", "2")

    def test_no_steals_reports_none(self):
        document = _document([_request()])
        (entry,) = interference_report(document)
        assert entry["victim"] is None and entry["rows"] == []
        *_, table = requests_section({"requests": document})
        assert table.rows == []
        assert table.empty == "interference [t]: no EPC steals recorded"


class TestRenderers:
    def test_report_and_slowest_render(self):
        slow = _request(seq=1, name="sweep", end=5_000,
                        categories={"swap-out": 4_000},
                        segments=[{"kind": "page_fault", "begin": 100,
                                   "end": 4_100, "segments": []}])
        document = _document([_request(), slow], tenants={"1": "alice"})
        latency, slowest, _ = requests_section({"requests": document})
        assert [row[:4] + row[7:8] for row in latency.rows] == [
            ["t", "alice", "call", "1", "1,000"],
            ["t", "alice", "sweep", "1", "5,000"]]
        assert slowest.title == \
            "slowest 2 of 2 traced requests (simulated cycles):"
        assert slowest.rows[0] == [
            "t/cpu0/1", "alice", "5,000", "swap-stall=4,000",
            "request:sweep (5,000) > page_fault (4,000)"]
        assert slowest.rows[1][:3] == ["t/cpu0/0", "alice", "1,000"]
