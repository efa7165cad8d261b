"""Tests for ``python -m repro.bench report``, the one reader of a run.

The golden files under ``report_golden/`` pin the text and markdown
digests of the committed Table 1 baseline and of an ``epc_pressure``
run with ``--requests``.  Every golden line must appear, in order, in
the rendered output; the lines the report adds on top of the goldens
(the top-frames table, the paper-vs-measured table, and for
``epc_pressure`` the slowest-requests table) are listed explicitly
below, and so are the golden lines that changed when those tables moved
here (``EPC_CHANGED``: the ``max`` column and the swap-stall cycles).

The same ``epc_pressure`` run writes its ``--artifacts`` files, which
are read back from disk and checked, as is a ``table2_exceptions
--requests`` run (the exception path writes the ``aex``, ``eresume``
and ``hypercall`` segment kinds that ``epc_pressure`` never does).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.critpath import interference_report
from repro.bench import load_artifact
from repro.bench.cli import main as bench_main
from repro.bench.runner import DEFAULT_BASELINE_DIR
from repro.telemetry.schema import validate_snapshot

GOLDEN = pathlib.Path(__file__).parent / "report_golden"
FORMATS = [("text", "txt"), ("markdown", "md")]

TABLE1_TOP = {
    "text": [
        "  top 10 frames by self cycles (of 34,959,100 span cycles across "
        "4 machine(s)):",
        "        15,566,892  sdk.ecall  (2416 calls)",
        "         5,144,872  sdk.ecall;world.eenter  (2416 calls)",
        "         4,687,644  sdk.ecall;world.eexit  (2416 calls)",
        "         3,156,806  sdk.ecall;sdk.ocall  (1208 calls)",
        "         2,572,436  sdk.ecall;sdk.ocall;world.eenter  (1208 calls)",
        "         2,343,822  sdk.ecall;sdk.ocall;world.eexit  (1208 calls)",
        "         1,421,280  sdk.create_enclave  (4 calls)",
        "            48,588  sdk.create_enclave;os.mmap  (4 calls)",
        "             9,032  world.eenter  (6 calls)",
        "             7,728  world.eexit  (6 calls)",
    ],
    "markdown": [
        "**Top 10 frames by self cycles (of 34,959,100 span cycles across "
        "4 machine(s)):**",
        "| self cycles | stack | calls |",
        "| --- | --- | --- |",
        "| 15,566,892 | sdk.ecall | 2416 |",
        "| 5,144,872 | sdk.ecall;world.eenter | 2416 |",
        "| 4,687,644 | sdk.ecall;world.eexit | 2416 |",
        "| 3,156,806 | sdk.ecall;sdk.ocall | 1208 |",
        "| 2,572,436 | sdk.ecall;sdk.ocall;world.eenter | 1208 |",
        "| 2,343,822 | sdk.ecall;sdk.ocall;world.eexit | 1208 |",
        "| 1,421,280 | sdk.create_enclave | 4 |",
        "| 48,588 | sdk.create_enclave;os.mmap | 4 |",
        "| 9,032 | world.eenter | 6 |",
        "| 7,728 | world.eexit | 6 |",
    ],
}
TABLE1_PAPER = {
    "text": ["  paper vs measured (Table 1 ECALL cycles):",
             "    row                       paper   measured  match",
             "    HU-Enclave                8,440      8,440  exact",
             "    GU-Enclave                9,480      9,480  exact",
             "    P-Enclave                 9,700      9,700  exact",
             "    Intel SGX                14,432     14,432  exact"],
    "markdown": ["**Paper vs measured (Table 1 ECALL cycles):**",
                 "| row | paper | measured | match |",
                 "| --- | --- | --- | --- |",
                 "| HU-Enclave | 8,440 | 8,440 | exact |",
                 "| GU-Enclave | 9,480 | 9,480 | exact |",
                 "| P-Enclave | 9,700 | 9,700 | exact |",
                 "| Intel SGX | 14,432 | 14,432 | exact |"],
}
EPC_ADDED = {
    "text": [
        "  top 9 frames by self cycles (of 260,781,635 span cycles across "
        "1 machine(s)):",
        "       126,976,000  sdk.ecall;monitor.pagefault;monitor.swap_in "
        " (8192 calls)",
        "       114,688,000 "
        " sdk.ecall;monitor.pagefault;monitor.swap_in;monitor.swap_out "
        " (8192 calls)",
        "         9,100,000  sdk.ecall;monitor.pagefault;monitor.swap_out "
        " (650 calls)",
        "         5,447,680  sdk.ecall;monitor.pagefault  (12288 calls)",
        "         4,229,808  sdk.ecall  (48 calls)",
        "           188,040  sdk.create_enclave  (2 calls)",
        "            81,792  sdk.ecall;world.eenter  (48 calls)",
        "            63,312  sdk.ecall;world.eexit  (48 calls)",
        "             7,003  sdk.create_enclave;os.mmap  (2 calls)",
        "  slowest 5 of 48 traced requests (simulated cycles):",
        "    machine-1/cpu0/16  [tenant-a]  7,611,400 cycles",
        "      breakdown: enclave-compute=49,920, world-switch=3,347, "
        "marshalling=6,133, swap-stall=7,552,000",
        "      critical path: request:sweep (7,611,400) > "
        "page_fault:0x200000080000 (29,500) > swap_in:0x200000080000 "
        "(29,500) > swap_out:0x200000182000 (14,000)",
        "    machine-1/cpu0/17  [tenant-a]  7,611,400 cycles",
        "      breakdown: enclave-compute=49,920, world-switch=3,347, "
        "marshalling=6,133, swap-stall=7,552,000",
        "      critical path: request:sweep (7,611,400) > "
        "page_fault:0x200000180000 (29,500) > swap_in:0x200000180000 "
        "(29,500) > swap_out:0x200000283000 (14,000)",
        "    machine-1/cpu0/18  [tenant-a]  7,611,400 cycles",
        "      breakdown: enclave-compute=49,920, world-switch=3,347, "
        "marshalling=6,133, swap-stall=7,552,000",
        "      critical path: request:sweep (7,611,400) > "
        "page_fault:0x200000280000 (29,500) > swap_in:0x200000280000 "
        "(29,500) > swap_out:0x200000383000 (14,000)",
        "    machine-1/cpu0/19  [tenant-a]  7,611,400 cycles",
        "      breakdown: enclave-compute=49,920, world-switch=3,347, "
        "marshalling=6,133, swap-stall=7,552,000",
        "      critical path: request:sweep (7,611,400) > "
        "page_fault:0x200000380000 (29,500) > swap_in:0x200000380000 "
        "(29,500) > swap_out:0x200000483000 (14,000)",
        "    machine-1/cpu0/20  [tenant-a]  7,611,400 cycles",
        "      breakdown: enclave-compute=49,920, world-switch=3,347, "
        "marshalling=6,133, swap-stall=7,552,000",
        "      critical path: request:sweep (7,611,400) > "
        "page_fault:0x200000480000 (29,500) > swap_in:0x200000480000 "
        "(29,500) > swap_out:0x200000583000 (14,000)",
    ],
    "markdown": [
        "**Top 9 frames by self cycles (of 260,781,635 span cycles across "
        "1 machine(s)):**",
        "| self cycles | stack | calls |",
        "| --- | --- | --- |",
        "| 126,976,000 | sdk.ecall;monitor.pagefault;monitor.swap_in | "
        "8192 |",
        "| 114,688,000 | "
        "sdk.ecall;monitor.pagefault;monitor.swap_in;monitor.swap_out | "
        "8192 |",
        "| 9,100,000 | sdk.ecall;monitor.pagefault;monitor.swap_out | 650 |",
        "| 5,447,680 | sdk.ecall;monitor.pagefault | 12288 |",
        "| 4,229,808 | sdk.ecall | 48 |",
        "| 188,040 | sdk.create_enclave | 2 |",
        "| 81,792 | sdk.ecall;world.eenter | 48 |",
        "| 63,312 | sdk.ecall;world.eexit | 48 |",
        "| 7,003 | sdk.create_enclave;os.mmap | 2 |",
        "**Slowest 5 of 48 traced requests (simulated cycles):**",
        "| request | tenant | cycles | breakdown | critical path |",
        "| --- | --- | --- | --- | --- |",
        "| machine-1/cpu0/16 | tenant-a | 7,611,400 | "
        "enclave-compute=49,920, world-switch=3,347, marshalling=6,133, "
        "swap-stall=7,552,000 | request:sweep (7,611,400) > "
        "page_fault:0x200000080000 (29,500) > swap_in:0x200000080000 "
        "(29,500) > swap_out:0x200000182000 (14,000) |",
        "| machine-1/cpu0/17 | tenant-a | 7,611,400 | "
        "enclave-compute=49,920, world-switch=3,347, marshalling=6,133, "
        "swap-stall=7,552,000 | request:sweep (7,611,400) > "
        "page_fault:0x200000180000 (29,500) > swap_in:0x200000180000 "
        "(29,500) > swap_out:0x200000283000 (14,000) |",
        "| machine-1/cpu0/18 | tenant-a | 7,611,400 | "
        "enclave-compute=49,920, world-switch=3,347, marshalling=6,133, "
        "swap-stall=7,552,000 | request:sweep (7,611,400) > "
        "page_fault:0x200000280000 (29,500) > swap_in:0x200000280000 "
        "(29,500) > swap_out:0x200000383000 (14,000) |",
        "| machine-1/cpu0/19 | tenant-a | 7,611,400 | "
        "enclave-compute=49,920, world-switch=3,347, marshalling=6,133, "
        "swap-stall=7,552,000 | request:sweep (7,611,400) > "
        "page_fault:0x200000380000 (29,500) > swap_in:0x200000380000 "
        "(29,500) > swap_out:0x200000483000 (14,000) |",
        "| machine-1/cpu0/20 | tenant-a | 7,611,400 | "
        "enclave-compute=49,920, world-switch=3,347, marshalling=6,133, "
        "swap-stall=7,552,000 | request:sweep (7,611,400) > "
        "page_fault:0x200000480000 (29,500) > swap_in:0x200000480000 "
        "(29,500) > swap_out:0x200000583000 (14,000) |",
    ],
}
EPC_CHANGED = {
    "text": [
        "    trace          tenant     call              count        p50 "
        "       p95        p99        max  tail cause",
        "    machine-1      tenant-a   sweep                24  7,611,400 "
        " 7,611,400  7,611,400  7,611,400  p99 dominated by swap-stall (99%)",
        "    machine-1      tenant-b   sweep                24  7,611,400 "
        " 7,611,400  7,611,400  7,611,400  p99 dominated by swap-stall (99%)",
        "    tenant-a <- tenant-b: 328 frames stolen, 24 request(s) stalled "
        "for 123,555,840 swap-stall cycles",
        "    tenant-b <- tenant-a: 2 frames stolen, 24 request(s) stalled "
        "for 132,655,840 swap-stall cycles",
    ],
    "markdown": [
        "| trace | tenant | call | count | p50 | p95 | p99 | max "
        "| tail cause |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
        "| machine-1 | tenant-a | sweep | 24 | 7,611,400 | 7,611,400 "
        "| 7,611,400 | 7,611,400 | p99 dominated by swap-stall (99%) |",
        "| machine-1 | tenant-b | sweep | 24 | 7,611,400 | 7,611,400 "
        "| 7,611,400 | 7,611,400 | p99 dominated by swap-stall (99%) |",
        "| trace | victim | aggressor | frames stolen | requests stalled "
        "| swap-stall cycles |",
        "| --- | --- | --- | --- | --- | --- |",
        "| machine-1 | tenant-a | tenant-b | 328 | 24 | 123,555,840 |",
        "| machine-1 | tenant-b | tenant-a | 2 | 24 | 132,655,840 |",
    ],
}


def _added(expected: list[str], actual: list[str]) -> list[str]:
    """Non-blank lines of ``actual`` beyond the ordered subsequence
    ``expected`` (fails when a golden line is missing)."""
    added, i = [], 0
    for line in actual:
        if i < len(expected) and line == expected[i]:
            i += 1
        elif line:
            added.append(line)
    assert i == len(expected), f"golden line missing: {expected[i]!r}"
    return added


def _report(capsys, *argv) -> list[str]:
    assert bench_main(["report", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def _run(directory: pathlib.Path, name: str, *flags: str) -> pathlib.Path:
    """Run one benchmark with its artifact and ``--artifacts`` files in
    ``directory``; returns the artifact path."""
    assert bench_main(["run", name, *flags, "--baseline-dir", str(directory),
                       "--artifacts", str(directory)]) == 0
    return directory / f"BENCH_{name}.json"


@pytest.fixture(scope="module")
def epc_artifact(tmp_path_factory):
    """One ``epc_pressure`` run with the request block."""
    return _run(tmp_path_factory.mktemp("epc"), "epc_pressure",
                "--requests")


def _check_on_disk(artifact_path: pathlib.Path) -> tuple[dict, set[str]]:
    """Read a ``--requests`` run's files back from disk and check them;
    returns the artifact and the trace's event phases."""
    directory, name = artifact_path.parent, \
        artifact_path.stem.removeprefix("BENCH_")
    validate_snapshot(json.loads(
        (directory / f"{name}.telemetry.json").read_text()))
    artifact = load_artifact(artifact_path)   # checks both blocks too
    assert artifact["requests"] is not None
    events = json.loads((directory / f"{name}.telemetry.trace.json")
                        .read_text())["traceEvents"]
    assert events
    flows = {e["ph"] for e in events if e.get("cat") == "request"}
    assert {"s", "f"} <= flows
    assert any(e["ph"] == "M" and e["name"] == "thread_name"
               for e in events)
    # The artifact is the only copy of the request block.
    assert not list(directory.glob("*.requests.json"))
    return artifact, {e["ph"] for e in events}


@pytest.fixture
def table_artifacts(tmp_path):
    """Copies of the committed Table 1 and Table 2 baselines."""
    for name in ("table1_edge_calls", "table2_exceptions"):
        src = DEFAULT_BASELINE_DIR / f"BENCH_{name}.json"
        (tmp_path / src.name).write_text(src.read_text())
    return tmp_path


@pytest.mark.parametrize("fmt,ext", FORMATS)
def test_committed_table1_baseline(capsys, fmt, ext):
    golden = (GOLDEN / f"table1_edge_calls.{ext}").read_text().splitlines()
    out = _report(capsys, "table1_edge_calls", "--format", fmt)
    assert _added(golden, out) == [*TABLE1_TOP[fmt], *TABLE1_PAPER[fmt]]


@pytest.mark.parametrize("fmt,ext", FORMATS)
def test_epc_pressure_with_requests(capsys, epc_artifact, fmt, ext):
    golden = (GOLDEN / f"epc_pressure.{ext}").read_text().splitlines()
    assert all(line in golden for line in EPC_CHANGED[fmt])
    out = _report(capsys, str(epc_artifact), "--format", fmt)
    assert _added(golden, out) == EPC_ADDED[fmt]


def test_epc_pressure_files_on_disk(epc_artifact):
    artifact, phases = _check_on_disk(epc_artifact)
    assert artifact["requests"]["traces"][0]["requests"]
    assert "C" not in phases      # spans and request flows only


def test_interference_rows_add_up_to_the_monitor_count(epc_artifact):
    """The traced steals are the monitor's own ``epc_steals``: the
    cross-tenant rows sum to the ``cross_tenant_steals`` figure."""
    artifact = load_artifact(epc_artifact)
    (entry,) = interference_report(artifact["requests"])
    cross = sum(row["frames_stolen"] for row in entry["rows"]
                if row["victim"] != row["aggressor"])
    assert cross == artifact["figures"]["cross_tenant_steals"] == 330


def test_table2_request_segments_on_disk(tmp_path):
    artifact, _ = _check_on_disk(
        _run(tmp_path, "table2_exceptions", "--requests"))
    kinds = set()

    def walk(segments):
        for segment in segments:
            kinds.add(segment["kind"])
            walk(segment["segments"])

    for trace in artifact["requests"]["traces"]:
        for request in trace["requests"]:
            walk(request["segments"])
    assert {"aex", "eresume", "hypercall"} <= kinds


@pytest.mark.parametrize("fmt", ["text", "markdown"])
def test_paper_lines_mark_exact_matches(capsys, table_artifacts, fmt):
    out = "\n".join(_report(capsys, "--baseline-dir", str(table_artifacts),
                            "--format", fmt))
    # Four Table 1 ECALLs and three Table 2 #UDs land on the paper.
    assert out.count("  exact") + out.count("| exact |") == 7
    assert "DIFFERS" not in out


def test_paper_lines_mark_mismatches(capsys, table_artifacts):
    path = table_artifacts / "BENCH_table1_edge_calls.json"
    doc = json.loads(path.read_text())
    doc["figures"]["HU-Enclave"]["ecall"] = 9999.0
    path.write_text(json.dumps(doc))
    out = _report(capsys, str(path))
    assert "    HU-Enclave                8,440      9,999  DIFFERS" in out


def test_partial_artifact_set(capsys, tmp_path):
    # Only Table 2: its paper lines, none of Table 1's.
    src = DEFAULT_BASELINE_DIR / "BENCH_table2_exceptions.json"
    (tmp_path / src.name).write_text(src.read_text())
    out = "\n".join(_report(capsys, "--baseline-dir", str(tmp_path)))
    assert "paper vs measured (Table 2 #UD cycles):" in out
    assert "Table 1" not in out


def test_figure_paper_lines():
    from repro.bench.report import paper_section
    fig8d = {"name": "fig8d_redis", "figures": {"relative_max_throughput": {
        "HU-Enclave": 0.76, "GU-Enclave": 0.72, "SGX": 0.52,
        "baseline": 1.0}}}
    (table,) = paper_section(fig8d)
    assert table.rows[0] == ["HU-Enclave", "0.89", "0.76", ""]
    fig11 = {"name": "fig11_memenc",
             "figures": {"normalized": {"sgx/random": [1.0, 1000.0]}}}
    (table,) = paper_section(fig11)
    assert table.rows == [["sgx/random", "-", "1e+03x", ""]]
    fig8b = {"name": "fig8b_sqlite", "figures": {
        "records": [10, 20], "GU-Enclave": [0.99, 0.98],
        "HU-Enclave": [0.99, 0.98], "SGX": [0.8, 0.5]}}
    (table,) = paper_section(fig8b)
    assert "records [10, 20]" in table.title
    assert table.rows[2] == ["SGX", "-", "0.80, 0.50", ""]
    assert paper_section({"name": "ablation_edmm", "figures": {}}) == []


def test_no_names_renders_every_committed_baseline(capsys):
    out = "\n".join(_report(capsys))
    artifacts = [load_artifact(path)
                 for path in DEFAULT_BASELINE_DIR.glob("BENCH_*.json")]
    assert artifacts
    for artifact in artifacts:
        assert f"{artifact['name']} — " in out
    assert "paper vs measured (Table 1 ECALL cycles):" in out
    assert "paper vs measured (Figure 11 normalized latency at 256 MB):" \
        in out
    assert out.count(" frames by self cycles (of ") == \
        sum(bool(a["profile"] and a["profile"]["combined"]["frames"])
            for a in artifacts)


def test_empty_directory_is_an_error(tmp_path, capsys):
    assert bench_main(["report", "--baseline-dir", str(tmp_path)]) == 2
    assert "no artifacts found" in capsys.readouterr().err


def test_missing_artifact_path_is_an_error(tmp_path, capsys):
    assert bench_main(["report", str(tmp_path / "nope.json")]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_closed_stdout_exits_zero_quietly():
    """``python -m repro.bench report | head -1``: a reader that leaves
    early is a normal end of output, not an error."""
    read_end, write_end = os.pipe()
    os.close(read_end)                      # gone before the first write
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.bench", "report"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


def test_figures_table_has_one_row_per_series():
    from repro.bench.report import figures_section
    artifact = {"figures": {
        "sizes": [64, 16384], "ecall": {"in": [0.01, 0.0812]},
        "(64, 0)": {"winner": "hu", "hu": 104120.0}, "flat": 2.5,
        "Intel SGX": {"eenter": None, "ecall": 14432.0},
        "spec_vm": {"600.perlbench_s": 64117.0}}}
    (table,) = figures_section(artifact)
    assert table.rows == [["sizes", "64; 16,384"],
                          ["ecall.in", "0.01; 0.0812"],
                          ["(64, 0)", "hu=104,120"],
                          ["flat", "2.5"],
                          ["Intel SGX", "ecall=14,432"],
                          ["spec_vm", "600.perlbench_s=64,117"]]
