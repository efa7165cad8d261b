"""Tests for ``python -m repro.bench report``.

The golden files under ``report_golden/`` pin the text and markdown
digests of the committed Table 1 baseline and of an ``epc_pressure``
run with ``--timeline --requests``.  Every golden line must appear, in
order, in the rendered output; the lines the report adds on top of the
goldens (the hottest profile frame and the paper-vs-measured table) are
listed explicitly.
"""

import json
import pathlib

import pytest

from repro.bench import load_artifact
from repro.bench.cli import main as bench_main
from repro.bench.runner import DEFAULT_BASELINE_DIR

GOLDEN = pathlib.Path(__file__).parent / "report_golden"
FORMATS = [("text", "txt"), ("markdown", "md")]

TABLE1_HOTTEST = "hottest frame: sdk.ecall (15,566,892 self cycles, " \
    "2416 calls)"
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
EPC_HOTTEST = "hottest frame: sdk.ecall;monitor.pagefault;" \
    "monitor.swap_in (126,976,000 self cycles, 8192 calls)"


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


def _indent(fmt: str, line: str) -> str:
    return f"  {line}" if fmt == "text" else line


@pytest.fixture(scope="module")
def epc_artifact(tmp_path_factory):
    """One ``epc_pressure`` run with the timeline and request blocks."""
    baseline_dir = tmp_path_factory.mktemp("epc")
    assert bench_main(["run", "epc_pressure", "--timeline", "--requests",
                       "--baseline-dir", str(baseline_dir)]) == 0
    return baseline_dir / "BENCH_epc_pressure.json"


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
    assert _added(golden, out) == \
        [_indent(fmt, TABLE1_HOTTEST), *TABLE1_PAPER[fmt]]


@pytest.mark.parametrize("fmt,ext", FORMATS)
def test_epc_pressure_with_timeline_and_requests(capsys, epc_artifact,
                                                 fmt, ext):
    golden = (GOLDEN / f"epc_pressure.{ext}").read_text().splitlines()
    out = _report(capsys, str(epc_artifact), "--format", fmt)
    assert _added(golden, out) == [_indent(fmt, EPC_HOTTEST)]


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
    assert out.count("hottest frame: ") == \
        sum(bool((a["profile"] or {}).get("top_self")) for a in artifacts)


def test_empty_directory_is_an_error(tmp_path, capsys):
    assert bench_main(["report", "--baseline-dir", str(tmp_path)]) == 2
    assert "no artifacts found" in capsys.readouterr().err


def test_missing_artifact_path_is_an_error(tmp_path, capsys):
    assert bench_main(["report", str(tmp_path / "nope.json")]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
