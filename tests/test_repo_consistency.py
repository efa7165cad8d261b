"""Repository-level consistency checks.

Documentation that references missing files, benchmarks absent from the
experiment index, or public modules without docstrings are the kind of
rot a released artifact cannot afford; these tests pin them down.
"""

import ast
import pathlib
import re
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "repro"


def test_every_module_has_a_docstring():
    missing = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(ROOT)))
    assert not missing, missing


def test_every_public_class_and_function_documented():
    undocumented = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    undocumented.append(
                        f"{path.relative_to(ROOT)}:{node.name}")
    assert not undocumented, undocumented


DOCS = [ROOT / "DESIGN.md", ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]
# Where commands are written down for someone to run.
COMMAND_DOCS = [*DOCS, ROOT / ".github" / "workflows" / "ci.yml"]

# `python -m repro.<pkg> <sub>` or `repro.<pkg> <sub>|<sub>` in a doc.
CLI_MENTION = re.compile(
    r"(?:python -m |`)repro\.([a-z_]+) "
    r"((?:[a-z][a-z-]*\|)*[a-z][a-z-]*)(?![\w/.-])")

# Every `python -m repro.<dotted>`, whatever follows it.
ENTRY_POINT = re.compile(r"python -m repro\.([a-z_]+(?:\.[a-z_]+)*)")


def _cli_accepts(package: str, command: str, monkeypatch) -> bool:
    """Whether ``python -m repro.<package> <command> --help`` exits 0."""
    if not (SRC / package / "__main__.py").exists():
        return False
    monkeypatch.setattr(sys, "argv", [package, command, "--help"])
    # A __main__ another test imported would make runpy warn.
    monkeypatch.delitem(sys.modules, f"repro.{package}.__main__",
                        raising=False)
    try:
        runpy.run_module(f"repro.{package}", run_name="__main__")
    except SystemExit as exc:
        return exc.code == 0
    return False


def _is_entry_point(dotted: str) -> bool:
    """Whether ``python -m repro.<dotted>`` runs an entry point.

    runpy exits 0 on any importable module, so a mention of a module
    whose command line was deleted would still "pass" when run.
    """
    path = SRC.joinpath(*dotted.split("."))
    if (path / "__main__.py").exists():
        return True
    module = path.with_suffix(".py")
    return module.exists() and \
        'if __name__ == "__main__":' in module.read_text()


def test_every_python_m_mention_is_an_entry_point():
    stale = sorted({f"{doc.name}: python -m repro.{dotted}"
                    for doc in COMMAND_DOCS
                    for dotted in ENTRY_POINT.findall(doc.read_text())
                    if not _is_entry_point(dotted)})
    assert not stale, stale


def test_design_md_references_existing_modules(monkeypatch, capsys):
    missing, commands = [], set()
    for doc in COMMAND_DOCS:
        text = doc.read_text()
        for dotted in set(re.findall(r"`repro\.([a-z_.]+)`", text)):
            parts = dotted.split(".")
            candidates = [
                SRC.joinpath(*parts).with_suffix(".py"),
                SRC.joinpath(*parts) / "__init__.py",
                # Attribute references like repro.monitor.rustmonitor.foo
                SRC.joinpath(*parts[:-1]).with_suffix(".py"),
            ]
            if not any(c.exists() for c in candidates):
                missing.append(f"{doc.name}: repro.{dotted}")
        for package, names in CLI_MENTION.findall(text):
            # A command of a package with no CLI is stale too.
            commands.update((doc.name, package, name)
                            for name in names.split("|"))
    assert commands
    missing += [f"{doc}: python -m repro.{package} {name}"
                for doc, package, name in sorted(commands)
                if not _cli_accepts(package, name, monkeypatch)]
    capsys.readouterr()
    assert not missing, missing


# A documented command line, `python -m repro.<pkg> <sub> ...`, up to a
# comment, pipe or backtick, across `\`-continued lines.
CLI_LINE = re.compile(r"python -m repro\.([a-z_]+) ([a-z][a-z-]*)(?![\w/.-])"
                      r"((?:[^\n#|`\\]|\\\n)*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def test_documented_flags_are_accepted(monkeypatch, capsys):
    """Every ``--flag`` on a documented command line is an option of
    that subcommand: its ``--help`` lists it."""
    helps, rejected = {}, set()
    for doc in COMMAND_DOCS:
        for package, command, rest in CLI_LINE.findall(doc.read_text()):
            if (package, command) not in helps:
                capsys.readouterr()
                accepted = _cli_accepts(package, command, monkeypatch)
                helps[package, command] = \
                    capsys.readouterr().out if accepted else ""
            rejected.update(
                f"{doc.name}: python -m repro.{package} {command} {flag}"
                for flag in FLAG.findall(rest)
                if not re.search(rf"(?<![\w-]){flag}(?![\w-])",
                                 helps[package, command]))
    assert helps
    assert not rejected, sorted(rejected)


def test_every_benchmark_is_documented():
    docs = (ROOT / "DESIGN.md").read_text() + (ROOT / "README.md").read_text()
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        assert bench.name in docs, f"{bench.name} missing from docs"


def test_benchmarks_run_and_check_through_repro_bench():
    """Each registered module has the two functions `repro.bench` calls,
    and no benchmark module keeps a second, pytest harness."""
    from repro.bench.registry import REGISTRY
    for name, spec in REGISTRY.items():
        module = spec.load()
        assert callable(getattr(module, "run_experiment", None)), name
        assert callable(getattr(module, "check", None)), name
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        tests = [node.name for node in ast.parse(bench.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("test_")]
        assert not tests, (bench.name, tests)


def test_readme_examples_exist():
    readme = (ROOT / "README.md").read_text()
    for name in re.findall(r"`examples/([a-z_]+\.py)`", readme):
        assert (ROOT / "examples" / name).exists(), name


def test_experiments_covers_every_paper_artifact():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Table 2", "Figure 7", "Figure 8a",
                     "Figure 8b", "Figure 8c", "Figure 8d", "Table 3",
                     "Figure 10", "Figure 11"):
        assert artifact in experiments, artifact


def test_costs_validate_importable():
    import repro.hw.costs as costs
    costs.validate()


def test_version_exported():
    import repro
    assert repro.__version__


#: Observer calls that instrumented code must make through
#: ``Telemetry.site`` instead (ring writes are checked separately).
_SITE_ONLY_CALLS = frozenset({
    "begin_segment", "end_segment", "begin_request", "end_request",
    "event", "cause", "span", "push_cause", "pop_cause"})


def _instrumented_calls():
    """(path, call) for every attribute call outside repro.telemetry."""
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "telemetry") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                yield path.relative_to(ROOT), node


def test_instrumented_sites_use_one_call():
    """Outside repro.telemetry a site is ``tel.site(...)`` plus
    ``tel.count(...)``: no direct span, segment, request, cause or ring
    call."""
    direct = []
    for path, call in _instrumented_calls():
        attr, receiver = call.func.attr, call.func.value
        ring = (isinstance(receiver, ast.Attribute)
                and receiver.attr in ("ring", "trace")) or \
            (isinstance(receiver, ast.Name) and receiver.id == "ring")
        if attr in _SITE_ONLY_CALLS or (attr == "record" and ring):
            direct.append(f"{path}:{call.lineno}: {ast.unparse(call.func)}")
    assert not direct, direct


def test_site_names_match_the_site_table():
    from repro.hw.cycles import SITES
    used = set()
    for path, call in _instrumented_calls():
        if call.func.attr != "site":
            continue
        name = call.args[0] if call.args else None
        assert isinstance(name, ast.Constant), \
            f"{path}:{call.lineno}: site name must be a literal"
        assert name.value in SITES, f"{path}:{call.lineno}: {name.value!r}"
        used.add(name.value)
    assert used == set(SITES), f"unused rows: {set(SITES) - used}"
