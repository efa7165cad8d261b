"""Symbol table construction for the whole-program verifier.

Loads every ``.py`` file under the scan roots, assigns each a dotted
module name, and indexes top-level functions, classes and methods.
Import aliases (``import time as t``, ``from time import time as t``,
relative imports, re-exports) are resolved per module so later passes
can turn any name or attribute chain back into a canonical dotted path.

The loader accepts an *overlay* mapping of path -> replacement source,
which the mutation tests use to inject violations into the real tree
without copying it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

# ``# repro-lint: disable=SC001, SC006 -- why``: the one pragma syntax.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable="
    r"(?P<rules>SC\d{3}(?:\s*,\s*SC\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*))?")


@dataclass
class Suppressions:
    """Per-line suppression directives parsed from source comments."""

    by_line: dict[int, dict[str, str]] = field(default_factory=dict)

    def lookup(self, line: int, rule: str) -> str | None:
        """The justification if ``rule`` is suppressed on ``line``."""
        return self.by_line.get(line, {}).get(rule)


def parse_suppressions(source: str) -> Suppressions:
    """Extract directives; each covers its own line, any directly
    following comment lines, and the first code line after them."""
    sup = Suppressions()
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        why = (match.group("why") or "").strip()
        if not why:
            continue                    # justification is mandatory
        rules = {r.strip() for r in match.group("rules").split(",")}
        covered = [lineno]
        # A standalone comment directive propagates through the rest of
        # its comment block and onto the first code line below; an
        # end-of-line directive covers only the line it sits on.
        if text.strip().startswith("#"):
            cursor = lineno
            while cursor < len(lines):
                nxt = lines[cursor].strip()
                cursor += 1
                covered.append(cursor)
                if nxt and not nxt.startswith("#"):
                    break               # first code line reached
        for line in covered:
            entry = sup.by_line.setdefault(line, {})
            for rule in rules:
                entry[rule] = why
    return sup


@dataclass
class FunctionInfo:
    """One top-level function or class method."""

    name: str
    qualname: str                    # "repro.hw.memmodel:MemorySubsystem.touch"
    module_name: str
    path: str                        # POSIX-style, as scanned
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    decorators: tuple[str, ...] = ()

    @property
    def is_public(self) -> bool:
        """Public by convention: no leading underscore."""
        return not self.name.startswith("_")

    @property
    def is_property(self) -> bool:
        """True for ``@property``/``@cached_property`` accessors."""
        return any(d in ("property", "cached_property")
                   for d in self.decorators)


@dataclass
class ClassInfo:
    """One top-level class and its method table."""

    name: str
    module_name: str
    lineno: int
    bases: tuple[str, ...] = ()      # base-class expressions, unparsed
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: tree, aliases and top-level symbols."""

    name: str                        # dotted, e.g. "repro.hw.memmodel"
    path: str                        # POSIX-style
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package holding this module (itself if ``__init__``)."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rpartition(".")[0]


def _module_name_for(file: Path, source_root: Path) -> str:
    """Dotted module name of ``file`` relative to ``source_root``."""
    rel = file.relative_to(source_root).with_suffix("")
    parts = list(rel.parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_root_for(root: Path) -> Path:
    """The directory dotted names are computed from.

    ``src/repro`` scans as package ``repro`` (names relative to ``src``);
    a directory that merely *contains* packages scans as itself.
    """
    if root.is_file():
        return root.parent
    if (root / "__init__.py").exists() or root.name == "repro":
        return root.parent
    return root


def _resolve_relative(module: str, package: str, level: int) -> str:
    """Absolute module named by ``from <dots><module> import ...``."""
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if module:
        parts.append(module)
    return ".".join(parts)


def bind_import(node: ast.Import | ast.ImportFrom, package: str,
                 aliases: dict[str, str]) -> None:
    """Record the names one import statement binds."""
    if isinstance(node, ast.Import):
        for item in node.names:
            if item.asname is not None:
                aliases[item.asname] = item.name
            else:
                # ``import a.b`` binds the *top* name to package a.
                top = item.name.split(".")[0]
                aliases[top] = top
        return
    base = (node.module or "") if node.level == 0 else \
        _resolve_relative(node.module or "", package, node.level)
    for item in node.names:
        if item.name != "*":
            aliases[item.asname or item.name] = \
                f"{base}.{item.name}" if base else item.name


def _collect_aliases(tree: ast.Module, package: str) -> dict[str, str]:
    """name -> canonical dotted target, from this module's imports and
    simple module-level assignments (``page_size = phys.PAGE_SIZE``)."""
    aliases: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bind_import(node, package, aliases)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            dotted = dotted_of(node.value, aliases)
            if dotted is not None:
                aliases[node.targets[0].id] = dotted
    return aliases


def import_aliases(module: ModuleInfo) -> dict[str, str]:
    """Every import binding anywhere in the file, function-level ones
    included, and no assignment aliases: the file-local checks flag a
    reference where it is written, so they never follow assignments."""
    aliases: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bind_import(node, module.package, aliases)
    return aliases


def dotted_of(expr: ast.AST, aliases: dict[str, str],
              local: dict[str, str] | None = None) -> str | None:
    """Canonical dotted path of a Name/Attribute chain, or ``None``.

    ``local`` maps in-function assignment aliases (``t = time.time``)
    and takes precedence over module-level import aliases.
    """
    if isinstance(expr, ast.Name):
        if local is not None and expr.id in local:
            return local[expr.id]
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = dotted_of(expr.value, aliases, local)
        if base is None:
            return None
        return f"{base}.{expr.attr}"
    return None


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> tuple[str, ...]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


class Project:
    """The loaded source tree: modules, functions, and dispatch indexes."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: method name -> every project method with that name, for the
        #: conservative attribute-dispatch fallback.
        self.method_index: dict[str, list[FunctionInfo]] = {}
        self.suppressions: dict[str, Suppressions] = {}

    # ------------------------------------------------------------- loading --

    @classmethod
    def load(cls, roots: list[Path],
             overlay: dict[str, str] | None = None) -> "Project":
        """Parse every ``.py`` under ``roots`` into a symbol table.

        ``overlay`` maps POSIX path strings to replacement source text
        (mutation-test injection without touching the real tree).
        """
        project = cls()
        overlay = overlay or {}
        seen: set[str] = set()
        for root in roots:
            source_root = _source_root_for(root)
            files = [root] if root.is_file() else sorted(root.rglob("*.py"))
            for file in files:
                posix = file.as_posix()
                if posix in seen:
                    continue
                seen.add(posix)
                source = overlay.get(posix)
                if source is None:
                    source = file.read_text()
                name = _module_name_for(file, source_root)
                project._add_module(name, posix, source)
        extra = set(overlay) - seen
        for posix in sorted(extra):
            # Overlay-only files: new modules injected by tests.
            root = _source_root_for(roots[0])
            name = _module_name_for(Path(posix), root)
            project._add_module(name, posix, overlay[posix])
        return project

    def _add_module(self, name: str, posix: str, source: str) -> None:
        tree = ast.parse(source, filename=posix)
        module = ModuleInfo(name=name, path=posix, tree=tree)
        module.aliases = _collect_aliases(tree, module.package)
        self.modules[name] = module
        self.suppressions[posix] = parse_suppressions(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name, module_name=name, lineno=node.lineno,
                    bases=tuple(ast.unparse(b) for b in node.bases))
                module.classes[node.name] = info
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._add_function(module, item,
                                           class_name=node.name)

    def _add_function(self, module: ModuleInfo,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      class_name: str | None) -> None:
        if class_name is None:
            qualname = f"{module.name}:{node.name}"
        else:
            qualname = f"{module.name}:{class_name}.{node.name}"
        info = FunctionInfo(
            name=node.name, qualname=qualname, module_name=module.name,
            path=module.path, lineno=node.lineno, node=node,
            class_name=class_name, decorators=_decorator_names(node))
        self.functions[qualname] = info
        if class_name is None:
            module.functions[node.name] = info
        else:
            module.classes[class_name].methods[node.name] = info
            self.method_index.setdefault(node.name, []).append(info)

    # ----------------------------------------------------------- resolving --

    def longest_module_prefix(self, dotted: str) -> tuple[str, list[str]]:
        """Split ``dotted`` into (known module name, trailing parts)."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, parts[cut:]
        return "", parts

    def lookup_dotted(self, dotted: str,
                      _depth: int = 0) -> FunctionInfo | ClassInfo | None:
        """Project symbol for a canonical dotted path, if any.

        Follows re-export chains (``from repro.telemetry.export import
        machine_record`` re-exported by ``repro.telemetry``) up to a
        small depth.  Returns ``None`` for external or unknown names.
        """
        if _depth > 4:
            return None
        module_name, rest = self.longest_module_prefix(dotted)
        if not module_name:
            return None
        module = self.modules[module_name]
        if not rest:
            return None
        head = rest[0]
        if len(rest) == 1:
            if head in module.functions:
                return module.functions[head]
            if head in module.classes:
                return module.classes[head]
        elif len(rest) == 2 and rest[0] in module.classes:
            return module.classes[rest[0]].methods.get(rest[1])
        # Re-export: the name is imported into ``module`` from elsewhere.
        if head in module.aliases:
            target = ".".join([module.aliases[head], *rest[1:]])
            return self.lookup_dotted(target, _depth + 1)
        return None

    def resolve_method(self, module: ModuleInfo, class_name: str,
                       attr: str, _seen: frozenset = frozenset()
                       ) -> FunctionInfo | None:
        """Resolve ``self.<attr>`` against a class and its project bases."""
        if class_name in _seen:
            return None
        cls = module.classes.get(class_name)
        if cls is None:
            try:
                base_expr = ast.parse(class_name, mode="eval").body
            except SyntaxError:
                return None
            symbol = self.lookup_dotted(
                dotted_of(base_expr, module.aliases) or "")
            if not isinstance(symbol, ClassInfo):
                return None
            cls = symbol
            module = self.modules[cls.module_name]
        if attr in cls.methods:
            return cls.methods[attr]
        for base in cls.bases:
            found = self.resolve_method(self.modules[cls.module_name],
                                        base, attr,
                                        _seen | {class_name})
            if found is not None:
                return found
        return None

    def constructor_of(self, cls: ClassInfo) -> FunctionInfo | None:
        """``__init__`` of ``cls`` or the nearest project base class."""
        module = self.modules[cls.module_name]
        return self.resolve_method(module, cls.name, "__init__")

    def symbol_at(self, module: ModuleInfo, line: int) -> str:
        """Qualname of the function or method holding ``line`` in
        ``module``, else the module name: the symbol a file-local
        finding carries (and whose ``def`` line its pragma may sit on)."""
        for info in self.functions.values():
            if info.path == module.path and \
                    info.lineno <= line <= info.node.end_lineno:
                return info.qualname
        return module.name

    def suppression_for(self, path: str, line: int,
                        rule: str) -> str | None:
        """Pragma lookup: the justification waiving ``rule`` there."""
        sup = self.suppressions.get(path)
        if sup is None:
            return None
        return sup.lookup(line, rule)
