"""Static hygiene checks for the ``repro`` source tree.

Two checks, both AST-based (the checked code is never imported):

1. **Import cycles.**  Builds the module-level import graph of
   ``repro`` — every ``import``/``from ... import`` executed at module
   import time, i.e. at the top level or inside module-level ``if``/
   ``try``/class bodies — and fails on any cycle.  ``if TYPE_CHECKING:``
   blocks are not a loophole: an internal (``repro.*``) import hidden
   behind ``TYPE_CHECKING`` is *also* an error.  The engine refactor
   removed the last genuine cycle by moving shared interfaces into
   :mod:`repro.search.protocols`; new coupling must be broken the same
   way, not hidden from the runtime.

2. **Dead code.**  Top-level functions and classes anywhere in
   ``repro`` that no other source file, test, benchmark, or example
   references and that their module does not export via ``__all__``;
   plus private (``_``-prefixed) top-level definitions never referenced
   inside their own module.

Run as ``python -m repro.devtools.lint`` (or ``make lint``).  Exit
status 0 means clean; 1 means findings (one per line on stdout).
"""

from __future__ import annotations

import ast
import os
import re
import sys

__all__ = [
    "collect_modules",
    "module_imports",
    "find_cycles",
    "check_imports",
    "check_dead_code",
    "run_lint",
    "main",
]

PACKAGE = "repro"


# ----------------------------------------------------------------------
# Module discovery
# ----------------------------------------------------------------------
def collect_modules(src_root: str) -> dict[str, str]:
    """Map dotted module names to file paths under ``src_root/repro``."""
    modules: dict[str, str] = {}
    pkg_root = os.path.join(src_root, PACKAGE)
    for dirpath, dirnames, filenames in os.walk(pkg_root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, src_root)
            parts = rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = path
    return modules


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def module_imports(name: str, path: str) -> tuple[list, list]:
    """The module's import-time and TYPE_CHECKING-only imports.

    Returns ``(runtime, type_only)`` where each entry is a
    ``(target_module, lineno)`` pair.  Imports inside function bodies
    are lazy — they run when the function is called, not when the
    module is imported — so they cannot create an import cycle and are
    ignored.  Class bodies *do* execute at import time and are walked.
    """
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=path)
    is_package = os.path.basename(path) == "__init__.py"
    runtime: list[tuple[str, int]] = []
    type_only: list[tuple[str, int]] = []

    def resolve_from(node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: climb ``level`` packages from this module.
        parts = name.split(".")
        if not is_package:
            parts = parts[:-1]
        parts = parts[: len(parts) - (node.level - 1)]
        return ".".join(parts + ([node.module] if node.module else []))

    def walk(body, sink) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                sink.extend((alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # Emit ``base.name`` per alias: when the name is itself a
                # submodule (``from repro.ml import _native``) the true
                # dependency is the submodule, not the package __init__ —
                # longest-prefix resolution collapses plain attribute
                # imports back onto the module that defines them.
                base = resolve_from(node)
                sink.extend(
                    (f"{base}.{alias.name}" if base else alias.name, node.lineno)
                    for alias in node.names
                )
            elif isinstance(node, ast.If):
                gated = type_only if _is_type_checking_test(node.test) else sink
                walk(node.body, gated)
                walk(node.orelse, sink)
            elif isinstance(node, ast.Try):
                walk(node.body, sink)
                for handler in node.handlers:
                    walk(handler.body, sink)
                walk(node.orelse, sink)
                walk(node.finalbody, sink)
            elif isinstance(node, (ast.With, ast.ClassDef)):
                walk(node.body, sink)

    walk(tree.body, runtime)
    return runtime, type_only


def _edge_target(imported: str, modules: dict[str, str]) -> str | None:
    """The known module an import lands on (longest matching prefix)."""
    parts = imported.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in modules:
            return candidate
        parts.pop()
    return None


# ----------------------------------------------------------------------
# Check 1: import cycles (and TYPE_CHECKING-hidden internal imports)
# ----------------------------------------------------------------------
def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every elementary cycle's strongly connected component (Tarjan)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: recursion depth on a big package would be
        # the import chain length, which can exceed Python's limit.
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, edges = work[-1]
            advanced = False
            for w in edges:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    cycles.append(sorted(component))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return cycles


def check_imports(modules: dict[str, str]) -> list[str]:
    errors: list[str] = []
    graph: dict[str, set[str]] = {name: set() for name in modules}
    for name, path in sorted(modules.items()):
        runtime, type_only = module_imports(name, path)
        for imported, lineno in type_only:
            if (imported + ".").startswith(PACKAGE + "."):
                errors.append(
                    f"{path}:{lineno}: TYPE_CHECKING-gated import of internal "
                    f"module {imported!r} — share an interface via a protocol "
                    "module instead of hiding the cycle from the runtime"
                )
        for imported, _lineno in runtime:
            target = _edge_target(imported, modules)
            if target is not None and target != name:
                graph[name].add(target)
    for component in find_cycles(graph):
        errors.append(
            "runtime import cycle: " + " <-> ".join(component)
        )
    return errors


# ----------------------------------------------------------------------
# Check 2: dead code in the search package
# ----------------------------------------------------------------------
def _module_all(tree: ast.Module) -> set[str]:
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                exported.update(
                    el.value for el in node.value.elts
                    if isinstance(el, ast.Constant) and isinstance(el.value, str)
                )
    return exported


def _word_count(pattern: re.Pattern, text: str) -> int:
    return len(pattern.findall(text))


def check_dead_code(
    modules: dict[str, str],
    repo_root: str,
    subpackage: str | tuple[str, ...] = PACKAGE,
) -> list[str]:
    """Top-level defs in ``subpackage`` (one name or a tuple of names)
    that nothing references.

    Public names survive if any *other* source/test/benchmark/example
    file mentions them or their module exports them via ``__all__``;
    private names survive if their own module mentions them anywhere
    beyond the definition line.
    """
    errors: list[str] = []
    corpus_dirs = [
        os.path.join(repo_root, d)
        for d in ("src", "tests", "benchmarks", "examples")
        if os.path.isdir(os.path.join(repo_root, d))
    ]
    corpus: dict[str, str] = {}
    for root in corpus_dirs:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as fh:
                        corpus[path] = fh.read()

    subpackages = (subpackage,) if isinstance(subpackage, str) else tuple(subpackage)
    for name, path in sorted(modules.items()):
        if not any(
            name == pkg or name.startswith(pkg + ".") for pkg in subpackages
        ):
            continue
        source = corpus[path]
        tree = ast.parse(source, filename=path)
        exported = _module_all(tree)
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            ident = node.name
            if ident.startswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(ident)}\b")
            if ident.startswith("_"):
                # Private: any use inside its own module keeps it alive
                # (the definition itself accounts for one match).
                if _word_count(word, source) <= 1:
                    errors.append(
                        f"{path}:{node.lineno}: private {ident!r} is never "
                        "used in its module"
                    )
                continue
            if ident in exported:
                continue
            used = any(
                _word_count(word, text) > 0
                for other, text in corpus.items()
                if other != path
            )
            if not used:
                errors.append(
                    f"{path}:{node.lineno}: {ident!r} is not exported via "
                    "__all__ and nothing outside its module references it"
                )
    return errors


# ----------------------------------------------------------------------
def _default_roots() -> tuple[str, str]:
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    return src_root, os.path.dirname(src_root)


def run_lint(src_root: str | None = None, repo_root: str | None = None) -> list[str]:
    """All findings for the tree (empty list == clean)."""
    if src_root is None or repo_root is None:
        default_src, default_repo = _default_roots()
        src_root = src_root or default_src
        repo_root = repo_root or default_repo
    modules = collect_modules(src_root)
    return check_imports(modules) + check_dead_code(modules, repo_root)


def main(argv: list[str] | None = None) -> int:
    errors = run_lint()
    for error in errors:
        print(error)
    if errors:
        print(f"lint: {len(errors)} finding(s)")
        return 1
    print("lint: clean (import graph acyclic, no hidden internal imports, "
          "no dead code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
