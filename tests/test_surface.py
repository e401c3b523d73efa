"""src/crlab holds no code that only tests call, and the benchmark's
bindings into it resolve.

`perfbench/` drives crlab from outside: its tracer patches functions and
methods by name, its workloads import set-up oracles, and its ops are
CLI argument lists.  A name it binds leaves src/crlab only together with
the benchmark change that stops binding it."""

import ast
import importlib.util
import pathlib
import sys

from crlab import cli, codes, search

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crlab"
BENCH = ROOT / "perfbench"

# Defined with no reference on purpose: is_additive_group is the tested
# face of the group certificate that `dm --verify` runs through
# diffmat._group_order.
UNREFERENCED = {"is_additive_group"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree, strings: bool) -> list:
    """(kind, name, ids of the enclosing definitions) for every name the
    tree reads: "name" for a variable, "attr" for an attribute, "alias"
    for an imported name, and with strings, "str" for a string constant
    that is an identifier (the tracer patches by such strings)."""
    out = []

    def walk(node, enclosing):
        if isinstance(node, DEFS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(("name", node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.append(("attr", node.attr, enclosing))
        elif isinstance(node, ast.alias):
            out.append(("alias", node.name.rsplit(".", 1)[-1], enclosing))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            out.append(("str", node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return out


def _definitions(tree, module: str) -> list:
    """(qualified name, node, whether it is a method) for every function,
    method and class the module defines, nested ones included."""
    out = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                out.append((f"{prefix}.{child.name}", child, in_class))
                walk(child, f"{prefix}.{child.name}",
                     isinstance(child, ast.ClassDef))
            else:
                walk(child, prefix, in_class)

    walk(tree, module, False)
    return out


def unreferenced(src=SRC, bench=BENCH) -> list:
    """The qualified names of the definitions in src that nothing in src
    reads outside the definition itself and nothing in bench reads.  A
    method counts only as an attribute; the package's re-exports in
    __init__.py are no use."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    refs = [r for p, tree in trees.items() if p.name != "__init__.py"
            for r in _references(tree, strings=False)]
    bench_names = {name for p in sorted(bench.rglob("*.py"))
                   for _, name, _ in _references(ast.parse(p.read_text()),
                                                 strings=True)}
    missing = []
    for p, tree in trees.items():
        for qualname, node, method in _definitions(tree, p.stem):
            name = node.name
            if name.startswith("__") and name.endswith("__") \
                    or name in UNREFERENCED or name in bench_names:
                continue
            kinds = {"attr"} if method else {"name", "attr", "alias"}
            if not any(kind in kinds and ref == name and id(node) not in encl
                       for kind, ref, encl in refs):
                missing.append(qualname)
    return missing


def test_every_library_definition_is_used():
    assert unreferenced() == []


def _load(name: str, monkeypatch):
    """perfbench/<name>.py as a module of its own, in sys.modules (where
    dataclasses look its classes up) for the test's duration."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve(tmp_path, monkeypatch):
    """The tracer finds every function and method it patches and puts
    each back; every workload builds its op list, set-up oracles
    included, and every op's argument list parses."""
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    before = (vars(codes.LinearCode).copy(), search.search_antipodal_duals,
              cli.main)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert search.search_antipodal_duals is not before[1]
    finally:
        tracer.uninstall()
    assert (vars(codes.LinearCode), search.search_antipodal_duals,
            cli.main) == before
    monkeypatch.chdir(tmp_path)
    parser = cli._build_parser()
    for workload, build in workloads.BUILDERS.items():
        ops = build(11)
        assert ops, workload
        for op in ops:
            parser.parse_args(op.argv)
