import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

import markovtoric
import markovtoric.cli  # noqa: F401  (the workloads read markovtoric.cli)


def _imported_names():
    tree = ast.parse(inspect.getsource(markovtoric))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_export_resolves():
    for name in markovtoric.__all__:
        assert getattr(markovtoric, name, None) is not None, name


def test_exports_match_imports():
    assert len(set(markovtoric.__all__)) == len(markovtoric.__all__)
    assert set(markovtoric.__all__) == _imported_names()


def _top_level_statements():
    src = Path(markovtoric.__file__).parent
    return [(path.stem, stmt) for path in sorted(src.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def _names_used(stmt):
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_definition_is_exported_or_used():
    # A public function or class of a layer module that is neither
    # exported nor used by another top-level statement is dead code.
    statements = _top_level_statements()
    used = [_names_used(stmt) for _, stmt in statements]
    exported = set(markovtoric.__all__)
    dead = [f"{module}.{stmt.name}"
            for i, (module, stmt) in enumerate(statements)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in exported
            and not any(stmt.name in u for k, u in enumerate(used) if k != i)]
    assert not dead, f"public but neither exported nor used: {dead}"


def test_no_function_calls_itself():
    # Recursion depth grows with the input (a horizon, a column count)
    # and the interpreter's limit turns valid input into a traceback.
    src = Path(markovtoric.__file__).parent
    recursive = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                f = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if (isinstance(f, ast.Name) and f.id == fn.name
                        or isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    recursive.append(f"{path.stem}.{fn.name}")
    assert not recursive, f"functions that call themselves: {recursive}"


def test_files_are_opened_only_at_the_file_boundary():
    # every input is read by iofiles.read_text and every data file is
    # written by iofiles._write_lines; cli._emit opens --out
    opens, private = set(), []
    for module, stmt in _top_level_statements():
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and "open" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                opens.add(f"{module}.{getattr(stmt, 'name', '<module>')}")
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("iofiles", "markovtoric.iofiles")):
                private += [f"{module}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and getattr(node.value, "id", None) == "iofiles"):
                private.append(f"{module}: iofiles.{node.attr}")
    assert opens == {"iofiles.read_text", "iofiles._write_lines", "cli._emit"}
    assert not private, f"private iofiles names used elsewhere: {private}"


def test_yaml_and_json_are_decoded_only_by_the_strict_readers():
    # _StrictLoader refuses a repeated key and reads only canonical decimal
    # text as an int; read_relations' hook refuses a repeated key
    decodes = []
    for module, stmt in _top_level_statements():
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module in ("yaml", "json"):
                decodes.append(f"{module}: from {node.module} import ...")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) in ("yaml", "json")
                    and not node.func.attr.startswith("dump")):
                settings = ", ".join(f"{k.arg}={ast.unparse(k.value)}" for k in node.keywords)
                decodes.append(f"{module}.{getattr(stmt, 'name', '<module>')}: "
                               f"{node.func.value.id}.{node.func.attr}({settings})")
    assert sorted(decodes) == [
        "iofiles._load_yaml: yaml.load(Loader=_StrictLoader)",
        "iofiles.read_relations: json.loads(object_pairs_hook=unique_keys)"]


def _callers(name):
    """module.statement of every top-level statement that calls name."""
    return {f"{module}.{getattr(stmt, 'name', '<module>')}"
            for module, stmt in _top_level_statements() for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_only_generators_for_attaches_the_slice():
    # a model's generating set is its families plus its slice, assembled
    # in one place: the families return only their binomials
    assert _callers("slice_linear_generators") == {"relations.generators_for"}


def test_canonicalize_serves_only_the_exchange_moves_and_the_reader():
    # the nonhomogeneous quadrics and the permutation relations are built
    # canonical as written; a homogeneous exchange move, whose sides can
    # share a path, and a relation read from a file are normalised by it
    assert _callers("canonicalize") == {"relations.homogeneous_family",
                                        "iofiles.read_relations"}


BENCH = Path(__file__).parent.parent / "bench"


def _bench_tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify", "generate", "fit", "cli"])
def test_one_tiny_bench_pass_has_no_failed_operation(name, tmp_path):
    # each workload reads attributes of what the package returns, such
    # as an estimate's views, which no static check of its names sees
    workloads = _load_bench("workloads")
    workload = workloads.WORKLOADS[name](markovtoric, "tiny", str(tmp_path))
    chk = workloads.Checks()
    state = workload.setup(2)
    workload.check_setup(state, chk)
    workload.run(state, chk)
    assert chk.attempted > 0
    assert chk.failed == 0, chk.problems


def test_a_traced_cli_pass_records_every_verb_it_runs(tmp_path):
    # the parser is built once per process, before the tracer rebinds the
    # commands, so main must find each verb's command at call time; after
    # uninstall nothing is recorded
    spans, workloads = _load_bench("spans"), _load_bench("workloads")
    workload = workloads.WORKLOADS["cli"](markovtoric, "tiny", str(tmp_path))
    state = workload.setup(2)
    markovtoric.cli.build_parser()
    verbs = Counter(argv[0] for argv, _ in workload.session(state) if not callable(argv))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, markovtoric)
    try:
        workload.run(state, workloads.Checks())
    finally:
        uninstall()
    assert {verb: tracer.call_count(f"cli.cmd_{verb}") for verb in verbs} == verbs
    assert sum(verbs.values()) == 12 and len(verbs) == 9
    tracer.begin_pass()
    workload.run(state, workloads.Checks())
    assert len(tracer.span_id) == 0


def _dotted(node):
    # ("self", "mt", "cli", "main") for self.mt.cli.main; None past a call
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def test_every_package_name_the_benchmark_reads_resolves():
    # the workloads reach the package only through mt.<name> and
    # self.mt.<name> chains, such as mt.generators_for and mt.cli.main
    chains = set()
    for node in ast.walk(_bench_tree("workloads.py")):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] == "self":
            chain = chain[1:]
        if chain and chain[0] == "mt" and len(chain) > 1:
            chains.add(chain[1:])
    assert ("cli", "main") in chains
    importlib.import_module("markovtoric.cli")  # bench/run.py imports it too
    missing = []
    for chain in sorted(chains):
        obj = markovtoric
        for attr in chain:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join(chain))
    assert not missing, f"read by bench/workloads.py but not in the package: {missing}"


def _spans_top_level():
    # bench/spans.py's module-level assignments and functions, by name
    body = _bench_tree("spans.py").body
    values = {node.targets[0].id: node.value for node in body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return values, {node.name: node for node in body if isinstance(node, ast.FunctionDef)}


def test_every_traced_name_is_a_function_of_its_module():
    # bench/spans.py names the functions it hooks ("layer.function") and
    # the methods it traces ((layer, class, method, span name))
    values, _ = _spans_top_level()
    hooked = [key.value.split(".") for key in values["HOOKS"].keys]
    methods = ast.literal_eval(values["METHODS"])
    assert hooked and methods
    gone = []
    for layer, name in hooked:
        module = importlib.import_module(f"markovtoric.{layer}")
        fn = getattr(module, name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
            gone.append(f"{layer}.{name}")
    for layer, cls, meth, _ in methods:
        owner = getattr(importlib.import_module(f"markovtoric.{layer}"), cls, None)
        if not inspect.isfunction(vars(owner).get(meth) if owner else None):
            gone.append(f"{layer}.{cls}.{meth}")
    assert not gone, f"traced by bench/spans.py but not a function of its module: {gone}"


def test_every_argument_a_hook_reads_is_a_parameter_of_its_function():
    # a HOOKS hook reads the hooked call's bound arguments as args["name"];
    # a renamed parameter would break only the traced run
    values, defs = _spans_top_level()
    hooks = values["HOOKS"]
    checked, unknown = 0, []
    for key, value in zip(hooks.keys, hooks.values):
        hook = value.func if isinstance(value, ast.Call) else value
        read = {node.slice.value for node in ast.walk(defs[hook.id])
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.slice, ast.Constant)}
        layer, name = key.value.split(".")
        params = inspect.signature(
            getattr(importlib.import_module(f"markovtoric.{layer}"), name)).parameters
        unknown += [f"{key.value}: {arg}" for arg in sorted(read) if arg not in params]
        checked += len(read)
    assert checked >= 10
    assert not unknown, f"read by a bench/spans.py hook but not a parameter: {unknown}"
